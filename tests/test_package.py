"""The package's public surface."""
import csmooth


def test_every_exported_name_resolves():
    missing = [name for name in csmooth.__all__ if not hasattr(csmooth, name)]
    assert not missing
    assert len(set(csmooth.__all__)) == len(csmooth.__all__)
