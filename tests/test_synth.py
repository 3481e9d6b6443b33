"""Synthetic field generation: reproducibility and composition."""
import numpy as np
import pytest

from csmooth import dataio, synth
from csmooth.errors import ConfigError
from csmooth.synth import SynthSpec, generate_field


def test_no_bumps_no_noise_is_zero():
    field, cov = generate_field(SynthSpec(5, 4, bumps=0))
    assert cov is None
    np.testing.assert_array_equal(field.values, 0.0)
    assert field.domain.n == 20


def test_intercept_only_covariate_shifts_field():
    field, cov = generate_field(SynthSpec(5, 4, bumps=0, beta=(2.0,)))
    np.testing.assert_array_equal(field.values, 2.0)
    np.testing.assert_array_equal(cov.values, np.ones((20, 1)))
    assert cov.names == ("x0",)


def test_field_decomposes_into_covariate_effect():
    spec = SynthSpec(6, 6, bumps=0, beta=(2.0, 1.5), covariate_blocks=3, seed=4)
    field, cov = generate_field(spec)
    np.testing.assert_allclose(
        field.values, cov.values @ np.array([2.0, 1.5]), rtol=0, atol=1e-15
    )
    blocky = cov.values[:, 1]
    levels = np.unique(blocky)
    assert 1 <= levels.size <= 3
    assert levels.min() >= 0.05 and levels.max() <= 1.0


def test_bumps_are_positive_and_seeded():
    field_a, _ = generate_field(SynthSpec(10, 10, bumps=3, seed=12))
    field_b, _ = generate_field(SynthSpec(10, 10, bumps=3, seed=12))
    field_c, _ = generate_field(SynthSpec(10, 10, bumps=3, seed=13))
    np.testing.assert_array_equal(field_a.values, field_b.values)
    assert not np.array_equal(field_a.values, field_c.values)
    assert field_a.values.min() >= 0.0
    assert field_a.values.max() > 0.0


def test_covariate_draws_are_seeded():
    spec = SynthSpec(8, 8, bumps=2, beta=(1.0, 0.5, 0.25), covariate_blocks=5, seed=9)
    _, cov_a = generate_field(spec)
    _, cov_b = generate_field(spec)
    np.testing.assert_array_equal(cov_a.values, cov_b.values)
    assert cov_a.q == 3


def test_noise_is_clipped_nonnegative():
    field, _ = generate_field(SynthSpec(12, 12, bumps=0, noise=1.0, seed=2))
    assert field.values.min() >= 0.0
    assert (field.values > 0).sum() > 0
    # clipping at zero keeps roughly the negative half of the draws at zero
    assert (field.values == 0).sum() > 0


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, bumps=-1)
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, amp_range=(-1.0, 2.0))
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, amp_range=(3.0, 2.0))
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, width_range=(0.0, 2.0))
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, noise=-0.1)
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, beta=())
    with pytest.raises(ConfigError):
        SynthSpec(4, 4, beta=(1.0, 2.0), covariate_blocks=0)
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -2"):
        SynthSpec(4, 4, seed=-2)


def test_covariate_blocks_may_not_outnumber_the_cells():
    # each blocky column draws its anchors from distinct cells
    with pytest.raises(ConfigError, match="5 covariate blocks need as many cells"):
        SynthSpec(2, 2, beta=(1.0, 2.0), covariate_blocks=5)
    field, cov = generate_field(SynthSpec(2, 2, beta=(1.0, 2.0), covariate_blocks=4))
    assert cov.values.shape == (4, 2)
    # an intercept alone draws no blocks, so their count is not checked
    generate_field(SynthSpec(2, 2, beta=(1.0,), covariate_blocks=5))


@pytest.mark.parametrize("spec", [
    {"noise": float("inf")},
    {"noise": float("nan")},
    {"beta": (float("nan"),)},
    {"beta": (1.0, float("inf"))},
    {"amp_range": (float("nan"), 1.0)},
    {"amp_range": (1.0, float("inf"))},
    {"width_range": (1.0, float("inf"))},
    {"width_range": (float("nan"), 2.0)},
], ids=["noise-inf", "noise-nan", "beta-nan", "beta-inf", "amp-nan", "amp-inf", "width-inf",
        "width-nan"])
def test_non_finite_parameters_rejected(spec):
    with pytest.raises(ConfigError, match="must be finite"):
        SynthSpec(4, 4, **spec)


def test_grid_cap_checked_before_anything_is_allocated(monkeypatch):
    # the cap is the field reader's, so every truth synth writes reads back
    assert synth.MAX_GRID_CELLS == dataio.MAX_GRID_CELLS
    with pytest.raises(ConfigError, match=r"at most 67108864 cells, got 100000x100000"):
        SynthSpec(100_000, 100_000)
    monkeypatch.setattr(synth, "MAX_GRID_CELLS", 12)
    assert generate_field(SynthSpec(3, 4))[0].domain.n == 12
    for rows, cols in ((3, 5), (0, 4), (-4, -4)):
        with pytest.raises(ConfigError, match=rf"at most 12 cells, got {rows}x{cols}"):
            SynthSpec(rows, cols)
