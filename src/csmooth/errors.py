"""Exception types shared across the package."""


class CsmoothError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CsmoothError):
    """A parameter or option is out of its documented range."""


class DomainEmpty(CsmoothError):
    """A grid mask selects no active cell."""


class ShapeMismatch(CsmoothError):
    """Two objects that must share a domain or length do not."""


class InsufficientSupport(CsmoothError):
    """Fewer cells with positive mass than stations requested."""


class DegenerateField(CsmoothError):
    """A field with zero total mass, or a negative value, where a nonnegative mass is required."""


class DegenerateTriangle(CsmoothError):
    """A mesh triangle with (near) zero area."""


class DegenerateCovariate(CsmoothError):
    """A covariate column that is identically zero."""


class CollinearCovariates(CsmoothError):
    """Covariate columns are linearly dependent; the coefficient solve is singular."""


class NumericalFailure(CsmoothError):
    """A linear solve broke down or left an unacceptable residual."""


class InfeasibleVolume(CsmoothError):
    """A station volume is negative; no nonnegative field can match it."""


class SchemaError(CsmoothError):
    """An input file does not follow its documented schema."""


class NoEvaluableCells(CsmoothError):
    """Every cell fell below the truth floor; no relative error is defined."""
