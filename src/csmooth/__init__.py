"""Recover fine-grained nonnegative spatial fields from station aggregates.

The pipeline: build a masked grid domain, partition it around sampled
stations, aggregate a field to per-station volumes, then reconstruct the
field with a penalized finite-element smoother kept exactly consistent
with the volumes by an alternating projection scheme.
"""
from .admm import (
    AdmmConfig,
    RecoveryResult,
    VolumeConstraints,
    css_recover,
    dual_update,
    volume_constraints,
    volume_projection,
)
from .benchmark import (
    EnsembleSpec,
    SeedOutcome,
    compare_methods,
    mean_mre,
    run_pipeline,
    run_seed,
    win_fraction,
)
from .domain import (
    CovariateMatrix,
    GridDomain,
    SpatialField,
    make_domain,
)
from .errors import (
    CollinearCovariates,
    ConfigError,
    CsmoothError,
    DegenerateCovariate,
    DegenerateField,
    DomainEmpty,
    InfeasibleVolume,
    InsufficientSupport,
    NoEvaluableCells,
    NumericalFailure,
    SchemaError,
    ShapeMismatch,
)
from .fem import FemSystem, Triangulation, assemble, triangulate
from .methods import (
    ALL_METHODS,
    CSS,
    CSS_FEATURES,
    PE,
    PE_SSR1,
    PE_SSR2,
    MethodSpec,
    run_method_full,
)
from .metrics import EvalReport, relative_errors
from .partition import (
    AggregateObservations,
    Partition,
    StationSet,
    aggregate,
    build_partition,
    patched_estimate,
    sample_stations,
)
from .smoother import SsrModel, SsrSolver
from .synth import SynthSpec, generate_field

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig",
    "AggregateObservations",
    "ALL_METHODS",
    "CollinearCovariates",
    "ConfigError",
    "CovariateMatrix",
    "CsmoothError",
    "CSS",
    "CSS_FEATURES",
    "DegenerateCovariate",
    "DegenerateField",
    "DomainEmpty",
    "EnsembleSpec",
    "EvalReport",
    "FemSystem",
    "GridDomain",
    "InfeasibleVolume",
    "InsufficientSupport",
    "MethodSpec",
    "NoEvaluableCells",
    "NumericalFailure",
    "Partition",
    "PE",
    "PE_SSR1",
    "PE_SSR2",
    "RecoveryResult",
    "SchemaError",
    "SeedOutcome",
    "ShapeMismatch",
    "SpatialField",
    "SsrModel",
    "SsrSolver",
    "StationSet",
    "SynthSpec",
    "Triangulation",
    "VolumeConstraints",
    "aggregate",
    "assemble",
    "build_partition",
    "compare_methods",
    "css_recover",
    "dual_update",
    "generate_field",
    "make_domain",
    "mean_mre",
    "patched_estimate",
    "relative_errors",
    "run_method_full",
    "run_pipeline",
    "run_seed",
    "sample_stations",
    "triangulate",
    "volume_constraints",
    "volume_projection",
    "win_fraction",
    "__version__",
]
