"""Pade approximants of truncated power series, universal-approximation
builders and their verification certificates."""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    DEFAULT_TOL,
    FormalPowerSeries,
    NEG_INF,
    Polynomial,
    ToleranceConfig,
    coefficient_metric,
    disagreement_metric,
    taylor_partial_sum,
)
from .pade import (  # noqa: F401
    HankelReport,
    RationalFunction,
    hankel_determinant,
    order_condition_residual,
    pade_approximant,
    rational_derivative,
    rational_table_membership,
)
from .compacts import (  # noqa: F401
    AnnulusSector,
    Circle,
    CompactSpec,
    DomainSpec,
    FilledDisk,
    Grid,
    PointSet,
    Segment,
    discretize,
    double_sup,
    exhausting_family,
    outer_family,
    sup_norm,
)
from .construct import (  # noqa: F401
    Certificate,
    ExtensionRequirement,
    IndexSequence,
    RequirementSpec,
    TargetFunction,
    TargetPair,
    build_universal_polynomial,
    extend_prefix,
    poly_fit,
    run_extension_schedule,
    select_index,
    verify_construction,
)
from .reporting import (  # noqa: F401
    RunRecord,
    SCHEMA,
    emit_pade_table,
    load_run,
    save_run,
)
from . import errors  # noqa: F401
