"""Verification library for the global symmetry groups of generalized
Schrodinger and diffusion equations with inverse-quadratic, linear, and
quadratic potentials.

The package machine-checks the group algebra (fractional-linear matrices
with translation pairs), the coordinate actions and multiplier functions
of each potential family, the solution-space lifts between families, the
associated Lie algebra with its Casimir invariants, and the residuals of
every transformed or lifted solution.
"""

from .coords import (
    FamilySpec,
    Frame,
    GalileanData,
    Point,
    act,
    frame,
    galilean_params,
    reality_domain_check,
    comoving_identity_check,
)
from .errors import (
    BranchError,
    ConfigError,
    ConvergenceError,
    DeterminantError,
    DomainError,
    FamilyMismatch,
    NoRootError,
    OrderError,
    QuadratureError,
    RangeError,
    SchroedSymError,
    ShapeError,
    SingularTime,
    ZeroK,
    ZeroOmega,
)
from .group import (
    DiskParams,
    GroupElement,
    Mat2,
    cocycle_linear,
    cocycle_quadratic,
    compose,
    disk_parametrize,
    inverse,
    is_semigroup_admissible,
)
from .multiplier import IntertwinerParams
from .opalg import (
    DiffOp,
    GeneratorSet,
    casimir_I2,
    casimir_I3,
    generators_linear,
    generators_quadratic,
    intertwine_check,
)
from .residual import (
    GridSpec,
    PullbackFn,
    ResidualReport,
    grid_residual,
    lift_frame,
    transformed,
    verify_intertwining,
    verify_transformed_solution,
    verify_lifted_solution,
)
from .solutions import (
    AiryFn,
    AirySpec,
    FormulaFn,
    GaussianFn,
    SmoothFn,
    eigenvalue_scan,
    f_pair,
    g_functions,
    gaussian_free,
    phi_pair,
    plane_wave_nls,
    power_static,
    theta1,
)
from .suites import RunConfig, SuiteReport, run_suite

__version__ = "0.1.0"
