"""Linearly singular differential equations A(x) x' = f(x) and generalized
nonholonomic systems: classification, multipliers, projectors, integration,
and symmetry/constant-of-motion verification."""

from types import ModuleType as _ModuleType

from .errors import (
    BaseNotRegularError,
    DomainEvalError,
    ExprSyntaxError,
    FrameDegenerateError,
    InconsistentSystemError,
    LinsingError,
    MaxRankViolatedError,
    NonFiniteError,
    NotOnManifoldError,
    ProjectionDivergenceError,
    ShapeError,
    SpecFileError,
    UndeclaredVariableError,
)
from .expressions import (
    ExpressionField,
    derivative,
    evaluate,
    free_variables,
    parse,
    to_text,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    SubspaceBasis,
    Tolerances,
    rank,
    solve_affine,
)
from .systems import (
    ConstraintAlgorithmResult,
    LinearlySingularSystem,
    constraint_algorithm_sample,
    identity_system,
)
from .nonholonomic import (
    GeneralizedNonholonomicSystem,
    PointDynamics,
    SubmanifoldSpec,
)
from .lagrangian import (
    LagrangianModel,
    build_lagrangian_model,
    build_lagrangian_system,
    chetaev_frame,
)
from .dynamics import Trajectory, integrate, monitor
from .symmetry import (
    SymmetryCandidate,
    check_descent,
    check_inf_symmetry,
    check_symmetry,
    finite_candidate,
    infinitesimal_candidate,
)
from .specfile import SpecFile, load, loads

__version__ = "0.1.0"

# every public name bound above; submodules bound by the imports are left out
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
