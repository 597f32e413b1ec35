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
    NotComplementaryError,
    NotOnManifoldError,
    ProjectionDivergenceError,
    ShapeError,
    SpecFileError,
    UndeclaredVariableError,
)
from .expressions import (
    ExpressionField,
    derivative,
    eval_dual,
    evaluate,
    fd_jacobian,
    free_variables,
    parse,
    substitute,
    to_text,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    SubspaceBasis,
    Tolerances,
    cokernel_basis,
    complement_projectors,
    induced_quotient_matrix,
    kernel_basis,
    orthonormal_complement,
    rank,
    reduced_solve,
    solve_affine,
    subspace_classify,
)
from .systems import (
    ConstraintAlgorithmResult,
    LinearlySingularSystem,
    consistency_at,
    constraint_algorithm_sample,
    identity_system,
    make_system,
    primary_constraint_values,
    solve_at,
)
from .nonholonomic import (
    ForceFrame,
    GeneralizedNonholonomicSystem,
    PointDynamics,
    SubmanifoldSpec,
    D_matrix_at,
    H_frame_at,
    classify_at,
    constrained_field_at,
    multipliers_at,
    projectors_at,
    unconstrained_solution_at,
)
from .lagrangian import (
    LagrangianModel,
    build_lagrangian_model,
    build_lagrangian_system,
    chetaev_frame,
    nonholonomic_lagrangian,
    regularity_of_L,
    sode_solve_at,
)
from .dynamics import Trajectory, integrate, monitor
from .symmetry import (
    SymmetryCandidate,
    check_constant_descent,
    check_descent,
    check_inf_symmetry,
    check_symmetry,
    euler_flow_candidate,
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
