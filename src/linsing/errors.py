"""Exception taxonomy shared across the package."""

import numpy as np


class LinsingError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(LinsingError):
    """Malformed expression text; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UndeclaredVariableError(LinsingError):
    """An identifier was used that is not among the declared variables."""

    def __init__(self, name, offset=None):
        at = f" (byte offset {offset})" if offset is not None else ""
        super().__init__(f"undeclared variable '{name}'{at}")
        self.name = name
        self.offset = offset


class DomainEvalError(LinsingError):
    """Evaluation hit a domain fault (sqrt of a negative, log of a non-positive,
    division by zero, bad power); identifies the offending subexpression."""

    def __init__(self, message, subexpression):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


class ShapeError(LinsingError):
    """Dimension/shape mismatch between fields, matrices or points."""


class NotComplementaryError(LinsingError):
    """The two subspaces do not span the ambient space as a direct sum."""


class BaseNotRegularError(LinsingError):
    """The base morphism is not a pointwise isomorphism where one is required.

    `consistency` is the ConsistencyResult of A(x) v = f(x) at the point, from
    the factorization that found the base singular
    (`PointDynamics.base_errors`, the one place this error is built).
    """

    def __init__(self, message, consistency):
        super().__init__(message)
        self.consistency = consistency


class FrameDegenerateError(LinsingError):
    """The transported force frame is linearly dependent at the evaluation point."""


class MaxRankViolatedError(LinsingError):
    """The velocity Jacobian of the constraint functions fails to have maximal rank."""


class InconsistentSystemError(LinsingError):
    """The linear problem has no solution at the requested point."""


class NonFiniteError(LinsingError):
    """A value overflowed or became NaN: a state, a field value or a residual."""


class NotOnManifoldError(LinsingError):
    """The evaluation point does not satisfy the submanifold equations."""


class ProjectionDivergenceError(LinsingError):
    """Post-step projection failed to converge, even after the retry."""

    def __init__(self, message, step_index):
        super().__init__(f"{message} (step {step_index})")
        self.step_index = step_index


class SpecFileError(LinsingError):
    """A system specification file is malformed; carries section/line context."""

    def __init__(self, section, line, message):
        ctx = ""
        if section:
            ctx += f" [section {section}]"
        if line:
            ctx += f" (line {line})"
        super().__init__(message + ctx)
        self.section = section
        self.line = line


def raise_first(*checks):
    """Raise the error that a loop over a batch, one item at a time, meets first.

    Each check is a pair (bad, error): `bad` a boolean array over the batch
    and `error(i)` the exception at item i. The checks are listed in the order
    the loop makes them at one item, so the earliest bad item raises, and of
    its bad checks the first.
    """
    first = None
    for bad, error in checks:
        if bad.any():
            i = int(np.argmax(bad))
            if first is None or i < first[0]:
                first = (i, error)
    if first is not None:
        raise first[1](first[0])
