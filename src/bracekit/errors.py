"""Exception types shared across the package.

Every error raised by bracekit derives from :class:`BracekitError`, so callers
can catch the whole family at once. The CLI maps input-shaped errors (schema,
malformed solution files, unmet construction conditions) to exit code 2 and
everything else to exit code 1.
"""

__all__ = [
    "BracekitError",
    "SingularMatrixError",
    "NotInvertibleError",
    "CapExceededError",
    "NotAUnitError",
    "BudgetExceededError",
    "ConditionViolationError",
    "SchemaError",
    "NoWitnessError",
    "ActionNotAutomorphismError",
    "IncompleteLatticeError",
    "KindPrimeMismatchError",
    "BelowBoundError",
    "AxiomsNotVerifiedError",
    "SolutionFormatError",
]


class BracekitError(Exception):
    """Base class for all bracekit errors."""


class SingularMatrixError(BracekitError):
    """A matrix that needed an inverse (or a non-zero determinant) is singular."""


class NotInvertibleError(BracekitError):
    """Order was requested for a matrix that is not invertible."""


class CapExceededError(BracekitError):
    """An order computation ran past its explicit cap."""


class NotAUnitError(BracekitError):
    """Multiplicative order was requested for a non-unit residue."""


class BudgetExceededError(BracekitError):
    """The witness search in ``bounds`` would try more candidates than its budget allows."""


class ConditionViolationError(BracekitError):
    """A construction precondition failed; the message names the condition."""


class SchemaError(BracekitError):
    """A spec file does not match the JSON schema; the message names the field."""


class NoWitnessError(BracekitError):
    """An exhaustive search finished without finding the requested witness."""


class ActionNotAutomorphismError(BracekitError):
    """A semidirect-product action fails the automorphism checks."""


class IncompleteLatticeError(BracekitError):
    """An ideal lattice handed to a decider failed its closure spot-checks."""


class KindPrimeMismatchError(BracekitError):
    """An orthogonal-group family was paired with a characteristic it excludes."""


class BelowBoundError(BracekitError):
    """Requested exponents sit below the feasibility bound."""


class AxiomsNotVerifiedError(BracekitError):
    """A solution table was requested from a brace that fails its axioms."""


class SolutionFormatError(BracekitError):
    """A serialized solution table is malformed."""
