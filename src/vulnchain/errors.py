"""Exception types shared across the package."""


class VulnchainError(Exception):
    """Base class for every error this package raises deliberately."""


class EmptyCondition(VulnchainError):
    """A condition label was empty or whitespace-only."""


class MalformedUri(VulnchainError):
    """A URI could not be normalized to its canonical form."""


class SchemaViolation(VulnchainError):
    """An input document does not conform to its schema.

    ``path`` points at the offending element, e.g. ``findings[3].uri``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class UnknownAssumptionFlag(SchemaViolation):
    """``requires_user_action`` appeared on a postcondition."""


class DuplicateState(SchemaViolation):
    """Two findings, or two states of a machine file, share the same
    (vulnerability, canonical URI) pair; ``path`` names the later entry."""


class InvalidAssumption(VulnchainError):
    """An assumed condition is not a user-action precondition of any state."""


class ResultFsmMismatch(VulnchainError):
    """A reach result is used with a machine object other than ``ReachResult.fsm``."""


class GoalNotReached(VulnchainError):
    """Witness extraction was asked for a goal outside the visited set."""
