"""Exception hierarchy shared across the package."""


class SuperwalkError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SuperwalkError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class BudgetExceededError(SuperwalkError):
    """An enumeration exceeded its configured box or node budget."""


class SingularEvaluationError(InvalidInputError):
    """A closed-form character evaluation hit a vanishing denominator."""


class FormulaDomainError(InvalidInputError):
    """A closed-form character formula was requested outside its validity domain."""


class ContractViolationError(SuperwalkError):
    """An exact internal identity failed; signals a bug, not bad input."""


class DecompositionError(ContractViolationError):
    """Greedy elimination met a negative or non-dominant leading term."""


class SamplingFailureError(SuperwalkError):
    """Rejection sampling exhausted its attempt budget.

    Carries the attempt statistics so callers can report an acceptance-rate
    estimate instead of silently retrying forever.
    """

    def __init__(self, message: str, attempts: int, accepted: int):
        super().__init__(message)
        self.attempts = attempts
        self.accepted = accepted

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0
