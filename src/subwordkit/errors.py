"""Exception taxonomy shared by the whole package."""


class SubwordkitError(Exception):
    """Base class for all errors raised by subwordkit."""


class InputError(SubwordkitError, ValueError):
    """Malformed or inconsistent caller input (bad state index, alphabet
    mismatch, out-of-range parameter)."""


class FormatError(InputError):
    """Unparseable automaton text.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(SubwordkitError):
    """A construction grew past its explicit state budget.

    `what` names the construction, `budget` the limit that was hit.
    """

    def __init__(self, what, budget):
        self.what = what
        self.budget = budget
        super().__init__(f"{what} exceeded budget of {budget}")


class VerificationError(SubwordkitError):
    """A claimed certificate failed its check."""
