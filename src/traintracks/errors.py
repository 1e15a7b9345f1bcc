"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed user input (letters out of range, bad images, ...)."""


class ParseError(InputError):
    """Syntax error in an input description file."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


class BudgetExceededError(RuntimeError):
    """A word-length budget was hit.  Carries the partial progress made."""

    def __init__(self, message, m_reached=0, partial=None):
        super().__init__(message)
        self.m_reached = m_reached
        self.partial = partial


class NotIrreducibleError(ValueError):
    """Spectral data was requested for a reducible transition matrix."""


class NotALeafSegmentError(ValueError):
    """A path was required to occur in a lamination leaf but does not."""


class PreconditionError(ValueError):
    """An operation was invoked outside its stated domain."""


class InternalConsistencyError(RuntimeError):
    """An invariant that should hold by theory failed numerically.

    Raised e.g. for a normalized length sequence that increases beyond
    floating point slack, or convergence constants with excessive spread.
    Signals broken train-track data rather than bad user input.
    """
