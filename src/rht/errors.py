"""Exception hierarchy shared by all modules."""


class RhtError(Exception):
    """Base class for all semantic errors raised by this package."""


class ContextMismatchError(RhtError):
    """Two elements from different generator contexts were combined."""


class DegreeError(RhtError):
    """A degree constraint was violated (bad generator degree, image degree...)."""


class DerivationError(RhtError):
    """A derivation is missing a generator image or is otherwise ill-formed."""


class ValidationError(RhtError):
    """A presentation or morphism failed validation; carries the violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class UnsupportedInputError(RhtError):
    """Input is outside the supported fragment (e.g. H^1 != 0 for minimal models)."""


class BudgetExceededError(RhtError):
    """A degree window or monomial-count budget was exceeded."""


class UsageError(RhtError):
    """A command-line value the command cannot take (exit code 2, like a parse error)."""


class ParseError(RhtError):
    """Syntax or semantic error in the description language, with location."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)
