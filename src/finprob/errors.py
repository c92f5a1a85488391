"""Exception hierarchy shared by all finprob modules."""


class FinprobError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FinprobError):
    """An argument lies outside the domain an operation requires
    (point not in the ground set, set not in the algebra, mismatched
    algebras, ...)."""


class RangeError(FinprobError):
    """A function value escapes its required range (e.g. a simple
    function leaving [0, 1])."""


class PreconditionError(FinprobError):
    """A stated precondition of an operation is violated (e.g. a map
    that is not premeasurable, an invalid lattice)."""


class ReconstructionError(FinprobError):
    """A functional or cone fails the hypotheses needed to represent it
    as a measure.  Carries a witness of the violation."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ExtensionError(FinprobError):
    """A premeasure on a semi-ring cannot be extended consistently.
    Carries the violating member and its decomposition."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InputError(FinprobError):
    """Malformed or schema-violating external input (CLI exit code 2).
    ``location`` is a JSON-path-like string pointing at the offender."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location

    def __reduce__(self):
        """Pickled as its message and location, from which it is rebuilt,
        not as the formatted text, which its constructor would prefix again."""
        return type(self), (self.message, self.location)


class UnboundedError(FinprobError):
    """The linear program has an unbounded objective."""


class InfeasibleError(FinprobError):
    """The linear program has no feasible point."""
