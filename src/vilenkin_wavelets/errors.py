"""Exception hierarchy shared across the package."""


class VilenkinError(Exception):
    """Base class for all library errors."""


class BaseMismatchError(VilenkinError):
    """Two operands live over different digit bases p."""


class DigitError(VilenkinError):
    """A digit or base is outside its allowed range."""


class LambdaDomainError(VilenkinError):
    """Integer encoding requested for an element outside the integer lattice."""


class ParseError(VilenkinError):
    """Malformed radix-point text."""


class ResolutionCapError(VilenkinError):
    """A refinement would exceed the configured maximum resolution."""


class OverlapError(VilenkinError):
    """Input cylinders overlap where a disjoint union is required."""


class AliasingError(VilenkinError):
    """A grid operation would lose mass or fine structure outside the window."""


class FamilyArityError(VilenkinError):
    """A wavelet family does not have exactly p - 1 member sets."""


class SchemaError(VilenkinError):
    """A family file or signal file violates its documented schema."""
