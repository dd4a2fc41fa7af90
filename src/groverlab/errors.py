"""Exception and warning types shared across the library."""


class GroverLabError(ValueError):
    """Base class for all library-specific errors."""


class ShapeError(GroverLabError):
    """Operands have incompatible or non-square shapes."""


class InvalidSizeError(GroverLabError):
    """A list size or grid size is outside its documented range."""


class IndexRangeError(GroverLabError, IndexError):
    """An index (a marked element, a wavenumber) lies outside [0, size)."""


class NormalizationError(GroverLabError):
    """A vector or phase that must be unit-norm is not."""


class DegenerateSubspaceError(GroverLabError):
    """The marked-state overlap leaves no two-dimensional dynamics."""


class DivergentPeriodError(GroverLabError):
    """The phase gap vanishes, so no optimal step count exists."""


class SingularLimitError(GroverLabError):
    """An asymptotic formula is evaluated at a pole of its denominator."""


class ResourceLimitError(GroverLabError):
    """The requested computation exceeds the supported problem size."""


class PeakedInitialStateWarning(UserWarning):
    """The initial state is already concentrated on the marked element,
    so the perturbative peak estimate does not apply; measure directly."""
