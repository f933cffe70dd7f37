"""Exception types shared across the package."""


class OnePointError(Exception):
    """Base class for every error raised by this package."""


class ParseError(OnePointError):
    """Input text does not follow the interval-set or topology grammar."""


class MalformedInterval(OnePointError):
    """An interval or interval set violates its construction invariants."""


class NotASubset(OnePointError):
    """A relative-topology operation was given a set outside its ambient."""


class EmptySpace(OnePointError):
    """Spaces must be nonempty."""


class NotClosed(OnePointError):
    """A separation argument must be closed in the ambient space."""


class NotDisjoint(OnePointError):
    """Two sets that must be disjoint are not."""


class CompactComponent(OnePointError):
    """Escape filters exist only along non-compact components; ``component``
    is the compact one that has none."""

    def __init__(self, component) -> None:
        super().__init__(f"{component.piece} has no non-compact end")
        self.component = component


class PointOutsideComponent(OnePointError):
    """A point argument lies outside the expected component or space."""


class EqualPoints(OnePointError):
    """Separation witnesses need two distinct points."""


class NotClosedInY(OnePointError):
    """A set is not closed in the one-point extension."""


class PInBoth(OnePointError):
    """The extra point cannot belong to both closed sets."""


class SizeTooLarge(OnePointError):
    """An input or a result exceeds a size limit: a finite-space enumeration
    bound, or a number too long to print as text."""


class NotACover(OnePointError):
    """The given family does not cover the compactified space."""


class InvalidExtension(OnePointError):
    """Bug signal: the extension violated one of its own structural theorems,
    or an engine-built witness or certificate failed its own verification."""


class DensityFailure(InvalidExtension):
    """Bug signal: a neighborhood of the extra point came out empty or invalid."""


class FidelityFailure(InvalidExtension):
    """Bug signal: subspace topology disagreement between base and extension."""
