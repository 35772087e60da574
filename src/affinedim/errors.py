"""Exception types shared across the toolkit."""


class AffinedimError(Exception):
    """Base class for all toolkit errors."""


class InputError(Exception):
    """A malformed input file, argument or word cap setting."""


class IndexOutOfRange(AffinedimError):
    """A word letter does not index a map of the system."""


class BudgetExceeded(AffinedimError):
    """An enumeration would exceed the configured word cap."""

    def __init__(self, cap, requested=None):
        self.cap = cap
        self.requested = requested
        msg = f"word budget exceeded (cap={cap}"
        if requested is not None:
            msg += f", requested~{requested}"
        super().__init__(msg + ")")


class NotDominated(AffinedimError):
    """Operation requires a certified strongly invariant multicone."""


class NotConverged(AffinedimError):
    """Iterative scheme did not converge within the allotted iterations."""


class NotSeparated(AffinedimError):
    """Operation requires a certified strong separation gap delta > 0."""


class Inconclusive(AffinedimError):
    """Classification could not be certified at the search depth."""


class DegenerateRange(AffinedimError):
    """Requested scale range is empty or below the cloud's fidelity."""


class HypothesisViolated(AffinedimError):
    """A hypothesis of the underlying estimate fails for this system."""


class PlacementFailed(AffinedimError):
    """No disjoint placement found for the extra map of a fixture."""
