"""Exception and warning types shared across the package."""


class BoxWorldError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(BoxWorldError, ValueError):
    """A constructed object or an input violates its contract
    (range, shape, normalization, weight sum, bad rational literal)."""


class SignallingError(BoxWorldError):
    """A bipartite box failed the no-signalling precondition of an operation."""


class ZeroProbabilityError(BoxWorldError):
    """Conditioning on (or identifying) an outcome of probability zero."""


class IncompatibleEnsemblesError(BoxWorldError):
    """Remote preparation was requested for ensembles that do not mix
    to the same single-party box."""


class RegionError(BoxWorldError):
    """A target state lies where no triangle-pair construction exists:
    on the anti-diagonal s + t = 1 of the local square."""


class DegenerateRegionWarning(UserWarning):
    """The target sits on the boundary of the canonical triangle: the
    construction still works but some weights vanish, and the hiding
    guarantee against Bob may fail."""
