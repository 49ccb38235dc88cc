"""Exception hierarchy for the ``repro`` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class InvalidGoodError(ReproError):
    """A good was constructed with an invalid cost or value."""


class InvalidBundleError(ReproError):
    """A goods bundle violates a structural constraint (e.g. duplicate ids)."""


class InvalidPriceError(ReproError):
    """The agreed price is outside the individually rational range."""


class InvalidActionError(ReproError):
    """An exchange action cannot be applied to the current exchange state."""


class InvalidSequenceError(ReproError):
    """An exchange sequence is structurally invalid.

    Examples: a good delivered twice, payments that do not sum to the agreed
    price, or a negative payment chunk.
    """


class NoSafeSequenceError(ReproError):
    """No exchange sequence satisfying the requested bounds exists."""


class NegotiationError(ReproError):
    """Price negotiation failed (e.g. reserve prices do not overlap)."""


class DecisionError(ReproError):
    """A decision module was asked to evaluate an inconsistent situation."""


class TrustModelError(ReproError):
    """A trust model received invalid evidence or parameters."""


class ReputationError(ReproError):
    """A reputation store or reporting protocol failed."""


class StorageError(ReputationError):
    """A (distributed) storage operation failed."""


class RoutingError(ReproError):
    """A P-Grid routing operation could not be completed."""


class SimulationError(ReproError):
    """The community simulation or its network was used incorrectly."""


class MarketplaceError(ReproError):
    """A marketplace operation (listing, matching, settlement) failed."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class AnalysisError(ReproError):
    """An analysis helper received invalid data."""
