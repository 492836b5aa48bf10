"""Exception types and the immutable-record base shared across the engine."""


class NmqfiError(Exception):
    """Base class for all engine errors."""


class ConfigError(NmqfiError):
    """Scenario configuration failed to parse or validate."""


class CoverageError(NmqfiError):
    """A requested window reaches beyond the solved response grid."""


class SolverInstabilityError(NmqfiError):
    """Response solution left the physical |G| <= 1 region."""


class AlignmentError(NmqfiError):
    """Initial state does not satisfy the aligned-variance condition."""


class ConsistencyError(NmqfiError):
    """Two redundant internal routes disagreed beyond tolerance."""


class EstimationError(NmqfiError):
    """Estimation is impossible for the supplied scenario."""


class ConvergenceError(NmqfiError):
    """An iterative numerical routine stopped at its cap without converging."""


def retired(name: str):
    """Stub bound to the name of a removed function; calling it raises.

    perfbench/tracer.py wraps a fixed table of engine functions by name (and
    reads a quadrature's `max_panels` default), so a removed name stays
    bound to a stub until that table drops it. The engine never calls one.
    """
    def stub(*args, max_panels=None, **kwargs):
        raise NotImplementedError(f"{name} was removed from nmqfi")
    return stub


class Frozen:
    """Base of the validating records: immutable after construction.

    __init__ checks its arguments and stores the fields with
    vars(self).update; assigning or deleting any attribute afterwards
    raises AttributeError. A cached_property still fills the instance
    __dict__ directly.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
