"""Exception hierarchy for the reproduction library."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised when the simulator is used incorrectly.

    Example: scheduling an event in the past.
    """


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class ShardError(SimulationError):
    """Raised when the sharded engine loses its synchronization contract.

    Examples: a shard worker that died or stopped answering inside a
    barrier window, a cross-shard event record that decodes to garbage,
    or a record whose timestamp undercuts the window barrier that is
    supposed to bound it (a causality violation — the lookahead was
    misdeclared).
    """


class TopologyError(ReproError):
    """Raised when hosts, devices or containers are wired incorrectly."""
