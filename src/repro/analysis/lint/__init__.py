"""``simlint``: the syntactic rule family of ``repro check``.

The static counterpart of :mod:`repro.validate` (PR 1): where the
invariant monitors catch a determinism or serialization violation *when
a workload executes it*, these rules catch the same contract violations
on every file before any workload runs. Three rule families:

=========  =============================================================
SIM101     no wall-clock reads (``time.time`` & co.)
SIM102     all randomness via :class:`repro.sim.rng.RngRegistry` streams
SIM103     no ``id()``/``hash()``-derived ordering
SIM104     no set iteration feeding the event scheduler
DES201     no real concurrency primitives in simulated code
DES202     no blocking calls (sleep / I/O / subprocess) in simulated code
DES203     service times are named :class:`~repro.kernel.costs.CostModel`
           constants, never literals
RACE301    cross-core access to per-CPU structures must route through
           the serialization primitives (``raise_net_rx`` /
           ``enqueue_backlog`` / ``schedule`` / ``submit``)
LINT000/1  malformed pragmas / unparseable files (always on)
=========  =============================================================

Part of the one analyzer pipeline: run it as ``repro check`` (or
``--rule SIM101`` for one rule) or programmatically via
:func:`repro.analysis.check.analyze`. Suppression pragmas are
documented in :mod:`repro.analysis.pragmas`.
"""
