"""Analysis of the reproduction: closed-form models and static checks.

Two halves:

* :mod:`~repro.analysis.pipeline` — a closed-form companion to the
  simulator: from the same :class:`~repro.kernel.costs.CostModel` it
  derives each mode's per-stage service times, predicts the bottleneck
  stage and the saturation packet rate, and estimates queueing latency.
  The cross-validation tests assert simulator and analysis agree, which
  protects both against silent calibration drift.
* :mod:`~repro.analysis.check` — ``repro check``, the one static
  analyzer pipeline: it parses every file once and runs four rule
  families over it — simlint (:mod:`~repro.analysis.lint`:
  determinism, DES discipline, per-CPU races), simflow
  (:mod:`~repro.analysis.flow`: skb typestate, time units), simorder
  (:mod:`~repro.analysis.order`: partition invariance, causality,
  flow-cache ordering) and simsan (:mod:`~repro.analysis.san`:
  ownership and lifetimes) — with one set of suppression pragmas
  (:mod:`~repro.analysis.pragmas`), one baseline ratchet
  (:mod:`~repro.analysis.baseline`) and three static↔dynamic
  cross-checks (``repro check --trace``). Not imported here, so the
  simulator never loads the analyzers.
"""

from repro.analysis.pipeline import (
    PipelineModel,
    StageCost,
    mm1_waiting_time_us,
    predict_capacity_pps,
)

__all__ = [
    "PipelineModel",
    "StageCost",
    "predict_capacity_pps",
    "mm1_waiting_time_us",
]
