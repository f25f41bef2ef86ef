"""simflow: interprocedural dataflow & typestate analysis.

A CFG + worklist-fixpoint engine (:mod:`cfg`, :mod:`engine`) carrying
three analyses over the packet-stage pipeline:

* skb typestate against the derived stage order (:mod:`rules_skb`,
  :mod:`stagespec`);
* time-unit / wall-clock taint (:mod:`rules_time`);
* static↔dynamic stage-edge cross-check against the golden traces
  (:mod:`crosscheck`).

Its rules run in ``repro check``; the cross-check runs under
``repro check --trace``.
"""
