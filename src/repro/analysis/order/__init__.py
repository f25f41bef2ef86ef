"""simorder: static causality & ordering verifier for the parallel datapaths.

A rule family on the simflow CFG/worklist engine, guarding the two
invariants the paper's correctness argument rests on — 1-vs-N-shard
byte-identity and per-flow delivery order through the cached fast path:

* partition-invariance taint: shard/worker identity must not reach
  timestamps, payloads, seeds or merge keys (:mod:`rules_partition`,
  ORD501-503);
* cross-shard causality: every cross-SimContext emission goes through a
  ``CrossShardEvent`` with a timestamp provably past the window barrier
  plus lookahead (:mod:`rules_causality`, ORD511-513);
* flowcache ordering typestate: the slow-inflight ledger gate and
  container-removal invalidation (:mod:`rules_flowcache`, ORD521-523);
* static↔dynamic ordering cross-check over the golden traces
  (:mod:`ordercheck`).

Its rules run in ``repro check``; the cross-check runs under
``repro check --trace``.
"""
