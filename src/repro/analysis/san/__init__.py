"""simsan: ownership/lifetime verifier for the repo's moved objects.

A rule family on the simflow CFG/worklist engine
(lint → flow → order → **ownership**), proving that each of the three
kinds of owned objects the reproduction moves across boundaries has
exactly one owner, is never reused while live, and is never leaked:

* pooled :class:`~repro.sim.events.Event` objects through the freelist
  and lazy-cancellation discard paths (:mod:`rules_event`, OWN601-603);
* skbs across stages and shard boundaries via ``encode_skb`` /
  ``decode_skb`` wire payloads (:mod:`rules_skbown`, OWN611-613);
* flow-cache entries through insert/evict/invalidate, including the
  cross-shard ``RECORD_INVAL`` churn path (:mod:`rules_cache`,
  OWN621-623);
* static↔dynamic cross-check against the runtime sanitizer ledger
  (:mod:`sancheck`; the dynamic side lives in
  :mod:`repro.validate.sanitize`, enabled via ``REPRO_SANITIZE=1``).

Its rules run in ``repro check``; the cross-check runs under
``repro check --trace``.
"""
