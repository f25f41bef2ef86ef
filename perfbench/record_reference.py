"""Record the reference digests the benchmark checks its outputs against.

Run from the root of a checkout::

    python3 perfbench/record_reference.py

It rewrites ``reference.json`` whole: one digest per workload and seed
in ``SEEDS``, each the simulated output of one scenario.
``cluster-churn`` is recorded on one inline shard, so the benchmark's
2-process runs are also checked for partition invariance.
Re-record only when a change is meant to alter simulated behaviour, and
say so in the change's description.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
SEEDS = range(100)

ABOUT = (
    "Simulated outputs per workload and seed (perfbench/record_reference.py). "
    "cluster-churn was recorded on one inline shard."
)


def record(workload: Any, seed: int) -> Dict[str, Any]:
    from perfbench.scenarios import Clock

    params = workload.params(seed)
    if "transport" in params:
        params = dict(params, shards=1, transport="inline")
    digest = workload.execute(params, Clock())
    return json.loads(json.dumps(digest, sort_keys=True))


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.scenarios import WORKLOADS

    digests: Dict[str, Dict[str, Any]] = {}
    for name, workload in WORKLOADS.items():
        table = digests[name] = {}
        for seed in SEEDS:
            start = time.perf_counter()
            table[str(seed)] = record(workload, seed)
            print(f"{name} seed {seed}: {table[str(seed)]['events']} events "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    REFERENCE_PATH.write_text(render({"about": ABOUT, "digests": digests}))
    return 0


def render(doc: Dict[str, Any]) -> str:
    """JSON with one digest per line, so a re-record diffs by seed."""
    workloads = []
    for name, table in sorted(doc["digests"].items()):
        rows = ",\n".join(
            f"   {json.dumps(seed)}: {json.dumps(digest, sort_keys=True)}"
            for seed, digest in table.items()
        )
        workloads.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    body = ",\n".join(workloads)
    return f'{{\n "about": {json.dumps(doc["about"])},\n "digests": {{\n{body}\n }}\n}}\n'


if __name__ == "__main__":
    sys.exit(main())
