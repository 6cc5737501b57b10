"""Screen the inputs of the theorem0-sweep, measure-certs and validate-bulk workloads.

Run from the repository root, after make_fixtures.py:

    python3 perfbench/make_pool.py

For every slot of those workloads (workloads.SLOTS) it draws candidate inputs
from workloads.POOL_SEED, runs each operation once and checks it exactly as
run.py does. The first candidate that passes is the slot's input; a slot
whose MAX_CANDIDATES candidates all fail is left out. It writes
perfbench/fixtures/pool.json: per workload, the chosen candidate of each slot
(null when none passed) and every rejected candidate with the reasons it
failed. The rejected candidates are the known-failures workload. Screening
is deterministic, so regenerating on the same library version rewrites the
same file.
"""

from __future__ import annotations

import json
import sys
import time

from run import check_all, import_polybound, timed_run


def main() -> int:
    import_polybound()
    import workloads

    pool = {"pool_seed": workloads.POOL_SEED, "max_candidates": workloads.MAX_CANDIDATES}
    for name, make_slots in workloads.SLOTS.items():
        chosen, rejected = [], []
        t0 = time.perf_counter()
        for j, make in enumerate(make_slots()):
            chosen.append(None)
            for i in range(workloads.MAX_CANDIDATES):
                op = make(workloads.candidate_rng(name, j, i))
                out, dt = timed_run(op)
                [(fails, _)] = check_all([(op, out, dt)])
                print(f"{name} slot {j} candidate {i} [{op.label}] {dt:.2f} s: "
                      f"{'; '.join(f.reason for f in fails) or 'pass'}", flush=True)
                if not fails:
                    chosen[j] = i
                    break
                rejected.append({"slot": j, "candidate": i, "label": op.label,
                                 "contract": any(f.contract for f in fails),
                                 "reasons": [f.reason for f in fails]})
        pool[name] = {"chosen": chosen, "rejected": rejected}
        print(f"{name}: {sum(c is not None for c in chosen)} of {len(chosen)} slots, "
              f"{len(rejected)} rejected candidates, {time.perf_counter() - t0:.1f} s",
              flush=True)
    workloads.POOL.write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {workloads.POOL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
