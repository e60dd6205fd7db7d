"""Write deep_corpus.json, the fixed input pool of the straighten_deep workload.

    python3 -B perfbench/make_corpus.py

For every (n, shape of the given size with at most n rows, mode) it draws
`draws` random same-shape pairs of column-increasing tableaux from
random.Random("deep-pool:<n>:<shape>:<mode>:<i>") and straightens each one
with a budget of `max_steps` rewrite steps.  A pair that needs more steps
is not kept: one such input can take minutes (see ROADMAP item 2), longer
than a benchmark run may last.  It is listed under "excluded" with the
budget it exceeded, so the blow-up stays on record.  Kept pairs carry the
step count they needed when the pool was made; the workload samples by
that count, which is data from now on and does not follow later changes
to the program.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from obidet import GO, ON, QQ, on_straighten  # noqa: E402
from obidet.tableaux import partitions_of  # noqa: E402
from workloads import random_pair  # noqa: E402

PARAMS = {"size": 5, "ns": [4, 5, 6, 7], "modes": ["ON", "GO"], "draws": 6,
          "max_steps": 12000}


def main() -> int:
    p = PARAMS
    kept, excluded = [], []
    for n in p["ns"]:
        for shape in partitions_of(p["size"], max_rows=n):
            for mode in p["modes"]:
                for i in range(p["draws"]):
                    rng = random.Random(f"deep-pool:{n}:{shape}:{mode}:{i}")
                    s, t = random_pair(rng, shape, n)
                    entry = {"n": n, "mode": mode, "left": s.format(), "right": t.format()}
                    trace: list = []
                    try:
                        on_straighten(s, t, {"ON": ON, "GO": GO}[mode], n, QQ,
                                      fuel=p["max_steps"], trace=trace)
                    except RuntimeError:
                        excluded.append({**entry, "exceeds_steps": p["max_steps"]})
                        continue
                    kept.append({**entry, "steps": len(trace)})
    kept.sort(key=lambda e: e["steps"])
    out = {"about": __doc__.strip().splitlines()[0], "params": p,
           "kept": kept, "excluded": excluded}
    (HERE / "deep_corpus.json").write_text(json.dumps(out, indent=0) + "\n")
    print(f"kept {len(kept)}, excluded {len(excluded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
