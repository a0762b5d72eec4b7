"""Regenerate ``outside_pools.json``: outside-A closure seeds of ``prime92160``, by cost class.

    python3 perfbench/make_outside_pools.py

Closures of the order-92160 brace seeded outside the ideal A all end at the
full brace, but their cost falls into well separated classes: about 0.15 s
(three in four seeds) or about 3 s (one in four), rarely about 0.6 s, on a
2-core x86_64 host. A pass that drew its outside seeds uniformly would vary by
several seconds with the number of slow seeds it happened to draw, which is
seed noise, not program speed. So the pools hold candidate seeds drawn from a
fixed generator and sorted by their time at the commit that made this file,
and a pass draws a fixed number from the fast and the slow pool with its own
seed. The rare medium seeds are listed but not drawn.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bracekit.braces as braces  # noqa: E402
import bracekit.construct as construct  # noqa: E402

CANDIDATES = 60
# class limits in seconds; the measured classes sit far from both
FAST_BELOW, SLOW_ABOVE = 0.4, 1.5


def main() -> int:
    B = construct.build_prime_example()
    rng = np.random.default_rng(20180717)
    candidates = rng.choice(np.arange(B.A.order, B.order), size=CANDIDATES, replace=False)
    pools: dict[str, list] = {"fast": [], "medium": [], "slow": []}
    times = []
    for s in map(int, candidates):
        start = time.perf_counter()
        rec = braces.ideal_closure(B, [s])
        t = time.perf_counter() - start
        if rec.size != B.order:
            raise RuntimeError(f"closure of {s} has size {rec.size}, expected {B.order}")
        times.append(t)
        cls = "fast" if t < FAST_BELOW else "slow" if t > SLOW_ABOVE else "medium"
        pools[cls].append(s)
        print(f"{s:6d} {t:6.3f} s {cls}", flush=True)
    out = {key: sorted(v) for key, v in pools.items()}
    out["class_limits_s"] = [FAST_BELOW, SLOW_ABOVE]
    (HERE / "outside_pools.json").write_text(json.dumps(out, indent=1) + "\n")
    print({key: len(v) for key, v in pools.items()}, "sorted times:", sorted(round(t, 2) for t in times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
