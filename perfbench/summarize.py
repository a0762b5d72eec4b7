"""Summarize result files into one JSON document of medians and quartiles.

    python3 perfbench/summarize.py [--out FILE]

Reads every full-length result in ``perfbench/results/`` and groups it by
workload. For each metric it reports the sample count, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median. Untraced runs give the end-to-end
metrics, traced runs the per-layer ones; exact counts are reported with the
seeds they came from, since closure seeds change kernel call counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"n": len(values), "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_frac=(q3 - q1) / med if med > 0 else None)
    return out


def summarize(paths) -> dict:
    runs = defaultdict(lambda: {"seeds": [], "end_to_end": defaultdict(list),
                                "per_layer": defaultdict(list), "counts": defaultdict(dict),
                                "overhead_s": [], "estimated_s": [], "units": {}})
    provenance = None
    for path in sorted(paths):
        data = json.loads(path.read_text())
        prov = data["provenance"]
        if prov["quick"]:
            continue
        provenance = provenance or {k: prov[k] for k in ("git_commit", "src_sha256", "python",
                                                        "numpy", "nproc", "machine", "seconds")}
        w = runs[prov["workload"]]
        w["sizes"] = prov["sizes"]
        if not prov["trace"]:
            w["seeds"].append(prov["seed"])
        for name, m in data["metrics"].items():
            w["units"][name] = m["unit"]
            if m["unit"] == "count":
                w["counts"][name][prov["seed"]] = m["value"]
            elif prov["trace"]:
                if name.endswith(".self_s"):
                    w["per_layer"][name].append(m["value"])
            else:
                w["end_to_end"][name].append(m["value"])
        over = data.get("tracing_overhead", {})
        if over.get("overhead_s") is not None:
            w["overhead_s"].append(over["overhead_s"])
        if "estimated_s" in over:
            w["estimated_s"].append(over["estimated_s"])
    out = {"provenance": provenance, "workloads": {}}
    for name, w in sorted(runs.items()):
        out["workloads"][name] = {
            "sizes": w["sizes"],
            "untraced_seeds": sorted(w["seeds"]),
            "end_to_end": {k: {"unit": w["units"][k], **_stats(v)} for k, v in w["end_to_end"].items()},
            "per_layer_self_s": {k: _stats(v) for k, v in sorted(w["per_layer"].items())},
            "counts_by_seed": {k: v for k, v in sorted(w["counts"].items())},
            "tracing_overhead_s": _stats(w["overhead_s"]) if w["overhead_s"] else None,
            "tracing_estimated_s": _stats(w["estimated_s"]) if w["estimated_s"] else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write here instead of standard output")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(RESULTS.glob("*-trace[01].json")), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
