"""bracekit benchmark: one workload per process, one caller, a closed loop.

    python3 perfbench/run.py --workload prime92160 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program under test is ``src/bracekit`` of
this checkout; nothing is installed. A run times the import in fresh
interpreters and builds the workload's braces several times (set-up), half
of those samples before the passes and half after them. Passes of the
workload run until the next one would end after ``--seconds`` (always at
least one pass). Every result is checked; the first
mismatch ends the run with exit code 1.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs exactly one pass with every public layer wrapped and
reports the per-layer metrics: self times and exact counts. All metrics,
including the workload-specific ones that BENCHMARK.json cannot list for
every workload, are printed one per line before the final JSON line and
written, with provenance, to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
# Set-up samples are taken in two halves, before the passes and after them:
# this host's speed wanders by tens of percent over tens of seconds, and
# samples taken back to back would all see the same moment of it.
IMPORT_SAMPLES = 3  # per half
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import bracekit; "
    "print(time.perf_counter() - t); print(bracekit.__file__)"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["prime92160", "cli_small", "bulk750k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="reduced pass sizes, for the self-test")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="replace the first expected value by a wrong one; the run must fail",
    )
    return parser.parse_args(argv)


def _import_seconds(warm_up: bool) -> list[float]:
    """Import time of bracekit in fresh interpreters; a warm-up one compiles, untimed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for i in range(IMPORT_SAMPLES + warm_up):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, where = proc.stdout.split("\n")[:2]
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"bracekit imported from {where}, not from {SRC}")
        if i or not warm_up:
            samples.append(float(seconds))
    return samples


def _provenance(args, workload, numpy_version) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bracekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "sizes": workload.sizes(),
    }


def _measure(workload, args, oracle, tracer):
    import numpy as np

    rng = np.random.default_rng(args.seed)
    setups, passes = [], []

    def build():
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        return state

    before = workload.extra_setups // 2
    for _ in range(before):
        build()
    loop_start = time.perf_counter()
    while True:
        state = build()
        start = time.perf_counter()
        result = workload.run_pass(state, rng, oracle)
        result["wall_s"] = time.perf_counter() - start
        passes.append(result)
        del state
        elapsed = time.perf_counter() - loop_start
        if tracer is not None or elapsed + result["wall_s"] > args.seconds:
            break
    for _ in range(workload.extra_setups - before):
        build()
    return setups, passes


def _untraced_wall(workload_name: str, seed: int, quick: bool):
    """wall_s of the matching untraced run in this checkout, if there is one."""
    same_seed = f"{workload_name}-seed{seed}-trace0.json"
    candidates = sorted(
        RESULTS.glob(f"{workload_name}-seed*-trace0.json"),
        key=lambda p: (p.name == same_seed, p.stat().st_mtime), reverse=True,
    )
    for path in candidates:
        data = json.loads(path.read_text())
        if data["provenance"]["quick"] == quick:
            return data["metrics"]["wall_s"]["value"], path.name
    return None, None


def _report_mismatch(exc, oracle) -> int:
    print(f"oracle mismatch: {exc}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": oracle.attempted,
                      "failed": oracle.failed, "metrics": {}}))
    return 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bracekit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a bracekit checkout: {SRC / 'bracekit'} or {spec_path} missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    # bracekit does no floating-point linear algebra; starting OpenBLAS's
    # thread pool would only add noisy CPU time to the import and a second thread
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_samples = _import_seconds(warm_up=True)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import bracekit  # noqa: F401  (timed above in fresh interpreters)
    from spans import Tracer, wrapper_cost
    from workloads import WORKLOADS, Oracle, OracleMismatch

    workload = WORKLOADS[args.workload](args.quick)
    oracle = Oracle(corrupt=args.corrupt_oracle)
    tracer = Tracer() if args.trace else None
    RESULTS.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        setups, passes = _measure(workload, args, oracle, tracer)
    except OracleMismatch as exc:
        return _report_mismatch(exc, oracle)
    finally:
        if tracer is not None:
            tracer.uninstall()
    import_samples += _import_seconds(warm_up=False)

    metrics = {
        "setup_s": (statistics.median(import_samples) + statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "ops_failed_frac": (oracle.failed / oracle.attempted, "1"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    metrics.update(workload.summarize(passes))
    record = {
        "provenance": _provenance(args, workload, np.__version__),
        "samples": {"import_s": import_samples, "setup_s": setups, "passes": passes},
    }

    if tracer is None:
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        layer = {f"{name}.self_s": (t, "s") for name, t in tracer.self_times().items()}
        layer.update({name: (n, "count") for name, n in sorted(tracer.counts.items())})
        for name, want in sorted(workload.expected_counts(passes).items()):
            got = tracer.counts.get(name, 0)
            try:
                oracle(f"traced count {name}", got, want)
            except OracleMismatch as exc:
                return _report_mismatch(exc, oracle)
        untraced, source = _untraced_wall(args.workload, args.seed, args.quick)
        record["tracing_overhead"] = {
            "traced_wall_s": metrics["wall_s"][0],
            "untraced_wall_s": untraced,
            "overhead_s": None if untraced is None else metrics["wall_s"][0] - untraced,
            "untraced_result": source,
            "spans": len(tracer.span_start),
            "estimated_s": len(tracer.span_start) * wrapper_cost(),
        }
        tracer.save(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz")
        metrics.update(layer)

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:>16.6g} {unit}")
    if tracer is not None:
        over = record["tracing_overhead"]
        if over["overhead_s"] is None:
            print("tracing overhead: no untraced result of this workload to compare against")
        else:
            print(f"tracing overhead: {over['overhead_s']:+.3f} s on wall_s "
                  f"({over['traced_wall_s']:.3f} traced vs {over['untraced_wall_s']:.3f} untraced, "
                  f"{over['untraced_result']})")
        print(f"tracing cost: {over['spans']} spans, about {over['estimated_s']:.3f} s "
              "at the measured cost of one wrapped call")
    print(f"result file: {RESULTS.relative_to(ROOT) / name}")

    final = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} but BENCHMARK.json says {entry['unit']}")
        final[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": oracle.attempted,
                      "failed": oracle.failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
