"""Self-test of the benchmark at reduced length (about three minutes).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --quick`` untraced and traced and checks
that the final line has exactly the keys correct, attempted, failed and
metrics, that every metric BENCHMARK.json names is there with its unit, and
that every metric named for that workload is printed with its unit. It then checks that a wrong expected value makes
each workload's oracle fail, and that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMON = {"setup_s": "s", "wall_s": "s", "ops_failed_frac": "1", "peak_rss_mib": "MiB"}
END_TO_END = {
    "prime92160": {"closure_in_p50_s": "s", "closures_per_s": "1/s", "prime_check_s": "s"},
    "cli_small": {"cli_verify_s": "s", "cli_export_s": "s", "cli_analyze_s": "s", "cli_witness_s": "s"},
    "bulk750k": {"axioms_s": "s", "carrier_elems_per_s": "1/s"},
}
KERNELS = [f"braces.{k}.{m}" for k in ("add", "neg", "mul", "inv", "lam") for m in ("calls", "elems", "self_s")]
PER_LAYER = {
    "prime92160": KERNELS + [
        "braces.ideal_closure.calls", "braces.ideal_closure.members_out", "braces.ideal_closure.self_s",
        "braces.is_ideal.self_s", "braces.is_left_ideal.self_s", "braces.star_span.self_s",
        "braces.is_prime_brace.self_s", "construct.build_prime_example.self_s",
    ],
    "cli_small": KERNELS + [
        "braces.is_simple.closures_run", "braces.is_simple.self_s",
        "braces.check_axioms.triples", "braces.check_axioms.self_s",
        "construct.load_spec.self_s", "construct.validate_spec.self_s",
        "construct.build_family.self_s", "construct.nonsimple_witness.self_s",
        "groupinfo.group_report.self_s", "groupinfo.derived_subgroup.self_s",
        "bounds.find_orthogonal_element.calls", "bounds.find_orthogonal_element.self_s",
        "bounds.exponent_lower_bounds.calls", "bounds.exponent_lower_bounds.self_s",
        "ybe.solution_from_brace.self_s", "ybe.check_solution.self_s",
        "ybe.check_solution.braid_triples", "ybe.export_solution.self_s", "ybe.export_solution.bytes",
        "cli.run.build.self_s", "cli.run.verify.self_s", "cli.run.analyze.self_s",
        "cli.run.export.self_s", "cli.run.bounds.self_s", "cli.run.witness.self_s",
    ],
    "bulk750k": KERNELS + [
        "braces.codec.decode.self_s", "braces.codec.encode.self_s",
        "braces.check_axioms.triples", "braces.check_axioms.self_s",
        "construct.build_family.self_s", "bounds.find_orthogonal_element.self_s",
    ],
}


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _printed(stdout: str) -> dict:
    """name -> unit of every metric line printed before the final line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


def _check_run(workload: str, trace: int, spec: dict, failures: list) -> None:
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--quick"])
    tag = f"{workload} trace={trace}"
    before = len(failures)
    if proc.returncode != 0:
        failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    final = json.loads(proc.stdout.splitlines()[-1])
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{tag}: final keys {sorted(final)}")
    if final["correct"] is not True or final["failed"] != 0 or final["attempted"] < 1:
        failures.append(f"{tag}: not correct: {final}")
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in final["metrics"].items()}
    if got != want:
        failures.append(f"{tag}: final metrics {got} != BENCHMARK.json {want}")
    for name, value in final["metrics"].items():
        if not isinstance(value["value"], (int, float)) or value["value"] == 0:
            failures.append(f"{tag}: {name} = {value['value']!r}")
    printed = _printed(proc.stdout)
    named = PER_LAYER[workload] if trace else {**COMMON, **END_TO_END[workload]}
    for name in named:
        unit = named[name] if isinstance(named, dict) else ("s" if name.endswith("_s") else "count")
        if printed.get(name) != unit:
            failures.append(f"{tag}: {name} printed with unit {printed.get(name)!r}, want {unit!r}")
    if trace and "tracing overhead" not in proc.stdout:
        failures.append(f"{tag}: no tracing overhead line")
    print(f"{'ok ' if len(failures) == before else 'BAD'} {tag}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in END_TO_END:
        for trace in (0, 1):
            _check_run(workload, trace, spec, failures)
        proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--quick", "--corrupt-oracle"])
        final = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode == 0 or final.get("correct") is not False or final.get("failed") != 1:
            failures.append(f"{workload}: a wrong expected value did not fail the run: {final}")
        else:
            print(f"ok  {workload} wrong expectation fails", flush=True)

    (ROOT / "perfbench" / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / "results") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = _run(["--workload", "cli_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    cwd=bare, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print("ok  bare directory refused", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
