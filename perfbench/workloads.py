"""The three benchmark workloads and their oracles.

Each workload is a closed loop driven by one caller: the next call starts
only after the previous one returned and was checked. A pass starts from a
freshly built brace (``setup``), because braces cache their axiom report,
multiplicative generators and alpha matrices, and a reused instance would
make later passes cheaper than what a user pays.

All calls go through module attributes (``braces.ideal_closure``, not a name
imported here), so a traced run sees them through the patched namespaces.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import bracekit.bounds as bounds
import bracekit.braces as braces
import bracekit.cli as cli
import bracekit.construct as construct

HERE = Path(__file__).resolve().parent


class OracleMismatch(Exception):
    """A checked result differs from its expected value."""


class Oracle:
    """Counts checked operations; the first mismatch ends the run.

    With ``corrupt=True`` the first expected value is replaced by one that no
    result can equal, which the self-test uses to show that checks bite.
    """

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0

    def __call__(self, what: str, got, want) -> None:
        self.attempted += 1
        if self.corrupt and self.attempted == 1:
            want = ("corrupted expectation", want)
        if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
            same = isinstance(want, np.ndarray) and np.array_equal(got, want)
        else:
            same = got == want
        if not same:
            self.failed += 1
            raise OracleMismatch(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _median(values) -> float:
    return float(statistics.median(values))


class Prime92160:
    """The ``prime-example`` path on the order-92160 semidirect product.

    Closures and ``_alpha`` take most of the time: mid-size batches with many
    distinct s-keys. The primeness check runs with seed 0, as the acceptance
    test does, so its eight spot closures are the same in every run; the
    closure seeds drawn from ``--seed`` carry the run-to-run variation.
    Outside seeds come from the cost-classed pools of ``outside_pools.json``
    (see ``make_outside_pools.py``): three fast and one slow per pass, about
    the natural mix, so that a pass's time does not hinge on how many slow
    seeds it drew.
    """

    name = "prime92160"
    extra_setups = 2

    def __init__(self, quick: bool):
        self.inside = 1 if quick else 2
        self.outside = {"fast": 1} if quick else {"fast": 3, "slow": 1}
        self.spot_checks = 1 if quick else 8
        self.pools = json.loads((HERE / "outside_pools.json").read_text())

    def sizes(self) -> dict:
        return {
            "order": 92160,
            "inner_order": 18432,
            "closures_inside_per_pass": self.inside,
            "closures_outside_per_pass": self.outside,
            "outside_pool_sizes": {k: len(self.pools[k]) for k in self.outside},
            "prime_spot_checks": self.spot_checks,
            "prime_seed": 0,
            "lattice": "{0, A, B}",
        }

    def setup(self):
        return construct.build_prime_example()

    def run_pass(self, B, rng, check: Oracle) -> dict:
        check("order", (B.order, B.A.order), (92160, 18432))
        inner = np.arange(B.A.order, dtype=np.int64)
        full = np.arange(B.order, dtype=np.int64)
        out = {}
        ok, out["is_ideal_s"] = timed(braces.is_ideal, B, inner)
        check("is_ideal(A)", ok, True)
        star, out["star_span_s"] = timed(braces.star_span, B, inner, inner)
        check("star_span(A, A)", star, inner)

        out["closure_in_s"], out["closure_out_s"] = [], []
        for s in rng.choice(inner[1:], size=self.inside):
            rec, t = timed(braces.ideal_closure, B, [int(s)])
            check(f"closure of {int(s)} inside A", rec.members, inner)
            out["closure_in_s"].append(t)
        outside = [s for cls, k in self.outside.items()
                   for s in rng.choice(self.pools[cls], size=k, replace=False)]
        for s in outside:
            rec, t = timed(braces.ideal_closure, B, [int(s)])
            check(f"closure of {int(s)} outside A", rec.size, B.order)
            out["closure_out_s"].append(t)

        lattice = [np.array([B.zero()], dtype=np.int64), inner, full]
        res, out["prime_check_s"] = timed(
            braces.is_prime_brace, B, lattice, spot_checks=self.spot_checks, seed=0
        )
        check("is_prime_brace over {0, A, B}", res.prime, True)
        return out

    def summarize(self, passes: list[dict]) -> dict:
        inside = [t for p in passes for t in p["closure_in_s"]]
        every = inside + [t for p in passes for t in p["closure_out_s"]]
        return {
            "closure_in_p50_s": (_median(inside), "s"),
            "closures_per_s": (len(every) / sum(every), "1/s"),
            "prime_check_s": (_median(p["prime_check_s"] for p in passes), "s"),
            "is_ideal_s": (_median(p["is_ideal_s"] for p in passes), "s"),
            "star_span_s": (_median(p["star_span_s"] for p in passes), "s"),
        }

    def expected_counts(self, passes: list[dict]) -> dict:
        n = len(passes)
        # is_prime_brace re-checks the 3 lattice entries and spans the 2x2 nonzero pairs
        return {
            "construct.build_prime_example.calls": self.extra_setups + n,
            "braces.is_ideal.calls": n * 4,
            "braces.star_span.calls": n * 5,
            "braces.is_prime_brace.calls": n,
            "braces.ideal_closure.calls": n * (self.inside + sum(self.outside.values()) + self.spot_checks),
        }


class CliSmall:
    """``bracekit.cli.run`` in-process on the shipped 72- and 216-element specs.

    Carriers are tiny: per-call overhead, exhaustive 72^3 axiom and braid
    checks, group analysis and the witness search take the time, and large
    closures take almost none. Each call's exit code and a digest of its
    ``--out`` file are checked against ``cli_small_oracle.json``.
    """

    name = "cli_small"
    extra_setups = 0
    SUBCOMMANDS = ("build", "verify", "analyze", "export", "bounds", "witness")

    def __init__(self, quick: bool):
        calls = json.loads((HERE / "cli_small_oracle.json").read_text())
        if quick:  # cf72 only, and no exhaustive dim-3 witness search
            calls = [
                c for c in calls
                if not {"{specs}/mf72.json", "{specs}/ns216.json"} & set(c["argv"])
                and c["argv"] != ["witness", "--p", "3", "--p1", "7", "--dim", "3"]
            ]
        self.calls = calls

    def sizes(self) -> dict:
        return {"calls_per_pass": len(self.calls), "specs": ["cf72", "mf72", "ns216"]}

    def setup(self):
        return None

    def run_pass(self, _state, rng, check: Oracle) -> dict:
        with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
            return self._calls(rng, check, Path(tmp) / "out")

    def _calls(self, rng, check: Oracle, out_file: Path) -> dict:
        out = {f"cli_{sub}_s": 0.0 for sub in self.SUBCOMMANDS}
        for i in rng.permutation(len(self.calls)):
            call = self.calls[int(i)]
            argv = [a.replace("{specs}", str(HERE / "specs")) for a in call["argv"]]
            if argv[0] in ("verify", "export"):
                argv += ["--seed", str(int(rng.integers(0, 2**31)))]
            argv += ["--out", str(out_file)]
            out_file.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code, t = timed(cli.run, argv)
            out[f"cli_{argv[0]}_s"] += t
            digest = (
                hashlib.sha256(out_file.read_bytes()).hexdigest() if out_file.exists() else None
            )
            check(" ".join(call["argv"]), (code, digest), (call["exit"], call["sha256"]))
        return out

    def summarize(self, passes: list[dict]) -> dict:
        return {
            f"cli_{sub}_s": (_median(p[f"cli_{sub}_s"] for p in passes), "s")
            for sub in self.SUBCOMMANDS
        }

    def expected_counts(self, passes: list[dict]) -> dict:
        counts = {}
        for call in self.calls:
            key = f"cli.run.{call['argv'][0]}.calls"
            counts[key] = counts.get(key, 0) + len(passes)
        per_sub = {sub: counts.get(f"cli.run.{sub}.calls", 0) for sub in self.SUBCOMMANDS}
        counts["braces.is_simple.calls"] = per_sub["verify"]
        counts["braces.check_axioms.calls"] = per_sub["verify"] + per_sub["export"]
        counts["ybe.export_solution.calls"] = per_sub["export"]
        counts["groupinfo.group_report.calls"] = per_sub["analyze"]
        counts["bounds.find_orthogonal_element.calls"] = per_sub["witness"]
        return counts


class Bulk750k:
    """The order-750141 brace (3^7 * 7^3) built from ``witness_block`` output.

    Kernel and codec throughput on huge arrays with few distinct s-keys and no
    closures. Applying all ten multiplicative generators to the whole carrier
    through add, mul and lam would take about a minute here, so each pass
    applies every generator to a seeded sample of one eighth of the carrier;
    inversion and the codec round trip cover the whole carrier.
    """

    name = "bulk750k"
    extra_setups = 4
    ORDER = 3**7 * 7**3

    def __init__(self, quick: bool):
        self.trials = 10_000 if quick else 100_000
        self.sample = self.ORDER // (64 if quick else 8)

    def sizes(self) -> dict:
        return {
            "order": self.ORDER,
            "axiom_trials": self.trials,
            "generator_sample_per_pass": self.sample,
        }

    def setup(self):
        block1 = bounds.witness_block(bounds.find_orthogonal_element(3, 7, 6))
        block2 = bounds.witness_block(bounds.find_orthogonal_element(7, 3, 2))
        return construct.build_family(construct.parse_spec({"blocks": [block1, block2]}))

    def run_pass(self, B, rng, check: Oracle) -> dict:
        check("order", B.order, self.ORDER)
        out = {"kernel_elems": 0, "kernel_s": 0.0}

        def kernel(fn, *args):
            result, t = timed(fn, *args)
            out["kernel_elems"] += int(np.size(result))
            out["kernel_s"] += t
            return result

        report, out["axioms_s"] = timed(
            braces.check_axioms, B, mode="sampled", trials=self.trials,
            seed=int(rng.integers(0, 2**31)),
        )
        check("sampled axioms", (report.ok, report.trials), (True, self.trials))

        xs = rng.choice(B.order, size=self.sample, replace=False)
        gens = B.multiplicative_generators()
        out["generators"] = int(gens.size)
        for g in map(int, gens):
            for op in ("add", "mul", "lam"):
                ys = kernel(getattr(B, op), g, xs)
                # left translations and lambda maps are bijections of the carrier
                check(f"{op}({g}, sample) injective", np.unique(ys).size, xs.size)

        every = B.elements()
        prod = kernel(B.mul, every, kernel(B.inv, every))
        check("x * x^-1 == 0 on the carrier", prod, np.full(B.order, B.zero(), dtype=np.int64))

        start = time.perf_counter()
        back = B.codec.encode(B.codec.decode(every))
        out["codec_s"] = time.perf_counter() - start
        check("codec round trip", back, every)
        return out

    def summarize(self, passes: list[dict]) -> dict:
        return {
            "axioms_s": (_median(p["axioms_s"] for p in passes), "s"),
            "carrier_elems_per_s": (
                sum(p["kernel_elems"] for p in passes) / sum(p["kernel_s"] for p in passes),
                "1/s",
            ),
            "codec_s": (_median(p["codec_s"] for p in passes), "s"),
        }

    def expected_counts(self, passes: list[dict]) -> dict:
        builds = self.extra_setups + len(passes)
        return {
            "construct.build_family.calls": builds,
            "bounds.find_orthogonal_element.calls": 2 * builds,
            "braces.check_axioms.calls": len(passes),
            "braces.check_axioms.triples": len(passes) * self.trials,
            "braces.lam.calls": sum(p["generators"] for p in passes),
        }


WORKLOADS = {w.name: w for w in (Prime92160, CliSmall, Bulk750k)}
