"""Command-line behavior: exit codes, deterministic output, file round-trips.

The prime-example subcommand runs here as the CLI runs it, with no flags; the
acceptance suite cross-checks its lattice with its own seeded closures.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bracekit.cli import _build_parser, run
from bracekit.ybe import SolutionTable, _render, import_solution

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "demos" / "specs"
CF72 = str(SPECS / "cf72.json")
NS216 = str(SPECS / "ns216.json")
MF72 = str(SPECS / "mf72.json")


def test_build_reports_shape(capsys):
    assert run(["build", "--spec", CF72, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 72
    assert out["kind"] == "cycle"
    assert out["moduli"] == [2, 2, 2, 3, 3]
    assert out["predicted_simple"] is True


def test_build_matrix_kind(capsys):
    assert run(["build", "--spec", MF72, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "matrix"


def test_verify_simple_expectation(capsys):
    assert run(["verify", "--spec", CF72, "--expect-simple", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["axioms_ok"] is True
    assert out["simple"] is True
    assert out["ideal_lattice_sizes"] == [1, 72]


def test_verify_nonsimple_exits_one(capsys):
    assert run(["verify", "--spec", NS216, "--expect-simple", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["simple"] is False
    assert out["witness_size"] == 72
    assert out["certificate_inside_witness"] is True


def test_verify_without_expectation_reports_and_succeeds(capsys):
    assert run(["verify", "--spec", NS216, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["simple"] is False


def test_invalid_spec_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"blocks": [
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
    ]}))
    assert run(["verify", "--spec", str(bad)]) == 2
    assert "pairwise distinct" in capsys.readouterr().err


def test_schema_error_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert run(["build", "--spec", str(empty)]) == 2
    missing = tmp_path / "nope.json"
    assert run(["build", "--spec", str(missing)]) == 2


def test_bad_flags_exit_two(capsys):
    assert run(["verify"]) == 2  # --spec is required
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--spec", CF72, "--seed", "1"],
        ["build", "--spec", CF72, "--budget", "5"],
        ["analyze", "--spec", CF72, "--seed", "1"],
        ["export", "--spec", CF72, "--budget", "5"],
        ["export", "--spec", CF72, "--json"],
        ["witness", "--p", "2", "--p1", "3", "--json"],
        ["prime-example", "--full"],
        ["prime-example", "--samples", "0"],
        ["prime-example", "--samples", "-1", "--json"],
        ["prime-example", "--seed", "1"],
        ["export", "--spec", NS216, "--samples", "0"],
        ["verify", "--spec", CF72, "--budget", "0"],
        ["analyze", "--spec", CF72, "--budget", "5"],
        ["prime-example", "--budget", "5"],
    ],
)
def test_flags_no_handler_reads_exit_two(argv, capsys):
    assert run(argv) == 2


def test_analyze(capsys):
    assert run(["analyze", "--spec", CF72, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["derived_size"] == 12
    assert out["is_metabelian"] is True
    assert out["is_A_group"] is True
    assert out["is_abelian"] is False
    assert out["sylow_sizes"] == [[2, 8], [3, 9]]


def test_bounds_text_format(capsys):
    assert run(["bounds", "--primes", "3,7"]) == 0
    text = capsys.readouterr().out
    assert "k = (6, 1)" in text
    assert "l = (42, 18)" in text
    assert "minimal_dim = (6, 2)" in text


def test_bounds_json(capsys):
    assert run(["bounds", "--primes", "2,3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == [2, 1]
    assert out["l"] == [6, 4]


def test_parser_is_built_once_and_reused(capsys):
    # an invalid flag between two identical calls leaves the shared parser as it was
    assert _build_parser() is _build_parser()
    assert run(["bounds", "--primes", "3,7", "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["bounds", "--primes", "3,7", "--frobnicate"]) == 2
    assert capsys.readouterr().out == ""
    assert run(["bounds", "--primes", "3,7", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_bounds_duplicate_primes_exit_two(capsys):
    assert run(["bounds", "--primes", "5,5"]) == 2


def test_witness_emits_spec_block(capsys):
    assert run(["witness", "--p", "2", "--p1", "3"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block == {
        "p": 2,
        "gram": [[0, 1], [1, 0]],
        "f": [[0, 1], [1, 1]],
        "m": 1,
        "r": 1,
    }


def test_witness_over_a_large_prime(capsys):
    # f = -1 preserves [[1]]; checking that multiplies cells of about 10^12
    assert run(["witness", "--p", "1000000000039", "--p1", "2"]) == 0
    block = json.loads(capsys.readouterr().out)
    assert block == {"p": 1000000000039, "gram": [[1]], "f": [[1000000000038]], "m": 1, "r": 1}


def _run_in_subprocess(*argv):
    """``bracekit argv`` in a fresh interpreter, so a hang fails the test after 30 s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "from bracekit.cli import main; main()"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=30
    )


def test_bounds_over_a_large_prime():
    # the order of 3 mod 10^12 + 39 was once found by one product per unit of it
    proc = _run_in_subprocess("bounds", "--primes", "3,1000000000039", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["k"] == [1000000000038, 1]


@pytest.mark.parametrize("p, p1", [(1000000000039, 3), (3, 1000000000039)])
def test_witness_over_a_large_prime_ends_with_its_budget_error(p, p1):
    # no degree-k divisor among the first 10^6 candidates: for k = 1 every
    # x + c with c < 10^6 misses, for k = p1 - 1 every candidate has c_0 = 0
    proc = _run_in_subprocess("witness", "--p", str(p), "--p1", str(p1))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.endswith("among the first 1000000 candidates\n")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "f0, p1, failures",
    [
        # f = diag(2, 2^-1) has order dividing p - 1, far from the next prime
        (
            [[2, 0], [0, 500000000020]],
            1000000000000000009,
            [
                "blocks[0].f: order does not divide the preceding prime 1000000000000000009",
                "blocks[1].f: order 1, expected the preceding prime 1000000000039",
            ],
        ),
        # 2^((p - 1)/26005097) has the prime order 26005097, which divides p - 1
        (
            [[pow(2, 38454, 1000000000039), 0], [0, pow(2, -38454, 1000000000039)]],
            26005097,
            ["blocks[1].f: order 1, expected the preceding prime 1000000000039"],
        ),
    ],
)
def test_build_checks_map_orders_over_large_primes(tmp_path, f0, p1, failures):
    spec = {"blocks": [
        {"p": 1000000000039, "gram": [[0, 1], [1, 0]], "f": f0, "m": 1, "r": 1},
        {"p": p1, "gram": [[1]], "f": [[1]], "m": 1, "r": 1},
    ]}
    (tmp_path / "large.json").write_text(json.dumps(spec))
    proc = _run_in_subprocess("build", "--spec", str(tmp_path / "large.json"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"invalid spec: {line}" for line in failures]


def test_modulus_from_2_62_is_refused(tmp_path):
    # 2^63 - 25 is prime, but sums of int64 entries wrap there
    proc = _run_in_subprocess("bounds", "--primes", "3,9223372036854775783")
    assert proc.returncode == 2
    assert "not below 2^62" in proc.stderr
    spec = {"blocks": [
        {"p": 9223372036854775783, "gram": [[1]], "f": [[1]], "m": 1, "r": 1},
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
    ]}
    (tmp_path / "wide.json").write_text(json.dumps(spec))
    proc = _run_in_subprocess("build", "--spec", str(tmp_path / "wide.json"))
    assert proc.returncode == 2
    assert "not below 2^62" in proc.stderr


@pytest.mark.parametrize("field", ["gram", "f"])
def test_build_rejects_entries_beyond_int64(tmp_path, capsys, field):
    spec = {"blocks": [
        {"p": 2, "gram": [[1]], "f": [[1]], "m": 1, "r": 1},
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
    ]}
    spec["blocks"][0][field] = [[10**29]]
    (tmp_path / "wide.json").write_text(json.dumps(spec))
    assert run(["build", "--spec", str(tmp_path / "wide.json")]) == 2
    assert f"blocks[0].{field}: entries must fit" in capsys.readouterr().err


def test_witness_no_witness_exits_one(capsys):
    assert run(["witness", "--p", "2", "--p1", "3", "--dim", "1"]) == 1
    assert "verification failed" in capsys.readouterr().err


def test_witness_budget_exits_one(capsys):
    assert run(["witness", "--p", "3", "--p1", "7", "--dim", "4"]) == 1


def test_witness_budget_below_one_exits_two(capsys):
    assert run(["witness", "--p", "2", "--p1", "3", "--budget", "0"]) == 2
    assert "budgets must be positive" in capsys.readouterr().err


def test_export_writes_ybe_file(tmp_path):
    out = tmp_path / "cf72.ybe"
    assert run(["export", "--spec", CF72, "--out", str(out)]) == 0
    table = import_solution(out)
    assert table.size == 72
    # identical inputs give byte-identical output
    out2 = tmp_path / "again.ybe"
    assert run(["export", "--spec", CF72, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
    assert out.read_bytes().startswith(b"YBE v1 N=72\n")


# SHA-256 of each spec's export, as perfbench/cli_small_oracle.json pins them
EXPORT_SHA256 = {
    "cf72": "bb0953e6818ad1c3582b5d6114614daa686da21e90607748ae911a0f9dbd0b95",
    "mf72": "bb0953e6818ad1c3582b5d6114614daa686da21e90607748ae911a0f9dbd0b95",
    "ns216": "110a252cfe454d72a4e91f1d5ee47c75c3913b9454db654d93f50e60ba4caefc",
}


def _render_each_value(table):
    lines = [f"YBE v1 N={table.size}"]
    lines.extend(" ".join(str(int(v)) for v in row) for row in table.sigma)
    lines.append("")
    lines.extend(" ".join(str(int(v)) for v in row) for row in table.gamma)
    return ("\n".join(lines) + "\n").encode("ascii")


def test_export_bytes_are_pinned(tmp_path):
    for name, digest in EXPORT_SHA256.items():
        out = tmp_path / f"{name}.ybe"
        assert run(["export", "--spec", str(SPECS / f"{name}.json"), "--out", str(out)]) == 0
        payload = out.read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest, name
        table = import_solution(payload)
        assert _render(table) == _render_each_value(table) == payload
    one = SolutionTable(sigma=np.zeros((1, 1), dtype=int), gamma=np.zeros((1, 1), dtype=int))
    assert _render(one) == _render_each_value(one) == b"YBE v1 N=1\n0\n\n0\n"


def test_export_to_stdout(capsysbinary):
    assert run(["export", "--spec", CF72]) == 0
    payload = capsysbinary.readouterr().out
    assert payload.startswith(b"YBE v1 N=72\n")


def test_out_flag_writes_reports(tmp_path):
    dest = tmp_path / "report.json"
    assert run(["build", "--spec", CF72, "--json", "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["order"] == 72


def test_prime_example(capsys):
    code = run(["prime-example", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["order"] == 92160
    assert out["simple"] is False
    assert out["prime"] is True
    assert out["checks"]["inner_is_ideal"] is True
    assert out["checks"]["inner_star_reproduces"] is True
    assert out["checks"]["lattice_size"] == 3
    assert sorted(out["checks"]) == [
        "inner_is_ideal", "inner_star_reproduces", "lattice_size", "order", "prime"
    ]
