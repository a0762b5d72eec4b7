"""Mutation checks: edits to ``src/`` that named tests must catch.

    python3 tests/mutants.py                 # every mutant, its named tests only
    python3 tests/mutants.py --all           # each mutant against the whole suite
    python3 tests/mutants.py --workdir DIR   # put the mutated copies under DIR

Each entry of ``MUTANTS`` is (file, exact old text, new text, the tests that
must fail), under a name. For each mutant the runner copies the repository
into a temporary directory, replaces the old text there (it must occur
exactly once), runs the named tests with pytest, and reports the mutant
``killed`` when every named test fails and ``survived`` otherwise; a named
test given without parameters fails when any of its cases fails, and a
pytest run that outlasts ``TIMEOUT`` seconds counts as killing. ``--all``
runs the whole suite on each mutant and lists what failed. The exit status
is 1 when a mutant survived.

A guard that a test exists for gets an entry here, so that a refactor that
makes the test vacuous shows up as a survivor (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978). A survivor is reported, never made to
pass by deleting its test. pytest does not collect this file;
``test_mutants.py`` checks only that every old text occurs exactly once.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 900  # seconds per pytest run; the whole suite takes a few minutes


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple


BRACES = "src/bracekit/braces.py"
T = "tests/test_braces.py::"

MUTANTS = {
    # the doubling walk keeps the sums that wrap round into cosets it holds
    "doubling_keeps_held_sums": Mutant(
        BRACES,
        "            cosets = cosets[~self.mask[cosets]]\n",
        "",
        (
            T + "test_doubling_walk_matches_the_closure_by_pairwise_sums",
            T + "test_insert_makes_one_add_call_per_coset",
        ),
    ),
    # conjugation rows of x -> g^-1 x g instead of g x g^-1: same ideals, other tables
    "conjugate_by_the_inverse": Mutant(
        BRACES,
        "tables[2 * i + 1] = left[inv[left[inv]]]",
        "tables[2 * i + 1] = B.mul(B.mul(B.inv(g), every), g)",
        (
            T + "test_ideal_tables_match_kernels",
            T + "test_ideal_tables_take_two_mul_calls_per_generator_and_one_inv",
            T + "test_prime_example_tables_cover_five_generators",
        ),
    ),
    # the semidirect negation leaves B's rows as they are
    "semidirect_neg_skips_B": Mutant(
        BRACES,
        "        self.B._neg_rows(x[d:], None, None, spare[d:])\n",
        "",
        (T + "test_semidirect_add_and_neg_match_the_split_and_join",),
    ),
    # add reduces the s rows once, after the pairing joined them
    "add_skips_second_s_pass": Mutant(
        BRACES,
        "        _reduce_rows(acc[dt:], moduli[dt:], spare[dt:])\n        return acc",
        "        return acc",
        (T + "test_kernels_match_the_references_on_both_sides_of_each_dtype_bound[asym85]",),
    ),
    # pairings contracted in float32 up to 2^26, where float32 sums are no longer exact
    "float32_threshold_2_26": Mutant(
        BRACES,
        "np.float32 if top < 2**24",
        "np.float32 if top < 2**26",
        (T + "test_kernels_match_the_references_on_both_sides_of_each_dtype_bound[pair4098]",),
    ),
    # exhaustive axiom checks keep the verdicts of the generator triples
    "no_n3_rerun": Mutant(
        BRACES,
        "rerun, failure, _ = _check_triples(n, again, mode, trials, seed)",
        "rerun, failure = {}, None",
        (T + "test_table_brace_detects_perturbations",),
    ),
    # compatibility decided on generator triples before (B, +) is shown to be an abelian group
    "compatibility_without_group": Mutant(
        BRACES,
        'if not verdicts[name] or (name == "compatibility" and not group)',
        "if not verdicts[name]",
        (T + "test_compatibility_waits_for_an_abelian_addition",),
    ),
    # the table walk marks index 0 first, although a table need not have an identity
    "table_walk_marks_zero": Mutant(
        BRACES,
        "lambda f, picks: table[f[:, None], picks], None)[0]",
        "lambda f, picks: table[f[:, None], picks], 0)[0]",
        (T + "test_table_walk_marks_no_identity_first",),
    ),
    # check_axioms builds an addition table of its own beside the kept one
    "axioms_build_their_own_addition_table": Mutant(
        BRACES,
        "add_t = _kept_addition_table(B)",
        "add_t = None",
        (
            T + "test_axioms_and_spans_share_one_addition_table",
            T + "test_axiom_tables_built_only_when_no_larger_than_the_triples",
        ),
    ),
    # the action check names the last bad row, not the first
    "non_permutation_rows_descending": Mutant(
        BRACES,
        "(np.sort(table, axis=1) != np.arange(table.shape[1])).any(axis=1))\n",
        "(np.sort(table, axis=1) != np.arange(table.shape[1])).any(axis=1))[::-1]\n",
        (T + "test_semidirect_names_the_first_row_that_is_no_permutation",),
    ),
}

_IGNORED = shutil.ignore_patterns(".git", "results", "__pycache__", ".hypothesis", ".pytest_cache")


def _apply(copy: Path, mutant: Mutant) -> None:
    path = copy / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.file}: the old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def _failures(copy: Path, tests) -> set[str]:
    """Node ids that failed or errored when pytest ran ``tests`` (everything when empty) in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests]
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"<timeout>"}
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, flags=re.MULTILINE))


def _caught(test: str, failed: set[str]) -> bool:
    return "<timeout>" in failed or any(f == test or f.startswith(test + "[") for f in failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true", help="run the whole suite on each mutant")
    parser.add_argument("--workdir", help="directory for the mutated copies (default: a temporary directory)")
    args = parser.parse_args(argv)
    survived = []
    with tempfile.TemporaryDirectory(prefix="bracekit-mutants-", dir=args.workdir) as tmp:
        for name, mutant in MUTANTS.items():
            copy = Path(tmp) / name
            shutil.copytree(ROOT, copy, ignore=_IGNORED)
            _apply(copy, mutant)
            failed = _failures(copy, () if args.all else mutant.tests)
            missed = [t for t in mutant.tests if not _caught(t, failed)]
            verdict = "survived" if missed else "killed"
            print(f"{name}: {verdict}", *(f"  not failed: {t}" for t in missed), sep="\n")
            if args.all:
                print(*(f"  failed: {f}" for f in sorted(failed)), sep="\n")
            if missed:
                survived.append(name)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS)} mutants, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
