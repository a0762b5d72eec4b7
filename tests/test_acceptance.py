"""Acceptance gate: the nine headline criteria, plus the simplicity of AC9's
brace, one test and one line each.

Every test asserts its exact expected values and its stated wall-clock limit,
then prints a single PASS line (visible with -s or -rA).  Nothing here is
sampled where the criterion demands exhaustiveness; sampled checks state
their seed and sample count.
"""

import time

import numpy as np
import pytest

from bracekit.braces import (
    IdealRecord,
    check_axioms,
    ideal_closure,
    is_ideal,
    is_left_ideal,
    is_prime_brace,
    is_simple,
    list_ideals,
    star_span,
    tabulate,
)
from bracekit.bounds import (
    divides_orthogonal_order,
    exponent_lower_bounds,
    find_orthogonal_element,
    minimal_witness_dimension,
    nu,
    orthogonal_group_order,
    witness_block,
)
from bracekit.construct import (
    build_family,
    build_prime_example,
    nonsimple_witness,
    parse_spec,
    solve_exponents,
)
from bracekit.errors import BudgetExceededError, NoWitnessError
from bracekit.groupinfo import (
    _additive_multiple,
    _pairwise_commuting,
    group_report,
    is_A_group,
    sylow_left_ideals,
)
from bracekit.modular import unit_order
from bracekit.ybe import check_solution, solution_from_brace

CF72_DICT = {
    "blocks": [
        {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 1, "r": 1},
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
    ]
}

NS216_DICT = {
    "blocks": [
        {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 1, "r": 1},
        {"p": 3, "gram": [[1, 0], [0, 1]], "f": [[2, 0], [0, 1]], "m": 1, "r": 1},
    ]
}

MF72_DICT = {
    "blocks": [
        {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "r": 1},
        {"p": 3, "gram": [[1]], "f": [[2]], "r": 1},
    ]
}


@pytest.fixture(scope="module")
def cf72():
    return build_family(parse_spec(CF72_DICT))


@pytest.fixture(scope="module")
def ns216():
    return build_family(parse_spec(NS216_DICT))


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(name: str, clock: _Clock, detail: str) -> None:
    print(f"{name} PASS ({clock.elapsed:.2f}s): {detail}")


def test_ac1_cf72_build_axioms_simple(cf72):
    with _Clock() as clock:
        assert cf72.order == 72
        axioms = check_axioms(cf72, mode="exhaustive")
        assert axioms.ok
        assert axioms.mode == "exhaustive"
        result = is_simple(cf72)
        assert result.simple
        assert result.closures_run == 71
    assert clock.elapsed < 10.0
    _report("AC1", clock, "order 72, exhaustive axioms through generator triples, simple with 71/71 full closures")


def test_ac2_ns216_witness_and_certificate(ns216):
    with _Clock() as clock:
        assert ns216.order == 216
        witness = nonsimple_witness(ns216)
        assert witness.size == 72
        assert is_ideal(ns216, witness.members)
        result = is_simple(ns216)
        assert not result.simple
        assert witness.contains(result.certificate.members)
    assert clock.elapsed < 30.0
    _report("AC2", clock, "order 216, |J| = 72, J is an ideal, non-simple with certificate inside J")


def test_ac3_matrix_family_rank_one(cf72):
    with _Clock() as clock:
        mf = build_family(parse_spec(MF72_DICT))
        assert mf.order == 72
        assert is_simple(mf).simple
        add_c, mul_c = tabulate(cf72)
        add_m, mul_m = tabulate(mf)
        assert np.array_equal(add_c, add_m) and np.array_equal(mul_c, mul_m)
    assert clock.elapsed < 10.0
    _report("AC3", clock, "matrix family at r = (1, 1) has order 72, is simple, tables equal the cycle build")


def _sylow_decomposition_is_direct(B):
    records = sylow_left_ideals(B)
    sizes = [rec.size for rec in records]
    assert int(np.prod(sizes)) == B.order
    coeffs = []
    for rec in records:
        rest = B.order // rec.size
        coeffs.append(rest * pow(rest, -1, rec.size))
    xs = B.elements()
    total = np.full(B.order, B.zero(), dtype=np.int64)
    for rec, c in zip(records, coeffs):
        part = _additive_multiple(B, c, xs)
        assert rec.contains(part)
        total = B.add(total, part)
    assert np.array_equal(total, xs)
    return records


def test_ac4_block_structure_suite(cf72, ns216):
    with _Clock() as clock:
        for B, sizes in ((cf72, [8, 9]), (ns216, [8, 27])):
            records = _sylow_decomposition_is_direct(B)
            assert [rec.size for rec in records] == sizes
            for rec in records:
                assert is_left_ideal(B, rec.members)
                assert _pairwise_commuting(B, rec.members)
            report = group_report(B)
            assert report.is_abelian is False
            assert report.is_metabelian is True
            assert report.is_A_group is True
    assert clock.elapsed < 10.0
    _report("AC4", clock, "Sylow blocks are abelian left ideals, additive decomposition unique, metabelian non-abelian A-groups")


def test_ac5_ybe_suite(cf72):
    with _Clock() as clock:
        check_axioms(cf72, mode="exhaustive")
        table = solution_from_brace(cf72)
        report = check_solution(table)
        assert report.ok
        assert report.involutive and report.nondegenerate and report.braid
        assert report.braid_mode == "exhaustive"
        assert report.braid_checked == 72**3
    assert clock.elapsed < 60.0
    _report("AC5", clock, "72x72 solution involutive, non-degenerate (144 bijections), braid over 72^3 triples")


def test_ac6_bounds_suite():
    with _Clock() as clock:
        assert nu(1) == 2 and nu(2) == 1 and nu(6) == 1
        assert unit_order(3, 7) == 6
        assert unit_order(7, 3) == 1
        assert exponent_lower_bounds((3, 7)).l == (42, 18)
        cells = 0
        for p1 in (3, 5, 7, 11, 13, 17, 19):
            for p in (2, 3, 5, 7):
                if p == p1:
                    continue
                kinds = (
                    ("GO_odd", "GO_plus", "GO_minus") if p % 2 else ("Sp2", "O_odd2", "O_even2")
                )
                for kind in kinds:
                    for m in range(1, 5):
                        predicted = divides_orthogonal_order(p1, p, kind, m)
                        literal = orthogonal_group_order(kind, m, p) % p1 == 0
                        assert predicted == literal, (p1, p, kind, m)
                        cells += 1
        assert cells == 300
    assert clock.elapsed < 10.0
    _report("AC6", clock, "nu table, unit orders, l = (42, 18), 300/300 divisibility cells agree with literal division")


def test_ac7_minimal_dimension_witnesses():
    with _Clock() as clock:
        # budget-feasible cells: witness at the minimal dimension, NoWitness below
        for p, p1 in [(2, 3), (3, 2), (5, 2), (7, 2), (2, 5)]:
            d = minimal_witness_dimension(p, p1)
            w = find_orthogonal_element(p, p1, d)
            assert w.order == p1 and w.dim == d
            for below in range(1, d):
                with pytest.raises(NoWitnessError):
                    find_orthogonal_element(p, p1, below)
        # (3, 7): constructive witness at dim 6; dims 1-3 searched exhaustively,
        # dims 4 and 5 are over budget (3^16 and 3^25 matrices) and skipped
        w = find_orthogonal_element(3, 7, 6)
        assert w.order == 7 and w.dim == 6
        for below in (1, 2, 3):
            with pytest.raises(NoWitnessError):
                find_orthogonal_element(3, 7, below)
        for skipped in (4, 5):
            with pytest.raises(BudgetExceededError):
                find_orthogonal_element(3, 7, skipped)
        # (7, 3): constructive witness at dim 2; the single sub-dimension is feasible
        w = find_orthogonal_element(7, 3, 2)
        assert w.order == 3 and w.dim == 2
        with pytest.raises(NoWitnessError):
            find_orthogonal_element(7, 3, 1)
    assert clock.elapsed < 300.0
    _report("AC7", clock, "witnesses at minimal dims for (2,3),(3,2),(5,2),(7,2),(2,5),(3,7),(7,3); NoWitness below where budget-feasible; (3,7) dims 4-5 documented as over budget")


def test_ac8_prime_nonsimple_product():
    with _Clock() as clock:
        B = build_prime_example()
        assert B.order == 92160
        inner = np.arange(B.A.order, dtype=np.int64)
        assert inner.size == 18432
        assert is_ideal(B, inner)
        star = star_span(B, inner, inner)
        assert np.array_equal(star, inner) and star.size > 1

        rng = np.random.default_rng(0)
        inside = rng.choice(inner[1:], size=200, replace=True)
        for s in inside:
            assert np.array_equal(ideal_closure(B, [int(s)]).members, inner)
        outside = rng.choice(np.arange(B.A.order, B.order, dtype=np.int64), size=200, replace=True)
        for s in outside:
            assert ideal_closure(B, [int(s)]).size == B.order

        lattice = [IdealRecord.from_members(B, m) for m in ([0], inner, B.elements())]
        prime = is_prime_brace(B, lattice, seed=0)
        assert prime.prime
    assert clock.elapsed < 600.0
    _report("AC8", clock, "order 92160, inner factor is a proper ideal with I*I = I != 0 (so non-simple), 200+200 sampled closures behave, prime over the verified lattice {0, A, B}")


def test_ac9_smallest_family_constructibility():
    with _Clock() as clock:
        assert solve_exponents((6, 2), (7, 3)) == ((1, 1), (1, 1))
        block1 = witness_block(find_orthogonal_element(3, 7, 6))
        block2 = witness_block(find_orthogonal_element(7, 3, 2))
        B = build_family(parse_spec({"blocks": [block1, block2]}))
        assert B.order == 3**7 * 7**3 == 750141
        report = check_axioms(B, mode="sampled", trials=100_000, seed=0)
        assert report.ok
        assert report.trials == 100_000
    assert clock.elapsed < 300.0
    _report("AC9", clock, "exponents (m, r) = ((1, 1), (1, 1)) solve dims (6, 2) at targets (7, 3); the order-750141 brace builds and passes 10^5 sampled axiom triples (seed 0)")


def test_ac9_brace_is_simple_a_group():
    # one closure per orbit of the ideal maps: every ideal is a join of these
    with _Clock() as clock:
        block1 = witness_block(find_orthogonal_element(3, 7, 6))
        block2 = witness_block(find_orthogonal_element(7, 3, 2))
        B = build_family(parse_spec({"blocks": [block1, block2]}))
        assert B.order == 750141
        assert [r.size for r in list_ideals(B)] == [1, 750141]
        assert is_A_group(B)
    assert clock.elapsed < 120.0
    _report("AC9 simple", clock, "the order-750141 brace has ideal lattice {0, B} (exhaustive through orbits) and abelian Sylow subgroups")
