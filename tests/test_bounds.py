"""Orthogonal group orders, divisibility rules, witness dimensions and search.

The divisibility predicate is dual-routed: every grid cell is compared with
literal divisibility of the exact group order integer.
"""

import itertools
import time

import numpy as np
import pytest

from bracekit.bounds import (
    KINDS,
    BoundsReport,
    divides_orthogonal_order,
    exponent_lower_bounds,
    find_orthogonal_element,
    minimal_witness_dimension,
    nu,
    orthogonal_group_order,
    witness_block,
)
from bracekit.bounds import _divides_cyclotomic, _lex_first_factor, _order_p1_candidates
from bracekit.construct import build_family, parse_spec
from bracekit.errors import (
    BudgetExceededError,
    ConditionViolationError,
    KindPrimeMismatchError,
    NoWitnessError,
)
from bracekit.modular import (
    ResidueMatrix,
    companion_cyclotomic,
    hyperbolic_witness,
    is_orthogonal,
    minus_id_bijective,
)


def test_nu_values():
    assert nu(6) == 1
    assert nu(1) == 2
    assert nu(2) == 1
    assert nu(7) == 2
    with pytest.raises(ValueError):
        nu(0)


def test_order_formulas_frozen():
    assert orthogonal_group_order("GO_odd", 1, 3) == 48
    assert orthogonal_group_order("GO_plus", 1, 3) == 4
    assert orthogonal_group_order("GO_minus", 1, 3) == 8
    assert orthogonal_group_order("Sp2", 1, 2) == 6
    assert orthogonal_group_order("Sp2", 2, 2) == 720  # the symmetric group S6
    assert orthogonal_group_order("O_odd2", 1, 2) == 6
    assert orthogonal_group_order("O_even2", 1, 2) == 2
    assert orthogonal_group_order("O_even2", 2, 2) == 48


def test_order_formula_kind_guards():
    with pytest.raises(KindPrimeMismatchError):
        orthogonal_group_order("GO_odd", 1, 2)
    with pytest.raises(KindPrimeMismatchError):
        orthogonal_group_order("Sp2", 1, 3)
    with pytest.raises(ValueError):
        orthogonal_group_order("GO_wat", 1, 3)
    with pytest.raises(ValueError):
        orthogonal_group_order("GO_odd", 0, 3)


def test_divisibility_rules_match_literal_division():
    total = 0
    for p1 in (3, 5, 7, 11, 13, 17, 19):
        for p in (2, 3, 5, 7):
            if p == p1:
                continue
            kinds = ("GO_odd", "GO_plus", "GO_minus") if p % 2 else ("Sp2", "O_odd2", "O_even2")
            for kind in kinds:
                for m in range(1, 5):
                    predicted = divides_orthogonal_order(p1, p, kind, m)
                    literal = orthogonal_group_order(kind, m, p) % p1 == 0
                    assert predicted == literal, (p1, p, kind, m)
                    total += 1
    assert total == 300


def test_divisibility_guards():
    with pytest.raises(ValueError):
        divides_orthogonal_order(2, 3, "GO_odd", 1)
    with pytest.raises(ValueError):
        divides_orthogonal_order(3, 3, "GO_odd", 1)
    with pytest.raises(KindPrimeMismatchError):
        divides_orthogonal_order(3, 2, "GO_odd", 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: companion_cyclotomic(3, 3),
        lambda: hyperbolic_witness(3, 3),
        lambda: minimal_witness_dimension(3, 3),
        lambda: find_orthogonal_element(3, 3, 2),
        lambda: divides_orthogonal_order(3, 3, "GO_odd", 1),
    ],
    ids=[
        "companion_cyclotomic",
        "hyperbolic_witness",
        "minimal_witness_dimension",
        "find_orthogonal_element",
        "divides_orthogonal_order",
    ],
)
def test_equal_primes_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_minimal_witness_dimension():
    assert minimal_witness_dimension(3, 7) == 6
    assert minimal_witness_dimension(7, 3) == 2
    assert minimal_witness_dimension(2, 3) == 2
    assert minimal_witness_dimension(2, 5) == 4
    assert minimal_witness_dimension(2, 7) == 6
    for p in (3, 5, 7):
        assert minimal_witness_dimension(p, 2) == 1
    with pytest.raises(ValueError):
        minimal_witness_dimension(3, 3)


def test_exponent_lower_bounds_frozen():
    report = exponent_lower_bounds((3, 7))
    assert report == BoundsReport(
        primes=(3, 7), k=(6, 1), nu_k=(1, 2), minimal_dim=(6, 2), l=(42, 18)
    )
    report = exponent_lower_bounds((2, 3))
    assert report.k == (2, 1)
    assert report.l == (6, 4)
    assert report.as_dict()["l"] == [6, 4]


def test_exponent_lower_bounds_guards():
    with pytest.raises(ConditionViolationError):
        exponent_lower_bounds((5, 5))
    with pytest.raises(ConditionViolationError):
        exponent_lower_bounds((5,))


def _remainder(num, den, p):
    """Reference: remainder of little-endian num by monic den over Z/(p), by long division."""
    rem = [c % p for c in num]
    for shift in range(len(rem) - len(den), -1, -1):
        coeff = rem[shift + len(den) - 1]
        for i, d in enumerate(den):
            rem[shift + i] = (rem[shift + i] - coeff * d) % p
    return rem[: len(den) - 1]


def test_poly_division():
    # x^2 + x + 1 splits off (x + 3) over Z/(7), and not (x + 1)
    assert _divides_cyclotomic(3, 7, np.array([[3], [1]], dtype=object)).tolist() == [True, False]
    assert _lex_first_factor(3, 7, 1) == [3, 1]
    assert _lex_first_factor(3, 2, 2) == [1, 1, 1]
    # every monic divisor test agrees with long division of x^(p1-1) + ... + 1;
    # degree-k divisors exist only when k is a multiple of the order of p mod p1
    for p1, p, k in [(3, 7, 1), (3, 7, 2), (3, 2, 2), (5, 2, 4), (7, 2, 3), (7, 2, 2),
                     (7, 3, 4), (13, 3, 3), (11, 5, 5)]:
        low = np.array(list(itertools.product(range(p), repeat=k)), dtype=object)
        expected = [not any(_remainder([1] * p1, list(c) + [1], p)) for c in low.tolist()]
        assert _divides_cyclotomic(p1, p, low).tolist() == expected
        assert any(expected) == (pow(p, k, p1) == 1)


def _order_by_steps(f, cap):
    """Reference: least e <= cap with f^e = I by one product per step, or None."""
    ident, g = ResidueMatrix.identity(f.rows, f.modulus), f
    for e in range(1, cap + 1):
        if g == ident:
            return e
        g = g @ f
    return None


def _assert_witness(w, p, p1, dim):
    assert w.modulus == p
    assert w.dim == dim
    assert w.order == p1
    assert is_orthogonal(w.matrix, w.form)
    assert minus_id_bijective(w.matrix)
    assert _order_by_steps(w.matrix, p1) == p1
    assert w.form.gram.det() != 0


def test_witness_frozen_small():
    w = find_orthogonal_element(2, 3, 2)
    assert w.matrix.tolist() == [[0, 1], [1, 1]]
    assert w.form.gram.tolist() == [[0, 1], [1, 0]]
    _assert_witness(w, 2, 3, 2)

    w = find_orthogonal_element(7, 3, 2)
    assert w.matrix.tolist() == [[4, 0], [0, 2]]
    assert w.form.gram.tolist() == [[0, 1], [1, 0]]
    _assert_witness(w, 7, 3, 2)

    for p in (3, 5, 7):
        w = find_orthogonal_element(p, 2, 1)
        assert w.matrix.tolist() == [[p - 1]]
        assert w.form.gram.tolist() == [[1]]
        _assert_witness(w, p, 2, 1)

    # dim = 2(p1 - 1): the hyperbolic double of the full cyclotomic quotient
    w = find_orthogonal_element(3, 5, 8)
    assert w.matrix.tolist() == [
        [0, 0, 0, 2, 0, 0, 0, 0],
        [1, 0, 0, 2, 0, 0, 0, 0],
        [0, 1, 0, 2, 0, 0, 0, 0],
        [0, 0, 1, 2, 0, 0, 0, 0],
        [0, 0, 0, 0, 2, 2, 2, 2],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
    ]
    assert w.form.gram.tolist() == [
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ]
    _assert_witness(w, 3, 5, 8)


def test_witness_dim_six_over_three():
    w = find_orthogonal_element(3, 7, 6)
    assert w.matrix.tolist() == [
        [0, 0, 0, 0, 0, 2],
        [1, 0, 0, 0, 0, 2],
        [0, 1, 0, 0, 0, 2],
        [0, 0, 1, 0, 0, 2],
        [0, 0, 0, 1, 0, 2],
        [0, 0, 0, 0, 1, 2],
    ]
    assert w.form.gram.tolist() == [
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [1, 1, 0, 0, 1, 0],
        [0, 1, 1, 0, 0, 1],
    ]
    _assert_witness(w, 3, 7, 6)


def test_witness_at_double_quotient_dimension():
    w = find_orthogonal_element(2, 5, 4)
    _assert_witness(w, 2, 5, 4)
    w = find_orthogonal_element(2, 7, 6)
    _assert_witness(w, 2, 7, 6)
    # generic hyperbolic double route, above the minimal dimension
    w = find_orthogonal_element(3, 5, 8)
    _assert_witness(w, 3, 5, 8)


def test_no_witness_below_minimal():
    for p, p1, dims in [(2, 3, [1]), (2, 5, [1, 2, 3]), (7, 3, [1]), (3, 7, [1, 2, 3])]:
        for dim in dims:
            with pytest.raises(NoWitnessError):
                find_orthogonal_element(p, p1, dim)


def _order_p1_by_brute_force(p, p1, dim):
    """Reference: every matrix of order p1, by stepping through powers, in product order."""
    found = []
    for entries in itertools.product(range(p), repeat=dim * dim):
        f = ResidueMatrix(np.array(entries).reshape(dim, dim), p)
        if _order_by_steps(f, p1) == p1:
            found.append(f)
    return found


# (2, 3, 4) enumerates 2^16 = 65,536 candidates, 32 blocks of the filter
@pytest.mark.parametrize("p, p1, dim", [(2, 3, 2), (3, 2, 2), (5, 3, 2), (2, 3, 3), (2, 3, 4)])
def test_order_p1_filter_matches_brute_force(p, p1, dim):
    got = list(_order_p1_candidates(p, p1, dim))
    assert got and got == _order_p1_by_brute_force(p, p1, dim)


def test_exhaustive_search_proves_no_witness():
    with pytest.raises(NoWitnessError, match="exhaustive search"):
        find_orthogonal_element(3, 7, 3)


def test_witness_budget_guard():
    with pytest.raises(BudgetExceededError):
        find_orthogonal_element(3, 7, 4)
    with pytest.raises(BudgetExceededError):
        find_orthogonal_element(3, 7, 5)


def test_factor_search_respects_budget():
    # k = 10: the lex-first divisor search alone would walk up to 13^10 candidates
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        find_orthogonal_element(13, 11, 10, search_budget=1000)
    assert time.perf_counter() - start < 1.0


def test_witness_block_feeds_family_builder():
    block1 = witness_block(find_orthogonal_element(3, 7, 6))
    block2 = witness_block(find_orthogonal_element(7, 3, 2))
    assert block1 == {
        "p": 3,
        "gram": find_orthogonal_element(3, 7, 6).form.gram.tolist(),
        "f": find_orthogonal_element(3, 7, 6).matrix.tolist(),
        "m": 1,
        "r": 1,
    }
    spec = parse_spec({"blocks": [block1, block2]})
    B = build_family(spec)
    assert B.order == 3**7 * 7**3


def test_kinds_tuple_is_public():
    assert len(KINDS) == 6
