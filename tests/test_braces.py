"""Core brace carriers, axiom checking, and the ideal machinery.

The fixed expected values in this file were computed by hand from the
defining formulas (componentwise addition with a pairing correction, action
twist on multiplication) before the implementation existed.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit.braces
from bracekit.braces import (
    AsymmetricProductBrace,
    AxiomReport,
    BraceElement,
    SemidirectProductBrace,
    TableBrace,
    TrivialBrace,
    additive_generators,
    check_axioms,
    ideal_closure,
    is_ideal,
    is_left_ideal,
    is_prime_brace,
    PrimeResult,
    is_simple,
    list_ideals,
    multiplicative_closure,
    star_span,
    tabulate,
    _AdditiveSpan,
    _MixedRadix,
    _check_triples,
    _ideal_maps,
    _orbit_labels,
    _subgroup_generators,
)
from bracekit.construct import build_family, load_spec
from bracekit.errors import (
    ActionNotAutomorphismError,
    BudgetExceededError,
    ConditionViolationError,
    IncompleteLatticeError,
)


@pytest.fixture(scope="module")
def asym9():
    # T = S = Z/3, pairing b(t, t') = t t', action trivial
    return AsymmetricProductBrace(
        t_moduli=[3], s_moduli=[3], pairing=[[[1]]], action_gens=[[[1]]]
    )


@pytest.fixture(scope="module")
def sd6():
    # Z/3 acted on by Z/2 through negation: multiplicative group S3
    A = TrivialBrace([3])
    B = TrivialBrace([2])
    return SemidirectProductBrace(A, B, [[0, 1, 2], [0, 2, 1]])


SPECS = Path(__file__).resolve().parent.parent / "demos/specs"


@pytest.fixture(scope="module")
def cf72():
    # the shipped spec; its storage layout interleaves t and s coordinates
    B = build_family(load_spec(SPECS / "cf72.json"))
    assert B._layout.tolist() == [0, 1, 3, 2, 4]
    return B


@pytest.fixture(scope="module")
def ns216():
    return build_family(load_spec(SPECS / "ns216.json"))


def test_trivial_brace_mul_is_add():
    B = TrivialBrace([2, 3])
    assert B.order == 6
    idx = B.elements()
    assert np.array_equal(B.add(idx[:, None], idx[None, :]), B.mul(idx[:, None], idx[None, :]))
    # first coordinate varies fastest: (1, 0) -> 1, (0, 1) -> 2
    assert B.add(1, 1) == 0
    assert B.add(2, 2) == 4
    assert B.neg(2) == 4


def test_trivial_brace_axioms():
    assert check_axioms(TrivialBrace([2, 3]), mode="exhaustive").ok
    assert check_axioms(TrivialBrace([4])).ok


def test_scalar_and_array_wrappers(asym9):
    assert isinstance(asym9.add(1, 2), int)
    out = asym9.add(np.array([1, 1]), 2)
    assert out.shape == (2,)
    grid = asym9.add(np.arange(9)[:, None], np.arange(9)[None, :])
    assert grid.shape == (9, 9)


def test_asym9_frozen_operations(asym9):
    # index(t, s) = t + 3 s
    assert asym9.add(1, 2) == 6  # (1,0)+(2,0) = (0, b(1,2)) = (0,2)
    assert asym9.mul(4, 5) == 6  # (1,1)(2,1) = (1+2, 1+1) = (0,2)
    assert asym9.lam(1, 2) == 5  # lambda_(1,0)(2,0) = (2, -b(2,1)) = (2,1)
    assert asym9.neg(1) == 5  # -(1,0) = (2, b(1,1)) = (2,1)
    assert asym9.inv(4) == 8  # (1,1)^-1 = (-1, -1) = (2,2)
    assert asym9.star(1, 1) == 6  # (0, -1) = (0,2)
    assert asym9.mul(4, asym9.inv(4)) == 0


def test_asym9_additive_order_three(asym9):
    x = 1
    two_x = asym9.add(x, x)
    assert two_x == 5
    assert asym9.add(two_x, x) == 0


def test_pairing_can_raise_additive_order_at_two():
    # T = S = Z/2 with pairing b(t,t') = t t': (1,0) has additive order 4
    B = AsymmetricProductBrace([2], [2], [[[1]]], [[[1]]])
    assert B.add(1, 1) == 2
    assert B.add(2, 1) == 3
    assert B.add(3, 1) == 0
    assert check_axioms(B, mode="exhaustive").ok


def test_asym9_axioms_exhaustive(asym9):
    report = check_axioms(asym9, mode="exhaustive")
    assert report.ok
    assert report.mode == "exhaustive"
    assert set(report.checks) == {
        "additive_identity",
        "additive_inverses",
        "additive_commutativity",
        "additive_associativity",
        "multiplicative_identity",
        "multiplicative_inverses",
        "multiplicative_associativity",
        "compatibility",
    }


def test_validation_rejects_asymmetric_pairing():
    with pytest.raises(ConditionViolationError, match="symmetric"):
        AsymmetricProductBrace(
            [3, 3], [3], [[[0, 1], [0, 0]]], [np.eye(2, dtype=int).tolist()]
        )


def test_validation_rejects_wrong_generator_order():
    # 2 has order 4 mod 5, which does not divide the s-coordinate modulus 2
    with pytest.raises(ConditionViolationError, match="order"):
        AsymmetricProductBrace([5], [2], [[[0]]], [[[2]]])


def test_validation_rejects_pairing_violation():
    # the shear [[1,1],[0,1]] does not preserve the identity pairing
    with pytest.raises(ConditionViolationError, match="preserve the pairing"):
        AsymmetricProductBrace(
            [3, 3], [3], [np.eye(2, dtype=int).tolist()], [[[1, 1], [0, 1]]]
        )


def test_validation_rejects_noncommuting_generators():
    swap = [[0, 1], [1, 0]]
    shear = [[1, 1], [0, 1]]
    zero2 = np.zeros((2, 2), dtype=int).tolist()
    with pytest.raises(ConditionViolationError, match="commute"):
        AsymmetricProductBrace([3, 3], [2, 3], [zero2, zero2], [swap, shear])


@pytest.mark.parametrize(
    "t_modulus, s_modulus, g",
    [
        (2, 257, 1),  # trivial action
        (3, 258, 2),  # alpha_s(t) = 2^s t mod 3
    ],
)
def test_s_moduli_above_256(t_modulus, s_modulus, g):
    # one t and one s coordinate, index t + t_modulus * s; products and
    # inverses against the defining formulas
    B = AsymmetricProductBrace([t_modulus], [s_modulus], np.zeros((1, 1, 1)), [[[g]]])
    x = B.elements()
    t, s = x % t_modulus, x // t_modulus
    alpha = np.array([pow(g, e, t_modulus) for e in range(s_modulus)])
    # (t1, s1)(t2, s2) = (t1 + alpha_{s1}(t2), s1 + s2)
    want = (t[:, None] + alpha[s][:, None] * t[None, :]) % t_modulus + t_modulus * (
        (s[:, None] + s[None, :]) % s_modulus
    )
    assert np.array_equal(B.mul(x[:, None], x[None, :]), want)
    # (t, s)^-1 = (alpha_{-s}(-t), -s)
    s_inv = -s % s_modulus
    assert np.array_equal(B.inv(x), alpha[s_inv] * -t % t_modulus + t_modulus * s_inv)


_EMPTY = np.array([], dtype=np.int64)


@pytest.mark.parametrize("name", ["trivial", "cf72", "sd6", "table"])
@pytest.mark.parametrize("op", ["add", "mul", "lam", "star"])
def test_kernel_contract(cf72, sd6, name, op):
    # every operand shape gives what the operation gives element by element,
    # and leaves its inputs as they were
    B = {
        "trivial": TrivialBrace([2, 3, 4]),
        "cf72": cf72,
        "sd6": sd6,
        "table": TableBrace(*tabulate(cf72)),
    }[name]
    f = getattr(B, op)
    idx = B.elements()
    grid = idx[:: max(1, B.order // 24)]
    g = B.order - 1
    pairs = [
        (g, idx),
        (idx, g),
        (_EMPTY, g),
        (g, _EMPTY),
        (grid[:, None], grid[None, :]),
    ]
    for x, y in pairs:
        kept = [np.array(v, copy=True) for v in (x, y)]
        got = f(x, y)
        xb, yb = np.broadcast_arrays(x, y)
        want = np.array([f(int(a), int(b)) for a, b in zip(xb.ravel(), yb.ravel())], dtype=np.int64)
        assert got.dtype == np.int64
        assert got.shape == xb.shape
        assert np.array_equal(got, want.reshape(xb.shape))
        for v, old in zip((x, y), kept):
            assert np.array_equal(v, old)


def test_kernels_go_through_the_codec(cf72, monkeypatch):
    # perfbench's traced runs see the codec layer by wrapping these two
    # methods, so every kernel of a codec carrier has to call them
    calls = Counter()

    def counting(name):
        original = getattr(_MixedRadix, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(_MixedRadix, name, wrapper)

    counting("decode")
    counting("encode")
    x = cf72.elements()
    for op, args, want in (
        ("add", (x, x[::-1]), (2, 1)),
        ("mul", (x, x[::-1]), (2, 1)),
        ("neg", (x,), (1, 1)),
        ("inv", (x,), (1, 1)),
    ):
        calls.clear()
        getattr(cf72, op)(*args)
        assert (calls["decode"], calls["encode"]) == want, op


def test_layout_permutes_storage_only():
    # s stored before t: (t=1, s=0) sits at index 3
    B = AsymmetricProductBrace([2], [3], [[[0]]], [[[1]]], layout=[1, 0])
    assert B.add(3, 3) == 0
    assert check_axioms(B, mode="exhaustive").ok
    with pytest.raises(ValueError):
        AsymmetricProductBrace([2], [3], [[[0]]], [[[1]]], layout=[0, 0])


def test_semidirect_frozen_operations(sd6):
    # index = a + 3 b
    assert sd6.order == 6
    assert sd6.mul(1, 4) == 5
    assert sd6.mul(4, 1) == 3  # noncommutative
    assert sd6.inv(4) == 4
    assert sd6.add(1, 4) == 5  # addition stays componentwise
    assert check_axioms(sd6, mode="exhaustive").ok


def test_semidirect_rejects_broken_actions():
    A = TrivialBrace([3])
    B = TrivialBrace([2])
    with pytest.raises(ActionNotAutomorphismError):
        SemidirectProductBrace(A, B, [[0, 1, 2], [0, 0, 1]])  # not a permutation
    with pytest.raises(ActionNotAutomorphismError):
        SemidirectProductBrace(A, B, [[0, 2, 1], [0, 1, 2]])  # identity must act trivially
    with pytest.raises(ActionNotAutomorphismError):
        SemidirectProductBrace(A, B, [[0, 1, 2], [1, 0, 2]])  # moves the identity


def test_semidirect_action_must_be_homomorphism():
    A = TrivialBrace([5])
    B = TrivialBrace([4])
    # x -> 2x has order 4 mod 5; assigning it to the order-4 generator works
    double = [(2 * i) % 5 for i in range(5)]
    perms = [list(range(5))]
    row = list(range(5))
    for _ in range(3):
        row = [double[i] for i in row]
        perms.append(list(row))
    good = SemidirectProductBrace(A, B, [perms[0], perms[1], perms[2], perms[3]])
    assert check_axioms(good, mode="exhaustive").ok
    bad = [perms[0], perms[1], perms[2], perms[1]]
    with pytest.raises(ActionNotAutomorphismError, match="homomorphism"):
        SemidirectProductBrace(A, B, bad)


def test_table_brace_matches_source(sd6):
    add_t, mul_t = tabulate(sd6)
    T = TableBrace(add_t, mul_t)
    assert T.zero() == 0
    idx = np.arange(6)
    assert np.array_equal(T.mul(idx[:, None], idx[None, :]), mul_t)
    assert check_axioms(T, mode="exhaustive").ok


def test_table_brace_detects_perturbations(sd6):
    add_t, mul_t = tabulate(sd6)
    broken = mul_t.copy()
    broken[4, 1] = sd6.mul(4, 1) ^ 1
    report = check_axioms(TableBrace(add_t, broken), mode="exhaustive")
    assert not report.ok
    assert report.counterexample is not None

    headless = add_t.copy()
    headless[0] = np.roll(headless[0], 1)
    report = check_axioms(TableBrace(headless, mul_t), mode="exhaustive")
    assert not report.ok

    out_of_range = add_t.copy()
    out_of_range[2, 3] = 99
    report = check_axioms(TableBrace(out_of_range, mul_t), mode="exhaustive")
    assert not report.ok
    assert report.checks == {"closure": False}


def _corrupted_d106(table, at, source):
    """Tables of the dihedral brace Z/53 x| Z/2 with one entry overwritten."""
    neg = [(-i) % 53 for i in range(53)]
    D = SemidirectProductBrace(TrivialBrace([53]), TrivialBrace([2]), [list(range(53)), neg])
    tables = list(tabulate(D))
    broken = tables[table].copy()
    broken[at] = broken[source]
    tables[table] = broken
    return TableBrace(*tables)


_LINEAR_OK = {
    "additive_identity": True,
    "additive_inverses": True,
    "multiplicative_identity": True,
    "multiplicative_inverses": True,
}


# The four reports below were captured before the exhaustive and sampled
# checkers were merged. Order 106 runs the exhaustive triples in three chunks.
def test_pinned_reports_corrupted_addition():
    T = _corrupted_d106(0, (60, 70), (60, 71))
    checks = dict(
        _LINEAR_OK,
        additive_commutativity=False,
        additive_associativity=False,
        multiplicative_associativity=True,
        compatibility=False,
    )
    report = check_axioms(T, mode="exhaustive")
    assert (report.ok, report.mode, report.order, report.trials) == (False, "exhaustive", 106, 0)
    assert report.checks == checks
    # commutativity is checked over all pairs before any triple law
    assert report.counterexample == ("additive_commutativity", (60, 70))
    report = check_axioms(T, mode="sampled", trials=20_000, seed=5)
    assert (report.ok, report.mode, report.order, report.trials) == (False, "sampled", 106, 20_000)
    assert report.checks == checks
    assert report.counterexample == ("additive_commutativity", (70, 60))


def test_pinned_reports_corrupted_multiplication():
    T = _corrupted_d106(1, (100, 3), (100, 4))
    checks = dict(
        _LINEAR_OK,
        additive_commutativity=True,
        additive_associativity=True,
        multiplicative_associativity=False,
        compatibility=False,
    )
    report = check_axioms(T)
    assert (report.ok, report.mode, report.order, report.trials) == (False, "exhaustive", 106, 0)
    assert report.checks == checks
    assert report.counterexample == ("multiplicative_associativity", (1, 99, 3))
    report = check_axioms(T, mode="sampled", trials=20_000, seed=5)
    assert (report.ok, report.mode, report.order, report.trials) == (False, "sampled", 106, 20_000)
    assert report.checks == checks
    assert report.counterexample == ("multiplicative_associativity", (100, 3, 27))


def _axioms_through_kernels(B, mode, trials=100_000, seed=0):
    """Reference: check_axioms on a brace with an identity, every law through the kernels."""
    n, z, every = B.order, B.zero(), B.elements()
    zeros = np.full(n, z, dtype=np.int64)
    checks, failures = {}, []
    for name, got, want in (
        ("additive_identity", B.add(z, every), every),
        ("additive_inverses", B.add(every, B.neg(every)), zeros),
        ("multiplicative_identity", B.mul(z, every), every),
        ("multiplicative_identity", B.mul(every, z), every),
        ("multiplicative_inverses", B.mul(every, B.inv(every)), zeros),
    ):
        bad = np.flatnonzero(got != want)
        checks[name] = checks.get(name, True) and bad.size == 0
        if bad.size:
            failures.append((name, (int(bad[0]),)))
    pair_laws = {"additive_commutativity": lambda a, b, c: B.add(a, b) == B.add(b, a)}
    triple_laws = {
        "additive_associativity": lambda a, b, c: B.add(B.add(a, b), c) == B.add(a, B.add(b, c)),
        "multiplicative_associativity": lambda a, b, c: (
            B.mul(B.mul(a, b), c) == B.mul(a, B.mul(b, c))
        ),
        "compatibility": lambda a, b, c: (
            B.add(B.mul(a, B.add(b, c)), a) == B.add(B.mul(a, b), B.mul(a, c))
        ),
    }
    for laws, width in ((pair_laws, 2), (triple_laws, 3)):
        verdicts, failure, covered = _check_triples(n, laws, mode, trials, seed)
        checks.update(verdicts)
        if failure is not None:
            failures.append((failure[0], failure[1][:width]))
    return AxiomReport(
        ok=all(checks.values()),
        mode=mode,
        order=n,
        checks=checks,
        counterexample=failures[0] if failures else None,
        trials=0 if mode == "exhaustive" else covered,
    )


def _ns216_corrupted_mul(request):
    add_t, mul_t = tabulate(request.getfixturevalue("ns216"))
    broken = mul_t.copy()
    broken[100, 3] = broken[100, 4]
    return TableBrace(add_t, broken)


_AXIOM_CASES = {
    "asym9": lambda request: request.getfixturevalue("asym9"),
    "sd6": lambda request: request.getfixturevalue("sd6"),
    "trivial_2_2_3": lambda request: TrivialBrace([2, 2, 3]),
    "cf72": lambda request: request.getfixturevalue("cf72"),
    "ns216": lambda request: request.getfixturevalue("ns216"),
    "ns216_corrupted_mul": _ns216_corrupted_mul,
}


@pytest.mark.parametrize("case", list(_AXIOM_CASES))
def test_axiom_reports_match_kernel_reference(case, request):
    B = _AXIOM_CASES[case](request)
    runs = [("exhaustive", 100_000, 0), ("sampled", 100_000, 1), ("sampled", 100_000, 7)]
    for mode, trials, seed in runs:
        want = _axioms_through_kernels(B, mode, trials, seed)
        assert check_axioms(B, mode=mode, trials=trials, seed=seed) == want
    if case == "ns216_corrupted_mul":
        assert not want.ok and want.counterexample is not None


def test_axiom_tables_built_only_when_no_larger_than_the_triples(cf72, monkeypatch):
    built = []
    real = bracekit.braces.tabulate
    monkeypatch.setattr(bracekit.braces, "tabulate", lambda B: built.append(B.order) or real(B))
    assert check_axioms(cf72, mode="sampled", trials=100).ok  # 100 < 72^2
    assert built == []
    assert check_axioms(cf72, mode="sampled", trials=10_000).ok
    assert built == [72]
    with pytest.raises(ValueError):
        check_axioms(cf72, mode="sampled", trials=0)
    assert built == [72]
    assert check_axioms(cf72, mode="exhaustive").ok
    assert built == [72, 72]


def test_sampled_mode_reports_trials(asym9):
    report = check_axioms(asym9, mode="sampled", trials=500, seed=1)
    assert report.ok
    assert report.trials == 500


def test_brace_element_sugar(asym9):
    x = asym9.element(1)
    y = asym9.element(2)
    assert (x + y).index == 6
    assert (-x).index == 5
    assert (x * x).index == 2
    assert x.lam(y).index == 5
    assert x.star(x).index == 6
    assert x.inverse().index == asym9.inv(1)
    with pytest.raises(IndexError):
        asym9.element(9)


def test_ideal_closure_asym9(asym9):
    rec = ideal_closure(asym9, [3])
    assert rec.size == 3
    assert rec.members.tolist() == [0, 3, 6]
    assert is_ideal(asym9, rec.members)
    full = ideal_closure(asym9, [1])
    assert full.size == 9


def test_left_ideal_versus_ideal(sd6):
    # {0} x Z/2 is lambda-invariant but not normal in S3
    assert is_left_ideal(sd6, [0, 3])
    assert not is_ideal(sd6, [0, 3])
    left = ideal_closure(sd6, [3], mode="left")
    assert left.members.tolist() == [0, 3]
    two = ideal_closure(sd6, [3], mode="two_sided")
    assert two.size == 6
    # Z/3 x {0} is a genuine ideal
    assert is_ideal(sd6, [0, 1, 2])


def test_is_left_ideal_rejects_non_subgroups(asym9):
    assert not is_left_ideal(asym9, [0, 1])  # not additively closed
    assert not is_left_ideal(asym9, [3, 6])  # missing zero
    assert not is_ideal(asym9, [0, 1])


def test_list_ideals_asym9(asym9):
    lattice = list_ideals(asym9)
    assert [rec.size for rec in lattice] == [1, 3, 9]
    assert lattice[1].members.tolist() == [0, 3, 6]


def test_list_ideals_trivial_braces():
    assert [r.size for r in list_ideals(TrivialBrace([5]))] == [1, 5]
    assert [r.size for r in list_ideals(TrivialBrace([4]))] == [1, 2, 4]
    assert [r.size for r in list_ideals(TrivialBrace([2, 2]))] == [1, 2, 2, 2, 4]


def _list_ideals_per_element(B, budget=1_000_000):
    """Reference: the closure of every nonzero element, completed under pairwise joins."""
    zero_rec = ideal_closure(B, [], mode="two_sided", budget=budget)
    found = {zero_rec.key(): zero_rec}
    for x in range(B.order):
        if x == B.zero():
            continue
        rec = ideal_closure(B, [x], mode="two_sided", budget=budget)
        found.setdefault(rec.key(), rec)
    changed = True
    while changed:
        changed = False
        records = list(found.values())
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                a, b = records[i], records[j]
                if a.contains(b.members) or b.contains(a.members):
                    continue
                joined = ideal_closure(
                    B, list(a.seeds) + list(b.seeds), mode="two_sided", budget=budget
                )
                if joined.key() not in found:
                    found[joined.key()] = joined
                    changed = True
    return sorted(found.values(), key=lambda r: (r.size, r.key()))


def _orbit_minima_by_search(B):
    """Reference: each element's orbit under the ideal maps, walked one element at a time."""
    images = [table.tolist() for table in _ideal_maps(B, two_sided=True)]
    minima = np.full(B.order, -1, dtype=np.int64)
    for x in range(B.order):
        if minima[x] >= 0:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for img in images:
                if img[y] not in orbit:
                    orbit.add(img[y])
                    frontier.append(img[y])
        minima[sorted(orbit)] = x
    return minima


def _relabelled(B, seed=0):
    """B as a TableBrace under a seeded relabelling that moves zero off index 0."""
    perm = np.random.default_rng(seed).permutation(B.order)
    inv = np.argsort(perm)
    add, mul = tabulate(B)
    T = TableBrace(perm[add][np.ix_(inv, inv)], perm[mul][np.ix_(inv, inv)])
    assert T.zero() == perm[B.zero()] != 0
    return T


_LATTICE_CASES = {
    "asym9": lambda request: request.getfixturevalue("asym9"),
    "sd6": lambda request: request.getfixturevalue("sd6"),
    "trivial_1": lambda request: TrivialBrace([1]),
    "trivial_4": lambda request: TrivialBrace([4]),
    "trivial_2_2": lambda request: TrivialBrace([2, 2]),
    "trivial_2_2_3": lambda request: TrivialBrace([2, 2, 3]),
    "cf72": lambda request: request.getfixturevalue("cf72"),
    "mf72": lambda request: build_family(load_spec(SPECS / "mf72.json")),
    "ns216": lambda request: request.getfixturevalue("ns216"),
    "ns216_relabelled": lambda request: _relabelled(request.getfixturevalue("ns216")),
}


@pytest.mark.parametrize("case", list(_LATTICE_CASES))
def test_list_ideals_matches_per_element_reference(case, request):
    B = _LATTICE_CASES[case](request)
    got, want = list_ideals(B), _list_ideals_per_element(B)
    assert [(r.size, r.seeds, r.two_sided, r.members.tolist()) for r in got] == [
        (r.size, r.seeds, r.two_sided, r.members.tolist()) for r in want
    ]
    assert all(np.array_equal(g.mask, w.mask) for g, w in zip(got, want))
    labels = _orbit_labels(B)
    for table in _ideal_maps(B, two_sided=True):
        assert np.array_equal(labels[table], labels)
    assert np.array_equal(labels, _orbit_minima_by_search(B))


@pytest.mark.parametrize("spec, seeds", [("cf72", [[1]]), ("ns216", [[1], [24], [48]])])
def test_list_ideals_runs_one_closure_per_nonzero_orbit(spec, seeds, request, monkeypatch):
    B = request.getfixturevalue(spec)
    calls = []

    def counted(B, seed_list, *args, **kwargs):
        calls.append([int(s) for s in seed_list])
        return ideal_closure(B, seed_list, *args, **kwargs)

    monkeypatch.setattr(bracekit.braces, "ideal_closure", counted)
    list_ideals(B)
    minima = np.unique(_orbit_labels(B))
    assert [m for [m] in seeds] == minima[minima != B.zero()].tolist()
    assert calls == [[]] + seeds


def test_is_simple_small_cases(asym9, sd6):
    assert is_simple(TrivialBrace([5])).simple
    res = is_simple(TrivialBrace([4]))
    assert not res.simple
    assert res.certificate.size == 2
    res = is_simple(asym9)
    assert not res.simple
    assert res.certificate.members.tolist() == [0, 3, 6]
    assert not is_simple(sd6).simple


def test_star_span_matches_brute_force(asym9, sd6):
    for B in (asym9, sd6):
        every = B.elements()
        fast = star_span(B, every, every)
        prods = B.star(every[:, None], every[None, :]).ravel()
        brute = ideal_closure_members_of_span(B, prods)
        assert np.array_equal(fast, brute)


def ideal_closure_members_of_span(B, values):
    # additive span only, no ideal closure: reference implementation
    from bracekit.braces import _AdditiveSpan

    span = _AdditiveSpan(B)
    for v in np.unique(values):
        span.insert(int(v))
    return np.sort(span.members)


def test_star_span_frozen_values(asym9):
    every = asym9.elements()
    assert star_span(asym9, every, every).tolist() == [0, 3, 6]
    sub = star_span(asym9, [0, 3, 6], [0, 3, 6])
    assert sub.tolist() == [0]


def _closure_through_kernels(B, seeds, two_sided):
    """Reference: the ideal closure with every map image computed by the kernels."""
    span = _AdditiveSpan(B)
    for x in seeds:
        span.insert(x)
    maps = [lambda xs, g=g: B.lam(g, xs) for g in B.multiplicative_generators().tolist()]
    if two_sided:
        maps += [
            lambda xs, g=g: B.mul(B.mul(g, xs), B.inv(g))
            for g in B.multiplicative_generators().tolist()
        ]
    ptr = 0
    while ptr < span.size:
        batch = span.members[ptr:]
        ptr = span.size
        for image in maps:
            span.insert_many(image(batch))
    return np.sort(span.members)


_TABLE_CASES = {
    "asym9": lambda request: AsymmetricProductBrace([3], [3], [[[1]]], [[[1]]]),
    "sd6": lambda request: SemidirectProductBrace(
        TrivialBrace([3]), TrivialBrace([2]), [[0, 1, 2], [0, 2, 1]]
    ),
    "cf72": lambda request: build_family(load_spec(SPECS / "cf72.json")),
    "ns216": lambda request: build_family(load_spec(SPECS / "ns216.json")),
    "ns216_relabelled": lambda request: _relabelled(request.getfixturevalue("ns216")),
}


@pytest.mark.parametrize("first", ["left", "two_sided"])
@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_ideal_tables_match_kernels(case, first, request):
    B = _TABLE_CASES[case](request)  # a fresh brace: no table is built yet
    assert B._ideal_tables == {}
    every = B.elements()
    gens = B.multiplicative_generators().tolist()
    lam = [B.lam(g, every) for g in gens]
    conj = [B.mul(B.mul(g, every), B.inv(g)) for g in gens]
    if first == "left":
        tables = _ideal_maps(B, two_sided=False)
        assert list(B._ideal_tables) == ["lam"]  # lambda queries build no conjugation
        assert len(tables) == len(gens)
        assert all(t.dtype == np.int32 and np.array_equal(t, want) for t, want in zip(tables, lam))
    tables = _ideal_maps(B, two_sided=True)
    assert sorted(B._ideal_tables) == ["conj", "lam"]
    assert len(tables) == 2 * len(gens)
    for got, want in zip(tables, [t for pair in zip(lam, conj) for t in pair]):
        assert got.dtype == np.int32 and np.array_equal(got, want)
    assert all(np.array_equal(t, want) for t, want in zip(_ideal_maps(B, False), lam))


@pytest.mark.parametrize("spec", ["cf72", "ns216"])
def test_ideal_closure_matches_kernel_reference(spec, request):
    B = request.getfixturevalue(spec)
    for x in range(B.order):
        for mode in ("two_sided", "left"):
            got = ideal_closure(B, [x], mode=mode).members
            assert np.array_equal(got, _closure_through_kernels(B, [x], mode == "two_sided"))


def test_ideal_tables_only_built_by_ideal_queries(sd6):
    # construction, axiom checks, generators and the kernels leave the cache empty
    fresh = [
        build_family(load_spec(SPECS / "cf72.json")),
        SemidirectProductBrace(TrivialBrace([3]), TrivialBrace([2]), [[0, 1, 2], [0, 2, 1]]),
        TableBrace(*tabulate(sd6)),
        TrivialBrace([2, 3]),
    ]
    for B in fresh:
        assert B._ideal_tables == {}
        check_axioms(B)
        check_axioms(B, mode="sampled", trials=100)
        every = B.elements()
        for op in ("add", "mul", "lam", "star", "sub"):
            getattr(B, op)(every[:, None], every[None, :])
        B.neg(every), B.inv(every), B.multiplicative_generators()
        additive_generators(B)
        assert B._ideal_tables == {}
        assert is_left_ideal(B, every) and list(B._ideal_tables) == ["lam"]
        assert is_ideal(B, every) and sorted(B._ideal_tables) == ["conj", "lam"]


def _brute_star_span(B, left, right):
    """Reference: the additive span of every product a*b, a in left, b in right."""
    left, right = np.asarray(left), np.asarray(right)
    return ideal_closure_members_of_span(B, B.star(left[:, None], right[None, :]).ravel())


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_star_span_over_generators_matches_brute_force(case, request):
    B = _TABLE_CASES[case](request)
    lattice = list_ideals(B)
    for left in lattice:
        assert left.size == 1 or _subgroup_generators(B, left.members) is not None
        for right in lattice:
            got = star_span(B, left, right)
            assert np.array_equal(got, _brute_star_span(B, left.members, right.members))


def _lambda_invariant(B, members):
    span = ideal_closure_members_of_span(B, members)
    gens = B.multiplicative_generators()
    return bool(np.isin(B.lam(gens[:, None], span[None, :]), span).all())


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_star_span_general_path_matches_brute_force(case, request):
    B = _TABLE_CASES[case](request)
    rng = np.random.default_rng(3)
    every = B.elements()
    cases = []
    # left not a subgroup: random subsets and a multiplicative coset of a proper subgroup
    for _ in range(4):
        left = rng.choice(B.order, size=rng.integers(2, B.order), replace=False)
        assert _subgroup_generators(B, np.unique(left)) is None
        cases.append((left, every))
        cases.append((left, rng.choice(B.order, size=3, replace=False)))
    sub = multiplicative_closure(B, B.multiplicative_generators()[:1])
    if sub.size < B.order:
        outside = int(np.flatnonzero(~np.isin(every, sub))[0])
        coset = np.unique(B.mul(outside, sub))
        assert _subgroup_generators(B, coset) is None
        cases.append((coset, every))
    # right whose span is not lambda-invariant, against subgroups on the left
    cyclic = ([B.zero(), x] for x in range(B.order))
    right = next((r for r in cyclic if not _lambda_invariant(B, r)), None)
    # in sd6 every lambda map preserves every cyclic subgroup
    assert (right is None) == (case == "sd6")
    if right is not None:
        cases += [(every, right), (sub, right)]
    for left, right in cases:
        assert np.array_equal(star_span(B, left, right), _brute_star_span(B, left, right))


def test_star_span_spans_a_right_factor_that_is_not_a_subgroup(cf72):
    # the span of {0, 8, 9} is everything, not only the span of 8
    every = cf72.elements()
    assert additive_generators(cf72, within=[0, 8, 9]).tolist() == [8, 9]
    assert star_span(cf72, every, [0, 8, 9]).size == 72
    assert np.array_equal(
        star_span(cf72, every, [0, 8, 9]), _brute_star_span(cf72, every, [0, 8, 9])
    )
    assert additive_generators(TrivialBrace([6]), within=[0, 2, 3]).tolist() == [2, 3]


def test_star_span_rejects_members_outside_the_carrier():
    B = TrivialBrace([6])
    with pytest.raises(ValueError, match="left factor"):
        star_span(B, [0, 9], [1])
    with pytest.raises(ValueError, match="left factor"):
        star_span(B, [-1, 0], [1])
    with pytest.raises(ValueError, match="right factor"):
        star_span(B, [0, 1], [6])
    assert star_span(B, [0, 5], [1]).tolist() == [0]


def test_ideal_record_contains_only_carrier_indices():
    B = TrivialBrace([6])
    rec = ideal_closure(B, [3])
    assert rec.members.tolist() == [0, 3]
    assert rec.contains(3) and rec.contains([0, 3])
    assert not rec.contains(-3)  # would wrap around to index 3
    assert not rec.contains(6)
    assert not rec.contains([0, 6])
    assert not rec.contains([3, -3])


def test_prime_check_rejects_lattice_entries_outside_the_carrier():
    B = TrivialBrace([6])
    with pytest.raises(IncompleteLatticeError, match="outside the carrier"):
        is_prime_brace(B, [[0], [0, 3], range(7)])
    with pytest.raises(IncompleteLatticeError, match="outside the carrier"):
        is_prime_brace(B, [[0], [-3, 0], range(6)])


def test_additive_generators(asym9):
    gens = additive_generators(asym9)
    span = ideal_closure_members_of_span(asym9, gens)
    assert span.size == 9
    sub_gens = additive_generators(asym9, within=[0, 3, 6])
    assert sub_gens.tolist() == [3]


def test_prime_check_asym9(asym9):
    lattice = list_ideals(asym9)
    res = is_prime_brace(asym9, lattice)
    assert not res.prime
    assert res.witness_pair == (3, 3)


def test_trivial_brace_is_simple_but_not_prime():
    # star products vanish identically on a trivial brace, so even the
    # simple one of order 5 fails primeness with witness pair (B, B)
    B = TrivialBrace([5])
    assert is_simple(B).simple
    res = is_prime_brace(B, list_ideals(B))
    assert not res.prime
    assert res.witness_pair == (5, 5)


def test_prime_check_order_one():
    # a prime brace is nonzero, as is a simple one: no spot check is drawn
    B = TrivialBrace([1])
    assert is_prime_brace(B, list_ideals(B)) == PrimeResult(False, None)
    assert not is_simple(B).simple


def test_sampled_axioms_need_a_trial(asym9):
    with pytest.raises(ValueError, match="at least 1 trial"):
        check_axioms(asym9, mode="sampled", trials=0)
    assert check_axioms(asym9, mode="exhaustive", trials=0).ok


def test_prime_check_guards_lattice(asym9):
    with pytest.raises(IncompleteLatticeError):
        is_prime_brace(asym9, [[0], np.arange(9)][:1])  # missing full brace
    with pytest.raises(IncompleteLatticeError):
        is_prime_brace(asym9, [[0], np.arange(9)])  # missing the middle ideal
    with pytest.raises(IncompleteLatticeError):
        is_prime_brace(asym9, [[0], [0, 1], np.arange(9)])  # non-ideal entry


def test_closure_budget(asym9):
    with pytest.raises(BudgetExceededError):
        ideal_closure(asym9, [1], budget=2)


def test_multiplicative_generators_generate(asym9, sd6):
    for B in (asym9, sd6, TrivialBrace([2, 2, 3]), TableBrace(*tabulate(sd6))):
        gens = B.multiplicative_generators()
        assert multiplicative_closure(B, gens).tolist() == B.elements().tolist()


def test_prime_check_spot_checks_skip_relabelled_zero():
    # Z/6 with labels 0 and 3 swapped: the zero element is index 3, and the
    # closure of index 0 is the ideal {0, 3} that the lattice below leaves out
    swap = np.array([3, 1, 2, 0, 4, 5])
    add, mul = tabulate(TrivialBrace([6]))
    B = TableBrace(swap[add][np.ix_(swap, swap)], swap[mul][np.ix_(swap, swap)])
    assert B.zero() == 3
    assert ideal_closure(B, [0]).members.tolist() == [0, 3]
    lattice = [[3], [2, 3, 4], B.elements()]
    for seed in range(5):
        with pytest.raises(IncompleteLatticeError):
            is_prime_brace(B, lattice, seed=seed)


# property tests: the defining identities on random elements


@st.composite
def brace_and_indices(draw, count):
    kind = draw(st.sampled_from(["asym9", "asym4", "sd6"]))
    if kind == "asym9":
        B = AsymmetricProductBrace([3], [3], [[[1]]], [[[1]]])
    elif kind == "asym4":
        B = AsymmetricProductBrace([2], [2], [[[1]]], [[[1]]])
    else:
        A = TrivialBrace([3])
        C = TrivialBrace([2])
        B = SemidirectProductBrace(A, C, [[0, 1, 2], [0, 2, 1]])
    idx = [draw(st.integers(min_value=0, max_value=B.order - 1)) for _ in range(count)]
    return B, idx


@settings(max_examples=80)
@given(brace_and_indices(3))
def test_lambda_is_additive(data):
    B, (a, b, c) = data
    assert B.lam(a, B.add(b, c)) == B.add(B.lam(a, b), B.lam(a, c))


@settings(max_examples=80)
@given(brace_and_indices(3))
def test_lambda_composes_multiplicatively(data):
    B, (a, b, c) = data
    assert B.lam(B.mul(a, b), c) == B.lam(a, B.lam(b, c))


@settings(max_examples=80)
@given(brace_and_indices(2))
def test_mul_decomposes_through_lambda(data):
    B, (a, b) = data
    assert B.mul(a, b) == B.add(a, B.lam(a, b))


@settings(max_examples=80)
@given(brace_and_indices(3))
def test_star_left_distributes(data):
    B, (a, b, c) = data
    assert B.star(a, B.add(b, c)) == B.add(B.star(a, b), B.star(a, c))


@settings(max_examples=80)
@given(brace_and_indices(1))
def test_inverse_roundtrips(data):
    B, (a,) = data
    assert B.mul(a, B.inv(a)) == B.zero()
    assert B.add(a, B.neg(a)) == B.zero()
    assert B.inv(B.inv(a)) == a
