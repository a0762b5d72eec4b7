"""Ideal lattices, simplicity and primeness checked against a brute-force oracle.

The oracle works from the definitions (Cedó–Jespers–Okniński, Comm. Math.
Phys. 327, 2014) on the full ``tabulate`` tables only. It never calls
``ideal_closure``, ``_ideal_maps`` or ``_AdditiveSpan``; those three raise
while it runs. It finds

- every additive subgroup, by joining <H, x> from {0} until no new subgroup
  appears;
- the ideals among them: subgroups I with lambda_a(I) = I and a I a^-1 = I
  for every a;
- I*J for every pair of nonzero ideals, the additive span of
  lambda_i(j) - j over i in I and j in J;
- "simple": nonzero with exactly two ideals, and "prime": nonzero with no
  product of nonzero ideals equal to {0}.

It is compared with ``list_ideals``, ``is_simple`` and
``is_prime_brace(B, list_ideals(B))`` on the 10 cases of ``_LATTICE_CASES``
in ``test_braces.py``, on 8 seeded asymmetric and semidirect products of
orders 8 to 64 (``_SEEDED_CASES``), and on one seeded relabelling of each,
36 cases in all (a one-element brace is its own relabelling). The ns216
cases lie above the bound order^2 <= 2^15 under which additive spans gather
from a cached addition table, and every other case below it, so both ways of
adding are checked. Two of the seeded braces have a minimal ideal I with
I*I = {0} and no other product of nonzero ideals equal to {0}, so a
primeness check that skipped the pairs (I, I) would call them prime. Its 37 tests take about 7 s on a 2-core host
(Python 3.11, numpy 2.4), ns216 most of it; each test fails once 10 s have
passed since the first.

The shipped ns216 brace is prime and not simple: its ideals are {0}, one of
order 72 and the whole brace, and I*I is not {0} for the middle one I. So the
prime-but-not-simple side is checked here on ns216 and its relabellings, not
only on the order-92160 example of AC8.
"""

import time

import numpy as np
import pytest

import bracekit.braces
from bracekit.braces import (
    _BLOCK,
    AsymmetricProductBrace,
    SemidirectProductBrace,
    TrivialBrace,
    is_prime_brace,
    is_simple,
    list_ideals,
    tabulate,
)
from bracekit.errors import ActionNotAutomorphismError, ConditionViolationError
# the fixtures are imported for the cases that ask for them by name
from test_braces import _LATTICE_CASES, _relabelled, asym9, cf72, ns216, sd6  # noqa: F401

_BOUND_S = 10.0


@pytest.fixture(scope="module")
def started():
    return time.perf_counter()


def _identity(table):
    return int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])


def _generated(add, mask):
    """The additive subgroup generated by ``mask``: close under sums until nothing is new."""
    while True:
        members = np.flatnonzero(mask)
        grown = mask.copy()
        grown[add[np.ix_(members, members)]] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _subgroups(add, zero):
    start = np.zeros(len(add), dtype=bool)
    start[zero] = True
    found = {start.tobytes(): start}
    frontier = [start]
    while frontier:
        fresh = []
        for H in frontier:
            members = np.flatnonzero(H)
            covered = H.copy()
            for x in range(len(add)):
                if covered[x]:
                    continue
                covered[add[x, members]] = True  # <H, x> is the same for all of x + H
                mask = H.copy()
                mask[x] = True
                joined = _generated(add, mask)
                if joined.tobytes() not in found:
                    found[joined.tobytes()] = joined
                    fresh.append(joined)
        frontier = fresh
    return list(found.values())


def _reference(add, mul):
    """(sorted ideals as member lists, simple, prime, sizes of the zero products)."""
    n = len(add)
    zero = _identity(add)
    assert _identity(mul) == zero
    neg = np.argmax(add == zero, axis=1)
    inv = np.argmax(mul == zero, axis=1)
    lam = add[neg[:, None], mul]  # lam[a, b] = -a + a.b
    conj = mul[mul, inv[:, None]]  # conj[a, h] = a.h.a^-1
    star = add[lam, neg[None, :]]  # star[i, j] = lam_i(j) - j
    ideals = [
        mask
        for mask in _subgroups(add, zero)
        if mask[lam[:, mask]].all() and mask[conj[:, mask]].all()
    ]
    nonzero = [mask for mask in ideals if mask.sum() > 1]
    # I*J is {0} exactly when every lambda_i(j) - j that spans it is 0
    zero_products = {
        (int(I.sum()), int(J.sum()))
        for I in nonzero
        for J in nonzero
        if (star[np.ix_(I, J)] == zero).all()
    }
    lattice = sorted((int(m.sum()), np.flatnonzero(m).tolist()) for m in ideals)
    return lattice, n > 1 and len(ideals) == 2, n > 1 and not zero_products, zero_products


def _seeded_asymmetric(t_moduli, s_moduli, seed):
    """The first seeded draw that AsymmetricProductBrace accepts with a nonzero pairing and a nontrivial action."""
    rng = np.random.default_rng(seed)
    tm, sm = np.array(t_moduli), np.array(s_moduli)
    shape = (sm.size, tm.size, tm.size)
    while True:
        pairing = np.triu(rng.integers(0, sm[:, None, None], shape))
        pairing += np.triu(pairing, 1).transpose(0, 2, 1)
        gens = rng.integers(0, tm[None, :, None], shape)
        if not pairing.any() or (gens == np.eye(tm.size, dtype=np.int64)).all():
            continue
        try:
            return AsymmetricProductBrace(tm, sm, pairing, gens)
        except ConditionViolationError:
            continue


def _seeded_semidirect(a_moduli, seed):
    """A trivial brace on ``a_moduli`` acted on by the cyclic group of a seeded coordinate matrix.

    The first draw of the matrix that permutes A, not as the identity, and
    that SemidirectProductBrace accepts; B is cyclic of its order.
    """
    rng = np.random.default_rng(seed)
    A = TrivialBrace(a_moduli)
    every = A.elements()
    coords = A.codec.decode(every)
    while True:
        matrix = rng.integers(0, A.moduli[:, None], (A.moduli.size, A.moduli.size))
        step = A.codec.encode(coords @ matrix.T % A.moduli)
        if np.unique(step).size < A.order or np.array_equal(step, every):
            continue
        powers = [every]
        while not np.array_equal(step[powers[-1]], every):
            powers.append(step[powers[-1]])
        try:
            return SemidirectProductBrace(A, TrivialBrace([len(powers)]), np.array(powers))
        except ActionNotAutomorphismError:
            continue


# (builder, order, the zero products (|I|, |J|) when they are only (I, I))
_SEEDED_CASES = {
    "asym_8": (lambda: _seeded_asymmetric([2, 2], [2], seed=2), 8, {(4, 4)}),
    "asym_27": (lambda: _seeded_asymmetric([3, 3], [3], seed=0), 27, None),
    "asym_32": (lambda: _seeded_asymmetric([4, 2], [4], seed=0), 32, None),
    "asym_64": (lambda: _seeded_asymmetric([4, 4], [4], seed=1), 64, {(8, 8)}),
    "semidirect_42": (lambda: _seeded_semidirect([7], seed=0), 42, None),
    "semidirect_54": (lambda: _seeded_semidirect([3, 3], seed=2), 54, None),
    "semidirect_56": (lambda: _seeded_semidirect([2, 2, 2], seed=0), 56, None),
    "semidirect_64": (lambda: _seeded_semidirect([4, 4], seed=1), 64, None),
}


def _engine_off(*args, **kwargs):
    raise AssertionError("the oracle reached the ideal engine")


def _compare(B, started):
    """Check the engine's lattice verdicts on B against the oracle; returns the oracle's zero products."""
    add, mul = tabulate(B)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("ideal_closure", "_ideal_maps", "_AdditiveSpan"):
            patch.setattr(bracekit.braces, name, _engine_off)
        lattice, simple, prime, zero_products = _reference(add, mul)

    got = list_ideals(B)
    assert sorted((r.size, r.members.tolist()) for r in got) == lattice
    # the spans added through the cached addition table exactly when it fits one kernel block
    assert (B._add_table is not None) == (B.order**2 <= _BLOCK)
    verdict = is_simple(B)
    assert verdict.simple == simple
    if verdict.certificate is not None:
        assert (verdict.certificate.size, verdict.certificate.members.tolist()) in lattice
        assert 1 < verdict.certificate.size < B.order
    primeness = is_prime_brace(B, got)
    assert primeness.prime == prime
    assert primeness.witness_pair is None or primeness.witness_pair in zero_products
    assert time.perf_counter() - started < _BOUND_S
    return zero_products


@pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
@pytest.mark.parametrize("case", list(_LATTICE_CASES))
def test_lattice_verdicts_match_brute_force(case, relabel, request, started):
    B = _LATTICE_CASES[case](request)
    if relabel and B.order > 1:  # a one-element brace has no other labelling
        B = _relabelled(B, seed=2)
    _compare(B, started)


@pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
@pytest.mark.parametrize("case", list(_SEEDED_CASES))
def test_lattice_verdicts_match_brute_force_on_seeded_products(case, relabel, started):
    build, order, diagonal = _SEEDED_CASES[case]
    B = build()
    assert B.order == order
    if relabel:
        B = _relabelled(B, seed=3)
    zero_products = _compare(B, started)
    if diagonal is not None:
        assert zero_products == diagonal


def test_ns216_is_prime_and_not_simple(ns216, started):
    lattice, simple, prime, _ = _reference(*tabulate(ns216))
    assert [size for size, _ in lattice] == [1, 72, 216]
    assert prime and not simple
    assert time.perf_counter() - started < _BOUND_S
