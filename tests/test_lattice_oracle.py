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
in ``test_braces.py`` and on one seeded relabelling of each, 20 cases in all
(a one-element brace is its own relabelling).
Its 21 tests take about 4.5 s on a 2-core host (Python 3.11, numpy 2.4),
ns216 most of it; each test fails once 10 s have passed since the first.

The shipped ns216 brace is prime and not simple: its ideals are {0}, one of
order 72 and the whole brace, and I*I is not {0} for the middle one I. So the
prime-but-not-simple side is checked here on ns216 and its relabellings, not
only on the order-92160 example of AC8.
"""

import time

import numpy as np
import pytest

import bracekit.braces
from bracekit.braces import is_prime_brace, is_simple, list_ideals, tabulate
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


def _engine_off(*args, **kwargs):
    raise AssertionError("the oracle reached the ideal engine")


@pytest.mark.parametrize("relabel", [False, True], ids=["given", "relabelled"])
@pytest.mark.parametrize("case", list(_LATTICE_CASES))
def test_lattice_verdicts_match_brute_force(case, relabel, request, started):
    B = _LATTICE_CASES[case](request)
    if relabel and B.order > 1:  # a one-element brace has no other labelling
        B = _relabelled(B, seed=2)
    add, mul = tabulate(B)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("ideal_closure", "_ideal_maps", "_AdditiveSpan"):
            patch.setattr(bracekit.braces, name, _engine_off)
        lattice, simple, prime, zero_products = _reference(add, mul)

    got = list_ideals(B)
    assert sorted((r.size, r.members.tolist()) for r in got) == lattice
    verdict = is_simple(B)
    assert verdict.simple == simple
    if verdict.certificate is not None:
        assert (verdict.certificate.size, verdict.certificate.members.tolist()) in lattice
        assert 1 < verdict.certificate.size < B.order
    primeness = is_prime_brace(B, got)
    assert primeness.prime == prime
    assert primeness.witness_pair is None or primeness.witness_pair in zero_products
    assert time.perf_counter() - started < _BOUND_S


def test_ns216_is_prime_and_not_simple(ns216, started):
    lattice, simple, prime, _ = _reference(*tabulate(ns216))
    assert [size for size, _ in lattice] == [1, 72, 216]
    assert prime and not simple
    assert time.perf_counter() - started < _BOUND_S
