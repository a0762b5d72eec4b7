"""Structure checks for the multiplicative group of a finite brace.

The additive Sylow subgroups double as multiplicative Sylow subgroups here:
each is a left ideal, hence closed under a*b = a + lam_a(b), and its size
already equals the full p-part of the carrier.  That turns A-group detection
into per-block commutativity checks instead of general Sylow computation.

The derived subgroup is generated by the conjugates of the commutators of
the multiplicative generators. Conjugation is a gather from the tables of
``braces._ideal_maps``, the same tables ideal closures use, so no kernel is
called to conjugate; the orbit is closed by gathers in ``braces._close``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braces import (
    _BLOCK,
    FiniteBrace,
    IdealRecord,
    _close,
    _greedy_generators,
    _ideal_maps,
    _sorted_distinct,
    is_left_ideal,
)
from .errors import ConditionViolationError

__all__ = [
    "GroupReport",
    "derived_subgroup",
    "group_report",
    "is_abelian",
    "is_A_group",
    "is_metabelian",
    "sylow_left_ideals",
]


def _derived_search(B: FiniteBrace) -> tuple[list, np.ndarray]:
    """Generators of the derived subgroup of (B, mul), and its sorted members.

    The derived subgroup is generated by the conjugates of the commutators
    of the multiplicative generators. Those conjugates are the orbit of the
    commutators under the conjugation tables of ``_ideal_maps``, and the
    subgroup is the mask that the greedy search for generators of that
    orbit closes; its picks generate the subgroup.
    """
    gens = B.multiplicative_generators()
    inverses = B.inv(gens)
    commutators = B.mul(
        B.mul(inverses[:, None], inverses[None, :]), B.mul(gens[:, None], gens[None, :])
    )
    orbit = np.zeros(B.order, dtype=bool)
    frontier = _sorted_distinct(commutators)
    orbit[frontier] = True
    tables = _ideal_maps(B, two_sided=True)[1::2]
    _close(orbit, frontier, lambda f: tables[:, f].ravel())
    picks, mask = _greedy_generators(B, np.flatnonzero(orbit))
    return picks, np.flatnonzero(mask)


def derived_subgroup(B: FiniteBrace) -> np.ndarray:
    """Sorted members of the derived subgroup of (B, mul); see ``_derived_search``."""
    return _derived_search(B)[1]


def _pairwise_commuting(B: FiniteBrace, xs) -> bool:
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size <= 1:
        return True
    step = max(1, _BLOCK // xs.size)
    for i in range(0, xs.size, step):
        rows = xs[i : i + step]
        left = B.mul(rows[:, None], xs[None, :])
        right = B.mul(xs[None, :], rows[:, None])
        if not np.array_equal(left, right):
            return False
    return True


def is_abelian(B: FiniteBrace) -> bool:
    """A group is abelian exactly when its generators commute pairwise."""
    return _pairwise_commuting(B, B.multiplicative_generators())


def _is_abelian_subgroup(B: FiniteBrace, members) -> bool:
    """Whether a multiplicative subgroup, given by its members, is abelian.

    Its greedy generators generate it, so pairwise commuting generators
    suffice, by the argument of ``is_abelian``.
    """
    return _pairwise_commuting(B, _greedy_generators(B, members)[0])


def is_metabelian(B: FiniteBrace) -> bool:
    """True when the derived subgroup of (B, mul) is abelian: when its generators commute."""
    return _pairwise_commuting(B, _derived_search(B)[0])


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _additive_multiple(B: FiniteBrace, k: int, xs: np.ndarray) -> np.ndarray:
    """k-fold additive multiple of every entry, by doubling."""
    acc = np.full(xs.shape, B.zero(), dtype=np.int64)
    base = xs.astype(np.int64, copy=True)
    k = int(k)
    while k:
        if k & 1:
            acc = B.add(acc, base)
        base = B.add(base, base)
        k >>= 1
    return acc


def _sylow_plan(B: FiniteBrace) -> list[tuple[int, np.ndarray]]:
    blocks = getattr(B, "family_blocks", None)
    if blocks:
        return [(blk.prime, np.sort(blk.carrier_indices())) for blk in blocks]
    everything = B.elements()
    plan = []
    for p, e in _factorize(B.order):
        killed = _additive_multiple(B, p**e, everything)
        plan.append((p, np.flatnonzero(killed == B.zero()).astype(np.int64)))
    return plan


def _verified_sylow_records(B: FiniteBrace) -> list[tuple[int, IdealRecord]]:
    out = []
    for p, members in _sylow_plan(B):
        if not is_left_ideal(B, members):
            raise ConditionViolationError(
                f"the {p}-block of size {members.size} is not a left ideal"
            )
        out.append((p, IdealRecord.from_members(B, members, two_sided=False)))
    return out


def sylow_left_ideals(B: FiniteBrace) -> list[IdealRecord]:
    """One left ideal per prime divisor: the additive Sylow subgroup.

    Family-built braces expose their block slices directly; anything else is
    sieved by additive order (x belongs to the p-block iff p^v * x = 0).
    Every returned block is re-verified as a left ideal.
    """
    return [record for _, record in _verified_sylow_records(B)]


def is_A_group(B: FiniteBrace) -> bool:
    """True when every Sylow block is abelian under mul (checked on its generators)."""
    return all(_is_abelian_subgroup(B, rec.members) for rec in sylow_left_ideals(B))


@dataclass(frozen=True)
class GroupReport:
    """Summary of the multiplicative group structure of a finite brace."""

    is_abelian: bool
    is_metabelian: bool
    is_A_group: bool
    derived_size: int
    sylow_sizes: tuple

    def as_dict(self) -> dict:
        return {
            "is_abelian": self.is_abelian,
            "is_metabelian": self.is_metabelian,
            "is_A_group": self.is_A_group,
            "derived_size": self.derived_size,
            "sylow_sizes": [list(pair) for pair in self.sylow_sizes],
        }


def group_report(B: FiniteBrace) -> GroupReport:
    derived_gens, derived = _derived_search(B)
    sylow = _verified_sylow_records(B)
    return GroupReport(
        is_abelian=is_abelian(B),
        is_metabelian=_pairwise_commuting(B, derived_gens),
        is_A_group=all(_is_abelian_subgroup(B, rec.members) for _, rec in sylow),
        derived_size=int(derived.size),
        sylow_sizes=tuple((int(p), rec.size) for p, rec in sylow),
    )
