"""Structure checks for the multiplicative group of a finite brace.

The additive Sylow subgroups double as multiplicative Sylow subgroups here:
each is a left ideal, hence closed under a*b = a + lam_a(b), and its size
already equals the full p-part of the carrier.  That turns A-group detection
into per-block commutativity checks instead of general Sylow computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braces import (
    _CHUNK,
    FiniteBrace,
    IdealRecord,
    _greedy_generators,
    is_left_ideal,
    multiplicative_closure,
)
from .errors import BudgetExceededError, ConditionViolationError

__all__ = [
    "GroupReport",
    "derived_subgroup",
    "group_report",
    "is_abelian",
    "is_A_group",
    "is_metabelian",
    "multiplicative_closure",
    "sylow_left_ideals",
]


def _commutator(B: FiniteBrace, g: int, h: int) -> int:
    return int(B.mul(B.mul(B.inv(g), B.inv(h)), B.mul(g, h)))


def derived_subgroup(B: FiniteBrace, budget: int = 1_000_000) -> np.ndarray:
    """Sorted members of the derived subgroup of (B, mul).

    Starts from commutators of the multiplicative generators and closes under
    both the group operation and conjugation by generators; the conjugation
    pass is what makes the result the full normal closure.
    """
    if B.order > budget:
        raise BudgetExceededError(
            f"carrier of size {B.order} exceeds the budget of {budget}"
        )
    gens = B.multiplicative_generators().tolist()
    seeds = {_commutator(B, g, h) for g in gens for h in gens}
    seeds.discard(B.zero())
    members = multiplicative_closure(B, seeds)
    while True:
        mask = np.zeros(B.order, dtype=bool)
        mask[members] = True
        fresh: list[int] = []
        for g in gens:
            conj = B.mul(B.inv(g), B.mul(members, g))
            new = conj[~mask[conj]]
            if new.size:
                fresh.extend(int(x) for x in np.unique(new))
        if not fresh:
            return members
        seeds.update(fresh)
        members = multiplicative_closure(B, seeds)


def _pairwise_commuting(B: FiniteBrace, xs) -> bool:
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size <= 1:
        return True
    step = max(1, _CHUNK // xs.size)
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
    return _pairwise_commuting(B, _greedy_generators(B, members))


def is_metabelian(B: FiniteBrace, budget: int = 1_000_000) -> bool:
    """True when the derived subgroup of (B, mul) is abelian."""
    return _is_abelian_subgroup(B, derived_subgroup(B, budget=budget))


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


def group_report(B: FiniteBrace, budget: int = 1_000_000) -> GroupReport:
    derived = derived_subgroup(B, budget=budget)
    sylow = _verified_sylow_records(B)
    return GroupReport(
        is_abelian=is_abelian(B),
        is_metabelian=_is_abelian_subgroup(B, derived),
        is_A_group=all(_is_abelian_subgroup(B, rec.members) for _, rec in sylow),
        derived_size=int(derived.size),
        sylow_sizes=tuple((int(p), rec.size) for p, rec in sylow),
    )
