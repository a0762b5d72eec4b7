"""Multiplicative group analysis: derived subgroup, Sylow blocks, predicates.

The derived-subgroup routine works from generator commutators and their
conjugation orbit; the oracle here generates from ALL commutators (that set is
conjugation-closed, so no closure pass is needed) and must agree.
"""

from pathlib import Path

import numpy as np
import pytest

import bracekit.groupinfo as groupinfo
from bracekit.braces import SemidirectProductBrace, TrivialBrace
from bracekit.construct import build_family, load_spec, parse_spec
from bracekit.errors import BudgetExceededError
from bracekit.groupinfo import (
    GroupReport,
    derived_subgroup,
    group_report,
    is_A_group,
    is_abelian,
    is_metabelian,
    multiplicative_closure,
    sylow_left_ideals,
)
from bracekit.groupinfo import _additive_multiple

SPECS = Path(__file__).resolve().parent.parent / "demos/specs"

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


@pytest.fixture(scope="module")
def cf72():
    return build_family(parse_spec(CF72_DICT))


@pytest.fixture(scope="module")
def sd6():
    return SemidirectProductBrace(TrivialBrace([3]), TrivialBrace([2]), [[0, 1, 2], [0, 2, 1]])


def _all_commutator_subgroup(B):
    idx = B.elements()
    left = B.mul(B.inv(idx)[:, None], B.inv(idx)[None, :])
    right = B.mul(idx[:, None], idx[None, :])
    commutators = np.unique(B.mul(left, right))
    return multiplicative_closure(B, commutators.tolist())


def test_derived_subgroup_cf72_against_all_pairs(cf72):
    derived = derived_subgroup(cf72)
    assert derived.size == 12
    assert np.array_equal(derived, _all_commutator_subgroup(cf72))


@pytest.mark.parametrize("spec", ["mf72", "ns216"])
def test_derived_subgroup_shipped_specs_against_all_pairs(spec):
    B = build_family(load_spec(SPECS / f"{spec}.json"))
    assert np.array_equal(derived_subgroup(B), _all_commutator_subgroup(B))


def test_derived_subgroup_sd6(sd6):
    derived = derived_subgroup(sd6)
    assert derived.tolist() == [0, 1, 2]
    assert np.array_equal(derived, _all_commutator_subgroup(sd6))


def test_derived_trivial_brace_is_identity():
    B = TrivialBrace([2, 3])
    assert derived_subgroup(B).tolist() == [0]
    assert is_abelian(B)
    assert is_metabelian(B)
    assert is_A_group(B)


def test_one_element_brace_has_trivial_group_structure():
    B = TrivialBrace([1])
    assert B.multiplicative_generators().tolist() == [0]
    assert derived_subgroup(B).tolist() == [0]  # no conjugation table to close the orbit under
    report = group_report(B)
    assert report.derived_size == 1 and report.is_abelian and report.is_metabelian
    assert is_metabelian(B)


def test_derived_subgroup_is_searched_once(cf72, sd6, monkeypatch):
    # the greedy search for generators closes the subgroup; no second closure follows
    searched = []
    greedy = groupinfo._greedy_generators

    def counted(B, pool, inside=None):
        searched.append(len(pool))
        return greedy(B, pool, inside)

    def closed_again(*args, **kwargs):
        raise AssertionError("the derived subgroup was closed a second time")

    monkeypatch.setattr(groupinfo, "_greedy_generators", counted)
    monkeypatch.setattr(groupinfo, "multiplicative_closure", closed_again)
    for B in (cf72, sd6):
        searched.clear()
        derived_subgroup(B)
        assert len(searched) == 1


def test_abelian_and_metabelian_flags(cf72, sd6):
    assert not is_abelian(cf72)
    assert is_metabelian(cf72)
    assert not is_abelian(sd6)
    assert is_metabelian(sd6)


def test_multiplicative_closure_cyclic(sd6):
    assert multiplicative_closure(sd6, []).tolist() == [0]
    assert multiplicative_closure(sd6, [4]).tolist() == [0, 4]
    assert multiplicative_closure(sd6, [1]).tolist() == [0, 1, 2]
    assert multiplicative_closure(sd6, [1, 4]).size == 6


def test_sylow_blocks_family(cf72):
    records = sylow_left_ideals(cf72)
    assert [rec.size for rec in records] == [8, 9]
    assert records[0].members.tolist() == list(range(8))
    assert records[1].members.tolist() == list(range(0, 72, 8))


def test_sylow_blocks_ns216():
    ns216 = build_family(parse_spec(NS216_DICT))
    assert [rec.size for rec in sylow_left_ideals(ns216)] == [8, 27]


def test_sylow_blocks_sieved(sd6):
    # no block metadata on a semidirect product: additive-order sieve kicks in
    records = sylow_left_ideals(sd6)
    assert [rec.size for rec in records] == [2, 3]
    assert records[0].members.tolist() == [0, 3]
    assert records[1].members.tolist() == [0, 1, 2]
    flat = sylow_left_ideals(TrivialBrace([6]))
    assert [rec.size for rec in flat] == [2, 3]


def test_is_A_group(cf72, sd6):
    assert is_A_group(cf72)
    assert is_A_group(sd6)


def test_group_report_cf72(cf72):
    report = group_report(cf72)
    assert report == GroupReport(
        is_abelian=False,
        is_metabelian=True,
        is_A_group=True,
        derived_size=12,
        sylow_sizes=((2, 8), (3, 9)),
    )
    assert int(np.prod([s for _, s in report.sylow_sizes])) == cf72.order
    d = report.as_dict()
    assert d["derived_size"] == 12 and d["sylow_sizes"] == [[2, 8], [3, 9]]


def test_group_report_invariant_abelian_implies_metabelian():
    for B in (TrivialBrace([4]), TrivialBrace([2, 2, 3])):
        report = group_report(B)
        assert report.is_abelian and report.is_metabelian
        assert report.derived_size == 1


def test_budget_guard(cf72):
    with pytest.raises(BudgetExceededError):
        derived_subgroup(cf72, budget=10)


def test_sylow_decomposition_is_direct(cf72):
    # CRT coefficients 9 and 64 split every element across the two blocks
    xs = cf72.elements()
    part2 = _additive_multiple(cf72, 9, xs)
    part3 = _additive_multiple(cf72, 64, xs)
    assert np.array_equal(cf72.add(part2, part3), xs)
    rec2, rec3 = sylow_left_ideals(cf72)
    assert rec2.contains(part2)
    assert rec3.contains(part3)
