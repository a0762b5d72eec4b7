"""Block-cycle family builders, spec parsing, witnesses, exponent solving.

The CF72 brace (order 72, two blocks: a hyperbolic plane over Z/2 cycled
against a line over Z/3) is cross-checked against an independent naive
simulation written directly from the componentwise formulas, so the compiled
pairing/action/layout cannot drift from the intended algebra unnoticed.
"""

import dataclasses
import hashlib
import itertools
import time

import numpy as np
import pytest

from bracekit.braces import SemidirectProductBrace, TrivialBrace, check_axioms, ideal_closure, is_ideal, is_left_ideal, is_prime_brace, is_simple, list_ideals, star_span, tabulate
from bracekit.construct import (
    BlockData,
    FamilySpec,
    _assemble,
    build_family,
    build_prime_example,
    dump_spec,
    family_order,
    load_spec,
    nonsimple_witness,
    parse_spec,
    solve_exponents,
    validate_spec,
    verify_prime_example,
)
from bracekit.errors import (
    BelowBoundError,
    ConditionViolationError,
    NoWitnessError,
    SchemaError,
)

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


def _naive_cf72_tables():
    """CF72 by brute componentwise arithmetic, independent of the builders."""

    def f1(v, e):
        x1, x2 = v
        for _ in range(e % 3):
            x1, x2 = x2, (x1 + x2) % 2
        return x1, x2

    def f2(z, e):
        return z if e % 2 == 0 else -z % 3

    def b1(u, v):
        return (u[0] * v[1] + u[1] * v[0]) % 2

    elems = list(itertools.product(range(2), range(2), range(2), range(3), range(3)))

    def enc(x1, x2, s1, t2, s2):
        return x1 + 2 * x2 + 4 * s1 + 8 * t2 + 24 * s2

    add = np.zeros((72, 72), dtype=np.int64)
    mul = np.zeros((72, 72), dtype=np.int64)
    for x1, x2, s1, t2, s2 in elems:
        for y1, y2, u1, v2, u2 in elems:
            i = enc(x1, x2, s1, t2, s2)
            j = enc(y1, y2, u1, v2, u2)
            add[i, j] = enc(
                (x1 + y1) % 2,
                (x2 + y2) % 2,
                (s1 + u1 + b1((x1, x2), (y1, y2))) % 2,
                (t2 + v2) % 3,
                (s2 + u2 + t2 * v2) % 3,
            )
            w1, w2 = f1((y1, y2), s2)  # the second block's s twists the first block's t
            wz = f2(v2, s1)
            mul[i, j] = enc((x1 + w1) % 2, (x2 + w2) % 2, (s1 + u1) % 2, (t2 + wz) % 3, (s2 + u2) % 3)
    return add, mul


def test_cf72_matches_naive_simulation(cf72):
    add, mul = tabulate(cf72)
    naive_add, naive_mul = _naive_cf72_tables()
    assert np.array_equal(add, naive_add)
    assert np.array_equal(mul, naive_mul)


# SHA-256 of the little-endian int64 addition table followed by the
# multiplication table, captured before the kernels keyed alpha by integer
# s-keys and took length-1 operands; all three layouts interleave t and s
@pytest.mark.parametrize(
    "spec, digest",
    [
        (CF72_DICT, "341375be97c44c9cd09ce38763f38002c918438cbbba22ebe9db4f778bc4d88d"),
        (MF72_DICT, "341375be97c44c9cd09ce38763f38002c918438cbbba22ebe9db4f778bc4d88d"),
        (NS216_DICT, "53e23dd13fb60ea7ce38f2f96590b6918e8eaaadc5dcd76b46a0c7dda2c5cb93"),
    ],
    ids=["cf72", "mf72", "ns216"],
)
def test_tabulate_frozen(spec, digest):
    B = build_family(parse_spec(spec))
    assert B._layout.tolist() != list(range(B._layout.size))
    add, mul = tabulate(B)
    assert hashlib.sha256(add.astype("<i8").tobytes() + mul.astype("<i8").tobytes()).hexdigest() == digest


def test_cf72_basics(cf72):
    assert cf72.order == 72
    assert cf72.mul(24, 1) == 26
    assert cf72.lam(24, 1) == 2
    assert check_axioms(cf72, mode="exhaustive").ok


def test_cf72_is_simple_and_prime(cf72):
    res = is_simple(cf72)
    assert res.simple
    assert res.closures_run == 71
    lattice = list_ideals(cf72)
    assert [r.size for r in lattice] == [1, 72]
    assert is_prime_brace(cf72, lattice).prime


def test_cf72_validation_report():
    report = validate_spec(parse_spec(CF72_DICT))
    assert report.ok
    assert report.kind == "cycle"
    assert report.order == 72
    assert report.predicted_simple is True
    assert [b["map_order"] for b in report.blocks] == [3, 2]


def test_cf72_block_metadata(cf72):
    b0, b1 = cf72.family_blocks
    assert (b0.prime, b0.dim, b0.slots, b0.t_coords) == (2, 2, 1, (0, 2))
    assert (b1.prime, b1.dim, b1.slots, b1.t_coords) == (3, 1, 1, (2, 3))
    assert b0.carrier_indices().tolist() == list(range(8))
    assert b1.carrier_indices().tolist() == list(range(0, 72, 8))
    # each block is a left ideal (the additive Sylow subgroup)
    assert is_left_ideal(cf72, b0.carrier_indices())
    assert is_left_ideal(cf72, b1.carrier_indices())


def test_ns216_not_simple(ns216):
    assert ns216.order == 216
    report = validate_spec(parse_spec(NS216_DICT))
    assert report.ok
    assert report.predicted_simple is False
    res = is_simple(ns216)
    assert not res.simple


def test_ns216_witness(ns216):
    witness = nonsimple_witness(ns216)
    assert witness.size == 72
    assert is_ideal(ns216, witness.members)


def test_witness_refuses_simple_family(cf72):
    with pytest.raises(NoWitnessError):
        nonsimple_witness(cf72)


def test_matrix_family_rank_one_matches_cycle(cf72):
    mf = build_family(parse_spec(MF72_DICT))
    assert mf.order == 72
    add_c, mul_c = tabulate(cf72)
    add_m, mul_m = tabulate(mf)
    assert np.array_equal(add_c, add_m)
    assert np.array_equal(mul_c, mul_m)
    report = validate_spec(parse_spec(MF72_DICT))
    assert report.ok and report.kind == "matrix"


# valid (p, gram, f) blocks of dims 1-2 in the two-block cycle of primes 2 and
# 3: over Z/2 an orthogonal map of order 3, over Z/3 one of order 2
_VALID_BLOCKS = {
    2: [
        (((0, 1), (1, 0)), ((0, 1), (1, 1))),
        (((0, 1), (1, 0)), ((1, 1), (1, 0))),
    ],
    3: [
        (((1,),), ((2,),)),
        (((2,),), ((2,),)),
        (((1, 0), (0, 1)), ((2, 0), (0, 1))),
        (((1, 0), (0, 1)), ((2, 0), (0, 2))),
        (((1, 0), (0, 1)), ((0, 1), (1, 0))),
    ],
}


def _random_valid_spec(kind, rng):
    primes = [2, 3] if rng.integers(2) else [3, 2]
    rs = [int(x) for x in rng.integers(1, 4, size=2)]
    blocks = []
    for z, p in enumerate(primes):
        gram, f = _VALID_BLOCKS[p][int(rng.integers(len(_VALID_BLOCKS[p])))]
        m = max(rs[z], rs[z - 1]) + int(rng.integers(0, 2)) if kind == "cycle" else None
        blocks.append(BlockData(p=p, gram=gram, f=f, r=rs[z], m=m))
    spec = FamilySpec(blocks=tuple(blocks))
    assert spec.kind == kind and validate_spec(spec).ok
    return spec


def _reference_pairing_action(spec):
    """Pairing and action placed slot by slot as the construct module docstring states them."""
    blocks, n, cycle = spec.blocks, spec.n, spec.kind == "cycle"
    slots = [b.m if cycle else b.r * blocks[z - 1].r for z, b in enumerate(blocks)]
    t_start = np.cumsum([0] + [b.dim * k for b, k in zip(blocks, slots)]).tolist()
    s_start = np.cumsum([0] + [b.r for b in blocks]).tolist()
    dT, dS = t_start[-1], s_start[-1]
    pairing = np.zeros((dS, dT, dT), dtype=np.int64)
    action = np.tile(np.eye(dT, dtype=np.int64), (dS, 1, 1))

    def put(target, z, slot, matrix):
        lo = t_start[z] + slot * blocks[z].dim
        target[lo : lo + blocks[z].dim, lo : lo + blocks[z].dim] = matrix

    for z, b in enumerate(blocks):
        prev = (z - 1) % n
        r_prev = blocks[prev].r
        for i in range(b.r):
            # s-coordinate i of block z: the form summed over its slots
            if cycle:
                summed = [i] if i < b.r - 1 else range(b.m)
            else:
                summed = [i * r_prev + j for j in range(r_prev)]  # row i
            for slot in summed:
                put(pairing[s_start[z] + i], z, slot, np.asarray(b.gram))
        for j in range(r_prev):
            # the generator for s-coordinate j of block z-1 applies f in block z
            if cycle:
                moved = [j] if j < r_prev - 1 else range(b.m)
            else:
                moved = [ii * r_prev + j for ii in range(b.r)]  # column j
            for slot in moved:
                put(action[s_start[prev] + j], z, slot, np.asarray(b.f))
    return pairing, action


@pytest.mark.parametrize("kind", ["cycle", "matrix"])
def test_assemble_places_slots_as_documented(kind):
    rng = np.random.default_rng(22 if kind == "cycle" else 23)
    ranks, dims = set(), set()
    for _ in range(60):
        spec = _random_valid_spec(kind, rng)
        _, _, pairing, action, _, _ = _assemble(spec)
        want_pairing, want_action = _reference_pairing_action(spec)
        assert np.array_equal(pairing, want_pairing), dump_spec(spec)
        assert np.array_equal(action, want_action), dump_spec(spec)
        ranks.update(b.r for b in spec.blocks)
        dims.update(b.dim for b in spec.blocks)
    assert ranks == {1, 2, 3} and dims == {1, 2}


GENERIC_SIMPLE = {
    "blocks": [
        {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 2, "r": 2},
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 2, "r": 1},
    ]
}

GENERIC_NONSIMPLE = {
    "blocks": [
        {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 2, "r": 2},
        {"p": 3, "gram": [[1, 0], [0, 1]], "f": [[2, 0], [0, 1]], "m": 2, "r": 1},
    ]
}


def test_generic_rank_two_block_simple():
    spec = parse_spec(GENERIC_SIMPLE)
    report = validate_spec(spec)
    assert report.ok and report.order == 1728 and report.predicted_simple
    B = build_family(spec)
    assert B.order == 1728
    assert check_axioms(B, mode="sampled", trials=20_000).ok
    # structure probes: one-hot coordinates and random elements all generate
    rng = np.random.default_rng(0)
    seeds = set(B.multiplicative_generators().tolist()) | set(
        rng.integers(1, B.order, size=40).tolist()
    )
    for x in seeds:
        assert ideal_closure(B, [int(x)]).size == B.order
    with pytest.raises(NoWitnessError):
        nonsimple_witness(B)


def test_generic_rank_two_block_nonsimple():
    spec = parse_spec(GENERIC_NONSIMPLE)
    report = validate_spec(spec)
    assert report.ok and report.predicted_simple is False
    B = build_family(spec)
    assert B.order == 15552
    assert check_axioms(B, mode="sampled", trials=20_000).ok
    witness = nonsimple_witness(B)
    assert witness.size == 1728
    closure = ideal_closure(B, [int(witness.members[1])])
    assert closure.size <= witness.size


def test_parse_spec_error_paths():
    with pytest.raises(SchemaError, match="top level: unknown field 'block'"):
        parse_spec({"block": []})
    with pytest.raises(SchemaError, match="blocks: expected a non-empty list"):
        parse_spec({"blocks": []})
    with pytest.raises(SchemaError, match="'m' must appear in every block or in none"):
        parse_spec(
            {
                "blocks": [
                    {"p": 2, "gram": [[1]], "f": [[1]], "r": 1, "m": 1},
                    {"p": 3, "gram": [[1]], "f": [[1]], "r": 1},
                ]
            }
        )
    with pytest.raises(SchemaError, match=r"blocks\[0\]: unknown field 'q'"):
        parse_spec({"blocks": [{"p": 2, "gram": [[1]], "f": [[1]], "r": 1, "q": 7}]})
    with pytest.raises(SchemaError, match=r"blocks\[0\]: missing field 'f'"):
        parse_spec({"blocks": [{"p": 2, "gram": [[1]], "r": 1}]})
    with pytest.raises(SchemaError, match=r"blocks\[0\].gram: expected a square"):
        parse_spec({"blocks": [{"p": 2, "gram": [[1, 0]], "f": [[1]], "r": 1}]})
    with pytest.raises(SchemaError, match=r"blocks\[0\].f: expected a matrix of the same size"):
        parse_spec({"blocks": [{"p": 2, "gram": [[1]], "f": [[1, 0], [0, 1]], "r": 1}]})
    with pytest.raises(SchemaError, match=r"blocks\[0\].p: expected a positive integer"):
        parse_spec({"blocks": [{"p": True, "gram": [[1]], "f": [[1]], "r": 1}]})


def test_spec_roundtrip(tmp_path):
    spec = parse_spec(CF72_DICT)
    assert dump_spec(spec) == CF72_DICT
    path = tmp_path / "family.json"
    path.write_text(__import__("json").dumps(dump_spec(spec)))
    again = load_spec(path)
    assert again == spec
    assert family_order(again) == 72


def test_validate_spec_failures():
    bad_prime = parse_spec(
        {
            "blocks": [
                {"p": 4, "gram": [[1]], "f": [[1]], "m": 1, "r": 1},
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
            ]
        }
    )
    report = validate_spec(bad_prime)
    assert not report.ok
    assert any("is not prime" in msg for msg in report.failures)

    dup = parse_spec(
        {
            "blocks": [
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
            ]
        }
    )
    assert any("pairwise distinct" in msg for msg in validate_spec(dup).failures)

    wrong_order = parse_spec(
        {
            "blocks": [
                {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 1, "r": 1},
                {"p": 3, "gram": [[1]], "f": [[1]], "m": 1, "r": 1},  # identity map
            ]
        }
    )
    assert any("order 1, expected" in msg for msg in validate_spec(wrong_order).failures)

    small_m = parse_spec(
        {
            "blocks": [
                {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 1, "r": 2},
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
            ]
        }
    )
    assert any("below max" in msg for msg in validate_spec(small_m).failures)

    lone = parse_spec({"blocks": [{"p": 2, "gram": [[1]], "f": [[1]], "m": 1, "r": 1}]})
    assert any("at least two blocks" in msg for msg in validate_spec(lone).failures)


MIXED_BLOCKS = "blocks: field 'm' must appear in every block or in none"


def test_validate_spec_cycle_block_without_slot_count():
    # the shape is read off the blocks, so a cycle spec with a block lacking m
    # is refused when it is made, whether from blocks or from a dict
    blocks = parse_spec(CF72_DICT).blocks
    with pytest.raises(SchemaError) as caught:
        FamilySpec(blocks=(blocks[0], dataclasses.replace(blocks[1], m=None)))
    assert str(caught.value) == MIXED_BLOCKS
    raw = {"blocks": [CF72_DICT["blocks"][0], {k: v for k, v in CF72_DICT["blocks"][1].items() if k != "m"}]}
    with pytest.raises(SchemaError) as caught:
        parse_spec(raw)
    assert str(caught.value) == MIXED_BLOCKS


def test_validate_spec_matrix_block_with_slot_count():
    blocks = parse_spec(MF72_DICT).blocks
    with pytest.raises(SchemaError) as caught:
        FamilySpec(blocks=(dataclasses.replace(blocks[0], m=2), blocks[1]))
    assert str(caught.value) == MIXED_BLOCKS
    raw = {"blocks": [{**MF72_DICT["blocks"][0], "m": 2}, MF72_DICT["blocks"][1]]}
    with pytest.raises(SchemaError) as caught:
        parse_spec(raw)
    assert str(caught.value) == MIXED_BLOCKS


@pytest.mark.parametrize("p", [10**12 + 39, 10**18 + 9, 2**62 - 57])
def test_validate_spec_over_a_large_prime(p):
    # f = -1 preserves [[1]] and has order 2, the preceding prime, although
    # (p - 1)^2 overflows int64; no map over Z/2 has order p
    spec = FamilySpec(
        blocks=(
            BlockData(p=p, gram=((1,),), f=((p - 1,),), r=1, m=1),
            BlockData(p=2, gram=((1,),), f=((1,),), r=1, m=1),
        )
    )
    start = time.perf_counter()
    report = validate_spec(spec)
    assert time.perf_counter() - start < 1.0
    assert report.blocks[0]["map_order"] == 2 and report.blocks[0]["minus_id_bijective"]
    assert report.failures == [f"blocks[1].f: order 1, expected the preceding prime {p}"]


@pytest.mark.parametrize("p", [2**62, 2**63 - 25, 10**24])
def test_validate_spec_lists_moduli_from_2_62(p):
    # 2^63 - 25 is prime, 2^62 is the bound itself and 10^24 is beyond is_prime's exact range;
    # each is a listed failure, and the next block compares no map order with it
    spec = FamilySpec(
        blocks=(
            BlockData(p=p, gram=((1,),), f=((1,),), r=1, m=1),
            BlockData(p=3, gram=((1,),), f=((2,),), r=1, m=1),
        )
    )
    report = validate_spec(spec)
    assert not report.ok and report.order == 0
    assert report.failures == [
        f"blocks[0].p: {p} is not below 2^62, the bound for exact int64 arithmetic"
    ]
    assert [info["map_order"] for info in report.blocks] == [None, None]


def test_validate_spec_order_messages():
    # f = diag(2, 3) over Z/5 preserves [[0, 1], [1, 0]] and has order 4
    hyperbolic, f4 = [[0, 1], [1, 0]], [[2, 0], [0, 3]]
    not_dividing = parse_spec(
        {
            "blocks": [
                {"p": 5, "gram": hyperbolic, "f": f4, "m": 1, "r": 1},
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
            ]
        }
    )
    report = validate_spec(not_dividing)
    assert report.failures == [
        "blocks[0].f: order does not divide the preceding prime 3",
        "blocks[1].f: order does not divide the preceding prime 5",
    ]
    assert [info["map_order"] for info in report.blocks] == [None, None]
    # after a composite "prime" 4 no order is compared: f^4 = I must not pass as order 4
    after_composite = parse_spec(
        {
            "blocks": [
                {"p": 4, "gram": [[1]], "f": [[1]], "m": 1, "r": 1},
                {"p": 5, "gram": hyperbolic, "f": f4, "m": 1, "r": 1},
            ]
        }
    )
    report = validate_spec(after_composite)
    assert report.failures == ["blocks[0].p: 4 is not prime"]
    assert report.blocks[1]["map_order"] is None


def test_parse_spec_bounds_entries_to_int64():
    def spec_with(entry):
        return {
            "blocks": [
                {"p": 2, "gram": [[1]], "f": [[entry]], "m": 1, "r": 1},
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
            ]
        }

    assert parse_spec(spec_with(2**63 - 1)).blocks[0].f == ((2**63 - 1,),)
    assert parse_spec(spec_with(-(2**63))).blocks[0].f == ((-(2**63),),)
    for entry in (2**63, -(2**63) - 1, 10**29):
        with pytest.raises(SchemaError, match=r"blocks\[0\]\.f: entries must fit"):
            parse_spec(spec_with(entry))


def test_build_rejects_invalid_spec():
    spec = parse_spec(
        {
            "blocks": [
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
                {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
            ]
        }
    )
    with pytest.raises(ConditionViolationError, match="pairwise distinct"):
        build_family(spec)


def test_solve_exponents_frozen():
    assert solve_exponents((6, 2), (7, 3)) == ((1, 1), (1, 1))
    assert solve_exponents((6, 2), (42, 18)) == ((6, 8), (6, 2))
    with pytest.raises(BelowBoundError):
        solve_exponents((6, 2), (5, 3))
    with pytest.raises(ConditionViolationError):
        solve_exponents((2, 2), (4, 4))


def test_semidirect_factory_with_callable():
    A = TrivialBrace([3])
    C = TrivialBrace([2])

    def act(b):
        return [(i if b == 0 else -i % 3) for i in range(3)]

    sd = SemidirectProductBrace(A, C, np.stack([act(b) for b in range(C.order)]))
    assert sd.order == 6
    assert check_axioms(sd, mode="exhaustive").ok


def test_prime_example_build():
    B = build_prime_example()
    assert B.order == 92160
    assert B.A.order == 18432
    assert B.B.order == 5


def test_verify_prime_example_decides_from_the_lattice():
    out = verify_prime_example()
    assert out["checks"]["lattice_size"] == 3
    assert not [key for key in out["checks"] if "seeds" in key]
    assert out["simple"] is False and out["prime"] is True


def test_prime_example_inner_ideal():
    B = build_prime_example()
    inner = np.arange(B.A.order, dtype=np.int64)
    assert is_ideal(B, inner)
    # the outer factor alone is only a left ideal
    outer = B.A.order * np.arange(5, dtype=np.int64)
    assert is_left_ideal(B, outer)
    assert not is_ideal(B, outer)
    # the inner simple factor reproduces itself under the star product
    assert np.array_equal(star_span(B, inner, inner), inner)


def test_prime_example_star_products():
    # A*A = A*B = B*A = B*B = A for the inner factor A of the whole brace B
    B = build_prime_example()
    inner = np.arange(B.A.order, dtype=np.int64)
    full = B.elements()
    for left in (inner, full):
        for right in (inner, full):
            assert np.array_equal(star_span(B, left, right), inner)
