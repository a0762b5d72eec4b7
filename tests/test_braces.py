"""Core brace carriers, axiom checking, and the ideal machinery.

The fixed expected values in this file were computed by hand from the
defining formulas (componentwise addition with a pairing correction, action
twist on multiplication) before the implementation existed.
"""

import hashlib
import math
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracekit.braces
from bracekit.bounds import find_orthogonal_element, witness_block
from bracekit.braces import (
    AsymmetricProductBrace,
    AxiomReport,
    BraceElement,
    IdealRecord,
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
    _BLOCK,
    _AdditiveSpan,
    _MixedRadix,
    _check_triples,
    _draw_triples,
    _greedy_generators,
    _ideal_maps,
    _orbit_labels,
    _subgroup_generators,
)
from bracekit.construct import build_family, build_prime_example, load_spec, parse_spec
from bracekit.errors import (
    ActionNotAutomorphismError,
    ConditionViolationError,
    IncompleteLatticeError,
)
from bracekit.modular import is_prime


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


@pytest.fixture(scope="module")
def factor_a():
    # the order-18432 simple factor of the order-92160 prime example
    return build_prime_example().A


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


@pytest.mark.parametrize(
    "t_moduli, pairing",
    [
        ([2], [[[1]]]),  # b(2e, e) = 2, not 0 mod 3
        ([2, 3], [[[0, 1], [1, 0]]]),  # b(3e_1, e_0) = 3, not 0 mod 2
    ],
)
def test_validation_rejects_pairing_off_the_moduli(t_moduli, pairing):
    s_moduli = [3] if len(t_moduli) == 1 else [2]
    gens = [np.eye(len(t_moduli), dtype=int).tolist()]
    message = "pairing does not respect the coordinate moduli"
    with pytest.raises(ConditionViolationError, match=message):
        AsymmetricProductBrace(t_moduli, s_moduli, pairing, gens)


@pytest.mark.parametrize("gen", [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
def test_validation_rejects_action_off_the_moduli(gen):
    # on Z/2 x Z/3 an entry joining the two coordinates is not well defined
    message = "action does not respect the coordinate moduli"
    with pytest.raises(ConditionViolationError, match=message):
        AsymmetricProductBrace([2, 3], [2], np.zeros((1, 2, 2), dtype=int), [gen])


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


def _build_bulk750k():
    # the order-750141 (3^7 * 7^3) brace of the smallest family
    block1 = witness_block(find_orthogonal_element(3, 7, 6))
    block2 = witness_block(find_orthogonal_element(7, 3, 2))
    return build_family(parse_spec({"blocks": [block1, block2]}))


@pytest.fixture(scope="module")
def bulk750k():
    return _build_bulk750k()


@pytest.fixture(scope="module")
def inner18432():
    # the simple factor A of the order-92160 prime example
    return build_prime_example().A


def _alpha_reference(B, s, t):
    # alpha_s(t) = M(s) t mod t_moduli on (dS, n) s rows and (dT, n) t rows,
    # M(s) the product of generator powers, found once per distinct s
    n = max(s.shape[1], t.shape[1])
    s, t = np.broadcast_to(s, (s.shape[0], n)), np.broadcast_to(t, (t.shape[0], n))
    out = np.empty((t.shape[0], n), dtype=np.int64)
    keys, which = np.unique(s, axis=1, return_inverse=True)
    for j in range(keys.shape[1]):
        m = np.eye(t.shape[0], dtype=np.int64)
        for l, e in enumerate(keys[:, j].tolist()):
            m = B._gen_powers[l][e] @ m % B._tm[:, None]
        columns = which.ravel() == j
        out[:, columns] = m @ t[:, columns] % B._tm[:, None]
    return out


_ALPHA_CASES = {
    "asym9": lambda request: request.getfixturevalue("asym9"),
    "cf72": lambda request: request.getfixturevalue("cf72"),
    "ns216": lambda request: request.getfixturevalue("ns216"),
    "s257": lambda request: AsymmetricProductBrace([2], [257], np.zeros((1, 1, 1)), [[[1]]]),
    "s258": lambda request: AsymmetricProductBrace([3], [258], np.zeros((1, 1, 1)), [[[2]]]),
    # alpha_1 = -1 on Z/257, so coordinates no longer fit in a byte
    "t257": lambda request: AsymmetricProductBrace([257], [2], np.zeros((1, 1, 1)), [[[256]]]),
}


@pytest.mark.parametrize("case", sorted(_ALPHA_CASES))
def test_alpha_table_matches_matrix_reference(case, request):
    B = _ALPHA_CASES[case](request)
    # every element is one (t, s) pair, so this covers every key and every t
    t, s = B._split(B.elements())
    got = B._alpha(s, t)
    assert np.array_equal(got, _alpha_reference(B, s, t))
    table = B._alpha_table
    assert table.shape[0] == B.order and table.shape[1] * table.itemsize in (1, 2, 4, 8)
    # row (t, s) is the index of [t..., s...] in the unpermuted logical order
    rows = _MixedRadix(np.concatenate([B._tm, B._sm])).encode(np.vstack([t, s]).T)
    assert np.array_equal(table[rows, : B._tm.size].T, got)
    assert table.dtype == np.min_scalar_type(int(B._tm.max()) - 1)
    assert table.dtype == (np.uint16 if case == "t257" else np.uint8)
    # a length-1 s against every t, and every s against a length-1 t
    for i in np.linspace(0, B.order - 1, 5).astype(int).tolist():
        one_s, one_t = s[:, i : i + 1], t[:, i : i + 1]
        assert np.array_equal(B._alpha(one_s, t), _alpha_reference(B, one_s, t))
        assert np.array_equal(B._alpha(s, one_t), _alpha_reference(B, s, one_t))
        assert np.array_equal(B._alpha(one_s, one_t), _alpha_reference(B, one_s, one_t))


def test_alpha_table_on_the_order_18432_factor(inner18432):
    A = inner18432
    rng = np.random.default_rng(5)
    t, s = A._split(rng.integers(0, A.order, 5_000))
    assert np.array_equal(A._alpha(s, t), _alpha_reference(A, s, t))
    assert np.array_equal(A._alpha(s[:, :1], t), _alpha_reference(A, s[:, :1], t))
    assert np.array_equal(A._alpha(s, t[:, :1]), _alpha_reference(A, s, t[:, :1]))
    assert A._alpha_table.shape == (18432, 16) and A._alpha_table.dtype == np.uint8


def test_construction_builds_no_alpha_table():
    fresh = [
        AsymmetricProductBrace([3], [3], [[[1]]], [[[1]]]),
        build_family(load_spec(SPECS / "cf72.json")),
        build_family(load_spec(SPECS / "ns216.json")),
        _build_bulk750k(),
    ]
    for B in fresh:
        assert B._alpha_table is None
        B.mul(B.order - 1, B.order - 1)
        assert B._alpha_table.shape[0] == B.order and B._alpha_table.shape[1] >= B._tm.size


# SHA-256 of the little-endian int64 results on 100,000 seeded operands
# (default_rng(0): x, then y, each integers(0, order, 100_000)), recorded
# before the kernels applied alpha through a table
_FROZEN_KERNEL_DIGESTS = {
    "bulk750k": {
        "add": "ba39d89d98d476b5a0c28c3ac7ea6ec245706d65881141b4518e375d3c1614d0",
        "mul": "a2415cf2ea15202e43aef2d945b634f1fe5c5bfa8453b060ce0724a1c0ab7b22",
        "lam": "502d8f4fbbcf5a4f138505fe96a376c586a8dc84a0a8bd552888095fa987c48b",
        "inv": "c7c98b57e5e7babaad004d5ad08cb8c2cfcb4295d7cd3da82ebc7c4d689e0b7c",
        "neg": "17a6e3ecc40d9c25d21c203f50972921dae050f2ecf58ec7f0b8ee2a9543e4aa",
    },
    "inner18432": {
        "add": "c23fa188d158b2d0d5ce119522d46ad520aa669ba3e94ed12854c5803f265e10",
        "mul": "fd8e083eb54d24ad7670f318da7c98a82e88412b4852009f594d43aa973f3282",
        "lam": "5b9b7c66ab6244b540f1f994c2cd549e412c56b3ec88ab065ee148612e373be9",
        "inv": "4da437ede0d59f84037806a61bd7732fb350fe3500dd411096a8791e1ce90cff",
        "neg": "fab9c30fb07d9d4b2ecca9e238fc903ff77bafeca687486887a223f3e2483fa1",
    },
}


@pytest.mark.parametrize("case", sorted(_FROZEN_KERNEL_DIGESTS))
def test_large_kernels_frozen(case, request):
    B = request.getfixturevalue(case)
    rng = np.random.default_rng(0)
    x = rng.integers(0, B.order, 100_000)
    y = rng.integers(0, B.order, 100_000)
    got = {}
    for op, args in (("add", (x, y)), ("mul", (x, y)), ("lam", (x, y)), ("inv", (x,)), ("neg", (x,))):
        result = getattr(B, op)(*args)
        assert result.dtype == np.int64
        got[op] = hashlib.sha256(result.astype("<i8").tobytes()).hexdigest()
    assert got == _FROZEN_KERNEL_DIGESTS[case]


def _coordinate_reference(B, op, x, y=None):
    # the asymmetric product's kernels as (n, d) coordinate formulas, one row
    # per element, as they stood before the kernels moved to digit rows; the
    # digits come from the weights and alpha from the matrix reference
    weights, moduli, dt = B._logical.weights, B._logical.moduli, B._dt
    tm, sm = B._tm, B._sm

    def split(idx):
        logical = idx[:, None] // weights % moduli
        return logical[:, :dt], logical[:, dt:]

    def join(t, s):
        return np.concatenate([t, s], axis=1) @ weights

    def pair_val(t1, t2):
        return np.einsum("kij,ni,nj->nk", B._pairing, t1, t2) % sm

    def alpha(s, t):
        return _alpha_reference(B, s.T, t.T).T

    t1, s1 = split(x)
    if op == "neg":
        return join(-t1 % tm, (-s1 + pair_val(t1, t1)) % sm)
    if op == "inv":
        s_inv = -s1 % sm
        return join(alpha(s_inv, -t1 % tm), s_inv)
    t2, s2 = split(y)
    if op == "add":
        return join((t1 + t2) % tm, (s1 + s2 + pair_val(t1, t2)) % sm)
    assert op == "mul"
    return join((t1 + alpha(s1, t2)) % tm, (s1 + s2) % sm)


def _assert_kernels_match_reference(B, x, y, singles, binary=("add", "mul"), unary=("neg", "inv")):
    # x and y have equal lengths; each single is also paired with y on the
    # left and with x on the right, as a length-1 operand
    pairs = [(x, y)]
    for g in singles:
        one = np.array([g], dtype=np.int64)
        pairs += [(one, y), (x, one)]
    for op in binary:
        for a, b in pairs:
            got = getattr(B, op)(a, b)
            a_full, b_full = np.broadcast_arrays(a, b)
            assert np.array_equal(got, _coordinate_reference(B, op, a_full, b_full)), (op, a.size, b.size)
    for op in unary:
        assert np.array_equal(getattr(B, op)(x), _coordinate_reference(B, op, x)), op


@pytest.mark.parametrize("spec", ["cf72", "mf72"])
def test_kernels_match_the_coordinate_reference_on_every_pair(spec):
    B = build_family(load_spec(SPECS / f"{spec}.json"))
    idx = B.elements()
    x, y = np.repeat(idx, B.order), np.tile(idx, B.order)
    _assert_kernels_match_reference(B, x, y, singles=[0, 1, 37, B.order - 1])
    assert np.array_equal(B.neg(idx), _coordinate_reference(B, "neg", idx))
    assert np.array_equal(B.inv(idx), _coordinate_reference(B, "inv", idx))


def test_kernels_match_the_coordinate_reference_on_the_order_18432_factor(inner18432):
    A = inner18432
    rng = np.random.default_rng(12)
    x = A.elements()
    _assert_kernels_match_reference(A, x, rng.permutation(A.order), singles=[0, 5_001, A.order - 1])


def test_kernels_match_the_coordinate_reference_at_order_750141(bulk750k):
    B = bulk750k
    rng = np.random.default_rng(13)
    x, y = rng.integers(0, B.order, (2, 10_000))
    singles = [0, B.order - 1, *B.multiplicative_generators()[:3].tolist()]
    _assert_kernels_match_reference(B, x, y, singles)


@st.composite
def small_asymmetric_products(draw):
    # random moduli, a random symmetric pairing that respects them (entry
    # (i, j) of component k is a multiple of s_k / gcd(s_k, t_i, t_j)) on a
    # random set of t rows, often not contiguous, each action generator the
    # identity or -1 (order 2, so only for even s_k), and a random layout
    dt, ds = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    tm = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=dt, max_size=dt))
    sm = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=ds, max_size=ds))
    pairing = np.zeros((ds, dt, dt), dtype=np.int64)
    for k in range(ds):
        rows = draw(st.lists(st.booleans(), min_size=dt, max_size=dt))
        for i in range(dt):
            for j in range(i, dt):
                g = math.gcd(sm[k], tm[i], tm[j]) if rows[i] and rows[j] else 1
                pairing[k, i, j] = pairing[k, j, i] = draw(st.integers(0, g - 1)) * (sm[k] // g)
    gens = [
        -np.eye(dt, dtype=np.int64) if m % 2 == 0 and draw(st.booleans()) else np.eye(dt, dtype=np.int64)
        for m in sm
    ]
    layout = draw(st.permutations(range(dt + ds)))
    B = AsymmetricProductBrace(tm, sm, pairing, gens, layout=layout)
    seed = draw(st.integers(0, 2**32 - 1))
    return B, seed


@settings(max_examples=60, deadline=None)
@given(small_asymmetric_products())
def test_kernels_match_the_coordinate_reference_on_random_products(data):
    B, seed = data
    rng = np.random.default_rng(seed)
    x = B.elements()
    singles = rng.integers(0, B.order, 2).tolist()
    _assert_kernels_match_reference(B, x, rng.permutation(B.order), singles)


_BLOCK_LENGTHS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]


def _trivial_reference(B, op, x, y=None):
    # a product of cyclics on coordinates from the weights, reduced by %

    def digits(idx):
        return idx[:, None] // B.codec.weights % B.moduli

    total = -digits(x) if op in ("neg", "inv") else digits(x) + digits(y)
    return (total % B.moduli) @ B.codec.weights


def _assert_trivial_kernels_match_reference(B, x, y, singles):
    # as _assert_kernels_match_reference, for a TrivialBrace
    for g in singles:
        one = np.array([g], dtype=np.int64)
        for a, b in ((x, y), (one, y), (x, one)):
            a_full, b_full = np.broadcast_arrays(a, b)
            want = _trivial_reference(B, "add", a_full, b_full)
            assert np.array_equal(B.add(a, b), want)
            assert np.array_equal(B.mul(a, b), want)
    assert np.array_equal(B.neg(x), _trivial_reference(B, "neg", x))
    assert np.array_equal(B.inv(x), _trivial_reference(B, "inv", x))


@pytest.mark.parametrize("length", _BLOCK_LENGTHS)
def test_kernels_match_the_references_across_block_boundaries(length, cf72):
    # operands shorter than, as long as, and longer than one block of
    # columns, paired with length-1 operands on either side; no kernel
    # writes to its operands
    rng = np.random.default_rng(length)
    trivial = TrivialBrace([4, 3, 2])
    for B in (cf72, trivial):
        x, y = rng.integers(0, B.order, (2, length))
        singles = [0, B.order - 1]
        kept = x.copy(), y.copy()
        if B is cf72:
            _assert_kernels_match_reference(B, x, y, singles)
        else:
            _assert_trivial_kernels_match_reference(B, x, y, singles)
        assert np.array_equal(x, kept[0]) and np.array_equal(y, kept[1])


# carriers on both sides of each bound that picks a dtype of the digit-row
# kernels, with the rows and the pairing contraction it picks: rows below
# 3 * max(moduli) for an asymmetric product and 2 * max(moduli) for a
# trivial brace, and a contraction whose largest value, plus the s modulus,
# is below 2^24 (float32) or 2^53 (float64)
_DTYPE_BOUNDS = {
    "asym85": (lambda: AsymmetricProductBrace([85], [85], [[[1]]], [[[1]]]), np.uint8, np.float32),
    "asym86": (lambda: AsymmetricProductBrace([86], [86], [[[1]]], [[[1]]]), np.uint16, np.float32),
    "trivial128": (lambda: TrivialBrace([128]), np.uint8, None),
    "trivial129": (lambda: TrivialBrace([129]), np.uint16, None),
    "pair4096": (lambda: AsymmetricProductBrace([4096], [2], [[[1]]], [[[4095]]]), np.uint16, np.float32),
    "pair4098": (lambda: AsymmetricProductBrace([4098], [2], [[[1]]], [[[4097]]]), np.uint16, np.float64),
    "pair2^26": (lambda: AsymmetricProductBrace([2**26], [2], [[[1]]], [[[1]]]), np.uint32, np.float64),
    "pair2^27": (lambda: AsymmetricProductBrace([2**27], [2], [[[1]]], [[[1]]]), np.uint32, np.int64),
    "trivial2^40": (lambda: TrivialBrace([2**40, 3]), np.uint64, None),
}


@pytest.mark.parametrize("case", list(_DTYPE_BOUNDS))
def test_kernels_match_the_references_on_both_sides_of_each_dtype_bound(case):
    make, rows, contract = _DTYPE_BOUNDS[case]
    B = make()
    assert B._rows == rows
    if contract is not None:
        assert B._contract == contract
    rng = np.random.default_rng(list(_DTYPE_BOUNDS).index(case))
    top = B.order - 1  # every digit at its largest
    for length in (_BLOCK - 1, _BLOCK + 1):
        x, y = rng.integers(0, B.order, (2, length))
        x[:2], y[:2] = top, [top, 0]
        if isinstance(B, TrivialBrace):
            _assert_trivial_kernels_match_reference(B, x, y, [top])
        elif B.order > 2**20:
            # mul and inv would build an alpha table of one row per element
            _assert_kernels_match_reference(B, x, y, [top], binary=("add",), unary=("neg",))
        else:
            _assert_kernels_match_reference(B, x, y, [top])


@pytest.mark.parametrize("name", ["trivial", "cf72"])
def test_kernels_name_an_index_outside_the_carrier_in_the_last_block(name, cf72):
    B = cf72 if name == "cf72" else TrivialBrace([4, 3, 2])
    good = np.arange(2 * _BLOCK + 3, dtype=np.int64) % B.order
    for bad in (B.order, -1):
        x = good.copy()
        x[-2] = bad
        calls = {
            "add left": lambda: B.add(x, good),
            "add right": lambda: B.add(good, x),
            "mul left": lambda: B.mul(x, 1),
            "mul right": lambda: B.mul(1, x),
            "neg": lambda: B.neg(x),
            "inv": lambda: B.inv(x),
        }
        for what, call in calls.items():
            with pytest.raises(IndexError, match=rf"index {bad} outside"):
                call()
                pytest.fail(f"{what} returned")


def test_threads_sharing_a_brace_get_their_own_results(cf72):
    # the kernels' scratch rows are per thread: threads that interleave their
    # blocks on one brace still get the single-threaded results
    rng = np.random.default_rng(21)
    operands = [rng.integers(0, cf72.order, (2, 2 * _BLOCK + 3)) for _ in range(4)]

    def results(x, y):
        return cf72.add(x, y), cf72.mul(x, y), cf72.neg(x), cf72.inv(x), cf72.mul(5, x)

    want = [results(x, y) for x, y in operands]
    failures = []

    def work(i):
        for _ in range(5):
            if not all(np.array_equal(g, w) for g, w in zip(results(*operands[i]), want[i])):
                failures.append(i)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(operands))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_pairings_beyond_int64_are_rejected():
    # r^2 (q - 1) (p - 1)^2 + q bounds the pairing sums: about 5.2e18 for
    # p = 3 * 2^29 and 8.3e19 for p = 3 * 2^31, against 2^63 = 9.2e18
    assert AsymmetricProductBrace([3 * 2**29], [3], [[[1]]], [[[1]]])._contract == np.int64
    with pytest.raises(ValueError, match="do not fit int64"):
        AsymmetricProductBrace([3 * 2**31], [3], [[[1]]], [[[1]]])


def test_threads_making_the_first_alpha_build_get_the_one_thread_results():
    # four threads make the first mul and inv on a fresh brace: whichever
    # builds the alpha table, none may read one that is not complete
    rng = np.random.default_rng(24)
    operands = [rng.integers(0, 72, (2, 2 * _BLOCK + 3)) for _ in range(4)]
    one = build_family(load_spec(SPECS / "cf72.json"))
    want = [(one.mul(x, y), one.inv(x)) for x, y in operands]
    fresh = build_family(load_spec(SPECS / "cf72.json"))
    assert fresh._alpha_table is None
    start = threading.Barrier(len(operands))
    got = [None] * len(operands)

    def work(i):
        x, y = operands[i]
        start.wait(timeout=60)
        got[i] = (fresh.mul(x, y), fresh.inv(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(operands))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert g is not None
        assert np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1])


@pytest.mark.parametrize("name", ["bulk750k", "trivial"])
def test_kernel_calls_allocate_little_beyond_their_result(name, request):
    # a call on 4 blocks of columns holds its result and temporaries of at
    # most a few rows of one block, once a first call has sized this
    # thread's scratch rows
    B = request.getfixturevalue(name) if name == "bulk750k" else TrivialBrace([2**40, 3])
    d = B.codec.moduli.size
    rng = np.random.default_rng(22)
    x, y = rng.integers(0, B.order, (2, 4 * _BLOCK))
    g = int(B.multiplicative_generators()[-1])
    calls = [("add", (x, y)), ("mul", (x, y)), ("add", (x, g)), ("mul", (g, x))]
    for op, args in calls + [("neg", (x,)), ("inv", (x,))]:
        kernel = getattr(B, op)
        kernel(*args)
        tracemalloc.start()
        try:
            got = kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 2 * d * _BLOCK * 8, (op, peak)


def test_trivial_brace_on_a_huge_cyclic_coordinate():
    # the kernels reduce by np.remainder, so nothing is allocated per residue
    B = TrivialBrace([2**40, 3])
    rng = np.random.default_rng(0)
    top = B.order - 1
    x = np.concatenate([[0, 1, top], rng.integers(0, B.order, 100)])
    y = np.concatenate([[top, top, 1], rng.integers(0, B.order, 100)])
    total = B.codec.decode(x) + B.codec.decode(y)
    assert np.array_equal(B.add(x, y), B.codec.encode(total % B.moduli))
    assert np.array_equal(B.mul(x, y), B.add(x, y))
    assert np.array_equal(B.neg(x), B.codec.encode(-B.codec.decode(x) % B.moduli))
    assert not B.add(x, B.inv(x)).any()
    with pytest.raises(IndexError):
        B.neg(B.order)


@pytest.mark.parametrize("name", ["trivial", "asym9", "cf72", "sd6", "table"])
def test_kernels_reject_indices_outside_the_carrier(name, asym9, cf72, sd6):
    B = {
        "trivial": TrivialBrace([2, 3, 4]),
        "asym9": asym9,
        "cf72": cf72,
        "sd6": sd6,
        "table": TableBrace(*tabulate(cf72)),
    }[name]
    for bad in (B.order, -1):
        calls = {
            "add left": lambda: B.add(bad, 0),
            "add right": lambda: B.add(np.array([0, 1]), np.array([1, bad])),
            "mul left": lambda: B.mul(np.array([bad, 1]), 1),
            "mul right": lambda: B.mul(0, bad),
            "neg": lambda: B.neg(bad),
            "inv": lambda: B.inv(np.array([0, bad])),
        }
        for what, call in calls.items():
            with pytest.raises(IndexError):
                call()
                pytest.fail(f"{what}({bad}) returned")


def _digit_loop(idx: np.ndarray, moduli) -> np.ndarray:
    """Reference: the (n, d) coordinates of ``idx``, one Python divmod per digit."""
    want = []
    for rest in idx.tolist():
        digits = []
        for m in moduli:
            rest, digit = divmod(rest, m)
            digits.append(digit)
        want.append(digits)
    return np.array(want, dtype=np.int64).reshape(idx.size, len(moduli))


@pytest.mark.parametrize("moduli", [[3, 1, 257, 2, 1], [257, 1, 65536, 7, 1_000_003]])
@pytest.mark.parametrize("order", [None, [2, 4, 0, 3, 1]])
def test_decode_matches_digit_loop(moduli, order):
    codec = _MixedRadix(moduli)
    rng = np.random.default_rng(11)
    idx = np.concatenate([[0, codec.size - 1], rng.integers(0, codec.size, 2_000)])
    want = _digit_loop(idx, moduli)
    if order is not None:
        codec, want = codec.reordered(order), want[:, order]
    got = codec.decode(idx)
    assert got.dtype == np.int64 and got.shape == (idx.size, len(moduli))
    assert np.array_equal(got, want)
    assert np.array_equal(codec.encode(got), idx)


# (moduli, run products lightest first): a run of exactly _BLOCK, moduli
# above _BLOCK between small ones, modulus 1 alone and inside runs, and three
# runs of one digit each
_RUN_SHAPES = [
    ([2] * 15 + [3], [_BLOCK, 3]),
    ([3, 5, 40_000, 7, 1, 2**30, 2], [15, 40_000, 7, 2**30, 2]),
    ([1], [1]),
    ([1, 4, 1, 1, 9], [36]),
    ([200, 200, 200], [200, 200, 200]),
]


@pytest.mark.parametrize("moduli, products", _RUN_SHAPES)
def test_decode_reads_every_run_shape(moduli, products):
    codec = _MixedRadix(moduli)
    rng = np.random.default_rng(12)
    # three blocks and a few columns more, so later blocks are slices
    idx = np.concatenate([[0, codec.size - 1], rng.integers(0, codec.size, 3 * _BLOCK + 5)])
    want = _digit_loop(idx, moduli)
    order = rng.permutation(len(moduli))
    for c, w in ((codec, want), (codec.reordered(order), want[:, order])):
        for n in (1, 3, idx.size):  # small calls too
            got = c.decode(idx[:n])
            assert got.dtype == np.int64 and np.array_equal(got, w[:n])
        out = np.empty((len(moduli), _BLOCK), dtype=np.int64).T
        c.decode(idx[:_BLOCK], out)
        assert np.array_equal(out, w[:_BLOCK])
        assert [run.product for run in c._runs] == products
        assert np.array_equal(c.encode(c.decode(idx)), idx)


@pytest.mark.parametrize("moduli", [m for m, _ in _RUN_SHAPES] + [[2] * 11 + [3, 3]])
def test_decode_names_the_first_bad_index_in_a_later_block(moduli):
    codec = _MixedRadix(moduli)
    idx = np.arange(3 * _BLOCK, dtype=np.int64) % codec.size
    for bad in (-1, codec.size):
        for where in (2 * _BLOCK + 7, 3 * _BLOCK - 2):
            wrong = idx.copy()
            wrong[where] = bad
            wrong[-1] = -5  # a later bad index is not the one named
            with pytest.raises(IndexError, match=f"index {bad} outside carrier of order {codec.size}$"):
                codec.decode(wrong)
        with pytest.raises(IndexError, match=f"index {bad} outside"):
            codec.decode(np.array([bad]))


def test_decode_allocates_little_beyond_its_result(bulk750k):
    # the digit runs are walked _BLOCK columns at a time
    codec, every = bulk750k.codec, bulk750k.elements()
    codec.decode(every[:10])
    tracemalloc.start()
    try:
        got = codec.decode(every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(codec.encode(got), every)
    assert peak <= got.nbytes + 2 * _BLOCK * 8, peak
    bad = every[: 2 * _BLOCK].copy()
    bad[_BLOCK + 3] = -1
    with pytest.raises(IndexError, match="index -1 outside"):
        codec.decode(bad)


def test_decode_on_the_order_18432_factor_allocates_only_its_result(factor_a):
    # the kernels' codec of the order-18432 factor is one run of 13 digits,
    # and their weights do not rise with the coordinate: the run's rows are
    # not in weight order
    codec = factor_a._logical
    rng = np.random.default_rng(13)
    idx = rng.integers(0, codec.size, 4 * _BLOCK)
    out = np.empty((codec.moduli.size, _BLOCK), dtype=np.int64).T
    codec.decode(idx[:10])
    assert [run.product for run in codec._runs] == [factor_a.order]
    assert np.any(np.diff(codec.weights) < 0)
    tracemalloc.start()
    try:
        got = codec.decode(idx)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        codec.decode(idx[:_BLOCK], out)
        into_out = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _digit_loop(idx, factor_a.codec.moduli.tolist())[:, factor_a._inv_layout])
    assert np.array_equal(out, got[:_BLOCK])
    assert peak <= got.nbytes + 4096, peak
    assert into_out <= 4096, into_out


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


def test_semidirect_homomorphism_checked_beyond_generator_products():
    A = TrivialBrace([3])
    B = TrivialBrace([8])
    assert B.multiplicative_generators().tolist() == [1]
    # b -> (-1)^b, except at 7 = 3 * 4, a product of two non-generators that
    # is neither a generator nor a product of generators taken two at a time
    assert B.mul(3, 4) == 7
    perms = [[0, 1, 2] if b % 2 == 0 else [0, 2, 1] for b in range(8)]
    assert check_axioms(SemidirectProductBrace(A, B, perms), mode="exhaustive").ok
    perms[7] = [0, 1, 2]
    with pytest.raises(ActionNotAutomorphismError, match="homomorphism"):
        SemidirectProductBrace(A, B, perms)


def test_semidirect_names_the_first_row_that_is_no_permutation():
    rows = [[0, 1, 2], [0, 2, 1], [0, 1, 1], [0, 1, 3]]
    with pytest.raises(ActionNotAutomorphismError, match="row 2 is not a permutation"):
        SemidirectProductBrace(TrivialBrace([3]), TrivialBrace([4]), rows)


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
# checkers were merged. Order 106 walks its exhaustive triples in 53 slices.
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


@pytest.mark.parametrize("n", [1, 2, 72, 216, 256, 257, 70_000, 750_141])
@pytest.mark.parametrize("trials", [1, _BLOCK, 3 * _BLOCK + 7])
def test_sampled_draw_is_the_one_shot_draw(n, trials):
    draw = _draw_triples(n, trials, seed=n + trials)
    assert draw.dtype == np.min_scalar_type(n - 1) and draw.shape == (3, trials)
    want = np.random.default_rng(n + trials).integers(0, n, size=(3, trials))
    assert np.array_equal(draw, want)


def _at_once_triples(n, laws, mode, trials=0, seed=0):
    """Reference: every law over every triple at once, all n^3 in order or the one-shot draw.

    The first law in order that fails is reported, at its first failing triple.
    """
    if mode == "exhaustive":
        a, b, c = np.ix_(np.arange(n), np.arange(n), np.arange(n))
    else:
        a, b, c = np.random.default_rng(seed).integers(0, n, size=(3, trials))
    shape = np.broadcast(a, b, c).shape
    triple = [np.broadcast_to(t, shape).ravel() for t in (a, b, c)]
    verdicts, failure = {}, None
    for name, law in laws.items():
        held = np.broadcast_to(law(a, b, c), shape).ravel()
        verdicts[name] = bool(held.all())
        if failure is None and not verdicts[name]:
            i = int(np.argmin(held))
            failure = (name, tuple(int(t[i]) for t in triple))
    return verdicts, failure, n**3 if mode == "exhaustive" else trials


def _table_laws(T):
    """The pair law and the triple laws of check_axioms, gathered from T's tables."""
    add_t, mul_t = tabulate(T)

    def add(x, y):
        return add_t[x, y]

    def mul(x, y):
        return mul_t[x, y]

    pair = {"additive_commutativity": lambda a, b, c: add(a, b) == add(b, a)}
    triple = {
        "additive_associativity": lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)),
        "multiplicative_associativity": lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c)),
        "compatibility": lambda a, b, c: add(mul(a, add(b, c)), a) == add(mul(a, b), mul(a, c)),
    }
    return pair, triple


@settings(max_examples=20, deadline=None)
@given(
    table=st.sampled_from([0, 1]),
    at=st.tuples(st.integers(1, 105), st.integers(1, 105)),
    source=st.tuples(st.integers(0, 105), st.integers(0, 105)),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, _BLOCK),
)
def test_sliced_reports_match_checking_at_once(table, at, source, seed, extra):
    T = _corrupted_d106(table, at, source)
    trials = 2 * _BLOCK + extra
    pair, triple = _table_laws(T)
    laws = {**pair, **triple}
    for mode in ("exhaustive", "sampled"):
        for part in (pair, triple):
            want = _at_once_triples(106, part, mode, trials, seed)
            assert _check_triples(106, part, mode, trials, seed) == want
        verdicts, failure, _ = _at_once_triples(106, laws, mode, trials, seed)
        report = check_axioms(T, mode=mode, trials=trials, seed=seed)
        assert report.trials == (0 if mode == "exhaustive" else trials)
        assert {name: report.checks[name] for name in laws} == verdicts
        if all(report.checks[name] for name in _LINEAR_OK):
            if failure is None:
                assert report.counterexample is None
            else:
                name, where = failure
                assert report.counterexample == (name, where[:2] if name in pair else where)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_failure_is_the_first_failing_law_not_the_first_failing_slice(mode):
    # the first law fails only past the first two slices, the second law
    # already in the first slice
    n, trials, seed = 106, 3 * _BLOCK, 5
    _, triple = _table_laws(_corrupted_d106(0, (60, 70), (60, 71)))
    associative = triple["additive_associativity"]
    if mode == "exhaustive":
        every = np.arange(n)
        part = _BLOCK // (n * n)  # 2 values of a per slice
        assert not associative(every[:part, None, None], every[None, :, None], every[None, None, :]).all()
        needle = (2 * part + 1, 7, 9)
    else:
        a, b, c = np.random.default_rng(seed).integers(0, n, size=(3, trials))
        assert not associative(a[:_BLOCK], b[:_BLOCK], c[:_BLOCK]).all()
        _, first_seen = np.unique((a * n + b) * n + c, return_index=True)
        late = int(first_seen[first_seen >= 2 * _BLOCK].min())
        needle = (int(a[late]), int(b[late]), int(c[late]))
    laws = {
        "needle": lambda x, y, z: (x != needle[0]) | (y != needle[1]) | (z != needle[2]),
        "additive_associativity": associative,
    }
    got = _check_triples(n, laws, mode, trials, seed)
    assert got[:2] == ({"needle": False, "additive_associativity": False}, ("needle", needle))
    assert got == _at_once_triples(n, laws, mode, trials, seed)


def test_exhaustive_report_is_the_first_failing_law_anywhere():
    # at n = 100 a slice holds 3 values of a: "early" fails in the 4th slice, "late" in the 17th
    n = 100
    laws = {
        "late": lambda a, b, c: (a != 50) | (b != 0) | (c != 0),
        "early": lambda a, b, c: (a != 10) | (b != 0) | (c != 0),
    }
    got = _check_triples(n, laws, "exhaustive", 0, 0)
    assert got == ({"late": False, "early": False}, ("late", (50, 0, 0)), n**3)
    assert got == _at_once_triples(n, laws, "exhaustive")


def test_sampled_axioms_walk_and_draw_once(cf72, monkeypatch):
    calls = []
    draw, walk = bracekit.braces._draw_triples, bracekit.braces._check_triples

    def counted_draw(n, trials, seed):
        calls.append(("draw", n, trials, seed))
        return draw(n, trials, seed)

    def counted_walk(n, laws, mode, trials, seed):
        calls.append(("walk", list(laws), mode))
        return walk(n, laws, mode, trials, seed)

    monkeypatch.setattr(bracekit.braces, "_draw_triples", counted_draw)
    monkeypatch.setattr(bracekit.braces, "_check_triples", counted_walk)
    assert check_axioms(cf72, mode="sampled", trials=5_000, seed=3).ok
    laws = ["additive_commutativity", "additive_associativity", "multiplicative_associativity", "compatibility"]
    assert calls == [("walk", laws, "sampled"), ("draw", 72, 5_000, 3)]


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


def _corrupted_tables(add_t, mul_t, rng):
    """One seeded change to a copy of one of the two tables of a brace with identity 0.

    Either one entry gets a new value, outside row and column 0 of the
    addition table so that the table keeps its identity, or two entries of
    a row swap, outside row and column 0 of either table. A swap keeps every
    row a permutation, so the identity and inverse scans pass and the
    generator-triple path decides.
    """
    tables = [add_t.copy(), mul_t.copy()]
    which = int(rng.integers(2))
    table, n = tables[which], len(add_t)
    if rng.integers(2):
        row = int(rng.integers(1, n))
        c1, c2 = rng.choice(np.arange(1, n), size=2, replace=False)
        table[row, [c1, c2]] = table[row, [c2, c1]]
    else:
        at = tuple(rng.integers(1 - which, n, size=2))
        table[at] = (table[at] + rng.integers(1, n)) % n
    return TableBrace(*tables)


@pytest.mark.parametrize("case, changes", [("cf72", 120), ("mf72", 120), ("asym9", 130), ("sd6", 130)])
def test_generator_triple_reports_match_all_triples_on_corrupted_tables(case, changes, request):
    # 500 seeded changes in all; each full report equals the kernel reference over all n^3 triples
    if case == "mf72":
        B = build_family(load_spec(SPECS / "mf72.json"))
    else:
        B = request.getfixturevalue(case)
    assert B.zero() == 0
    add_t, mul_t = tabulate(B)
    rng = np.random.default_rng(len(case) * 1000 + B.order)
    verdicts = Counter()
    for _ in range(changes):
        T = _corrupted_tables(add_t, mul_t, rng)
        want = _axioms_through_kernels(T, "exhaustive")
        assert check_axioms(T, mode="exhaustive") == want
        verdicts[want.ok] += 1
    assert verdicts[False] > changes // 2


def test_compatibility_waits_for_an_abelian_addition(sd6, monkeypatch):
    # two swaps in rows of sd6's addition table: every row stays a permutation,
    # so the scans pass, but + is no longer commutative. Every element is a
    # sum 5 + 5 + ... + 5, and compatibility holds on every (a, b, 5) and
    # fails elsewhere: only an abelian group makes those triples enough.
    add_t, mul_t = tabulate(sd6)
    add_t[1, [1, 2]] = add_t[1, [2, 1]]
    add_t[5, [3, 4]] = add_t[5, [4, 3]]
    T = TableBrace(add_t, mul_t)
    compatible = _table_laws(T)[1]["compatibility"]
    every = np.arange(6)
    assert compatible(every[:, None], every[None, :], 5).all()
    assert not compatible(every[:, None, None], every[None, :, None], every[None, None, :]).all()
    picks = _recorded_table_picks(monkeypatch)
    report = check_axioms(T, mode="exhaustive")
    assert picks[0] == [5]  # the additive laws ran over (a, b, 5) first
    assert report == _axioms_through_kernels(T, "exhaustive")
    assert not report.checks["additive_commutativity"] and not report.checks["compatibility"]


def test_axiom_tables_built_only_when_no_larger_than_the_triples():
    B = build_family(load_spec(SPECS / "cf72.json"))  # a fresh brace whose kernels can be counted
    built = []  # the kernel of each call that builds a 72 x 72 table
    for name in ("_add", "_mul"):

        def counted(x, y, kernel=getattr(B, name), name=name):
            if x.size == B.order**2:
                built.append(name)
            return kernel(x, y)

        setattr(B, name, counted)
    assert check_axioms(B, mode="sampled", trials=100).ok  # 100 < 72^2
    assert built == [] and B._add_table is None
    assert check_axioms(B, mode="sampled", trials=10_000).ok
    assert built == ["_add", "_mul"]
    with pytest.raises(ValueError):
        check_axioms(B, mode="sampled", trials=0)
    assert built == ["_add", "_mul"]
    # the addition table is kept on the brace (72^2 <= _BLOCK); the multiplication table is not
    assert check_axioms(B, mode="exhaustive").ok
    assert built == ["_add", "_mul", "_mul"]


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


def _list_ideals_per_element(B):
    """Reference: the closure of every nonzero element, completed under pairwise joins."""
    zero_rec = ideal_closure(B, [], mode="two_sided")
    found = {zero_rec.key(): zero_rec}
    for x in range(B.order):
        if x == B.zero():
            continue
        rec = ideal_closure(B, [x], mode="two_sided")
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
                joined = ideal_closure(B, list(a.seeds) + list(b.seeds), mode="two_sided")
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
    assert B._ideal_tables is None
    first_tables = _ideal_maps(B, two_sided=first == "two_sided")
    gens, tables = B._ideal_tables  # a left query builds both kinds too
    every = B.elements()
    lam = [B.lam(g, every) for g in gens.tolist()]
    conj = [B.mul(B.mul(g, every), B.inv(g)) for g in gens.tolist()]
    assert tables.dtype == np.int32 and tables.shape == (2 * len(gens), B.order)
    for got, want in zip(tables, [t for pair in zip(lam, conj) for t in pair]):
        assert np.array_equal(got, want)
    assert np.array_equal(first_tables, tables if first == "two_sided" else tables[::2])
    assert np.array_equal(_ideal_maps(B, two_sided=False), tables[::2])
    assert _ideal_maps(B, two_sided=True) is tables
    assert B._ideal_tables[0] is gens  # built once


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
        assert B._ideal_tables is None
        check_axioms(B)
        check_axioms(B, mode="sampled", trials=100)
        every = B.elements()
        for op in ("add", "mul", "lam", "star", "sub"):
            getattr(B, op)(every[:, None], every[None, :])
        B.neg(every), B.inv(every), B.multiplicative_generators()
        additive_generators(B)
        assert B._ideal_tables is None
        assert is_left_ideal(B, every)
        built = B._ideal_tables
        assert built[1].dtype == np.int32 and len(built[1]) == 2 * len(built[0])
        assert is_ideal(B, every) and B._ideal_tables is built


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_table_generators_generate_the_multiplicative_group(case, request):
    B = _TABLE_CASES[case](request)
    _ideal_maps(B, two_sided=True)
    gens = B._ideal_tables[0]
    # the gather walk picks what the kernel walk picks
    assert gens.tolist() == _greedy_generators(B, B.multiplicative_generators()[::-1])[0]
    assert np.isin(gens, B.multiplicative_generators()).all()
    assert np.array_equal(multiplicative_closure(B, gens), B.elements())


def _count_kernel_calls(B) -> Counter:
    """Count the calls of B's own mul and inv kernels from here on."""
    calls = Counter()
    for name in ("_mul", "_inv"):

        def counted(*args, kernel=getattr(B, name), name=name):
            calls[name] += 1
            return kernel(*args)

        setattr(B, name, counted)
    return calls


def _assert_two_mul_calls_per_pick(B):
    B.multiplicative_generators()  # cached before counting
    calls = _count_kernel_calls(B)
    tables = _ideal_maps(B, two_sided=True)
    k = len(tables) // 2
    # one L_g row per pick, one conjugation row per pick, one inversion of the picks
    assert calls == {"_mul": 2 * k, "_inv": 1}
    return tables


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_ideal_tables_take_two_mul_calls_per_generator_and_one_inv(case, request):
    _assert_two_mul_calls_per_pick(_TABLE_CASES[case](request))


def test_prime_example_tables_cover_five_generators():
    B = build_prime_example()
    tables = _assert_two_mul_calls_per_pick(B)
    gens = B._ideal_tables[0]
    assert gens.tolist() == [18432, 6144, 2048, 1024, 512]  # of 14 multiplicative generators
    assert np.isin(gens, B.multiplicative_generators()).all()
    assert np.array_equal(multiplicative_closure(B, gens), B.elements())
    assert len(tables) == 10 and tables.dtype == np.int32
    assert _ideal_maps(B, two_sided=True) is tables and B._ideal_tables[0] is gens  # built once


def _recorded_table_picks(monkeypatch) -> list:
    """Record the generator set G of every triple walk over (a, b, g) from here on."""
    picks = []
    walk = bracekit.braces._check_triples

    def recorded(n, laws, mode, trials, seed, third=None):
        if third is not None:
            picks.append(np.asarray(third).tolist())
        return walk(n, laws, mode, trials, seed, third)

    monkeypatch.setattr(bracekit.braces, "_check_triples", recorded)
    return picks


@pytest.mark.parametrize(
    "spec, add_picks, mul_picks",
    [
        ("cf72", [71, 70, 68, 55], [71, 70, 67]),
        ("mf72", [71, 70, 68, 55], [71, 70, 67]),
        ("ns216", [215, 214, 212, 207, 199], [215, 214, 211, 191]),
    ],
)
def test_axiom_tables_pick_word_generators_in_reverse(spec, add_picks, mul_picks, monkeypatch):
    picks = _recorded_table_picks(monkeypatch)
    assert check_axioms(build_family(load_spec(SPECS / f"{spec}.json")), mode="exhaustive").ok
    assert picks == [add_picks, mul_picks]


def test_table_walk_marks_no_identity_first(monkeypatch):
    # x y = f(y) with f = [1, 2, 2] has no identity and is not associative:
    # (a b) 0 = 1 but a (b 0) = f(1) = 2. No word reaches 0, so 0 is picked and
    # the triples (a, b, 0) find the failure; a walk that marked 0 first would
    # check only (a, b, 1) and (a, b, 2), where the law holds.
    add_t = (np.arange(3)[:, None] + np.arange(3)[None, :]) % 3
    T = TableBrace(add_t, [[1, 2, 2]] * 3)
    picks = _recorded_table_picks(monkeypatch)
    report = check_axioms(T, mode="exhaustive")
    assert picks == [[2], [2, 1, 0]]
    assert not report.checks["multiplicative_associativity"]
    assert report == _axioms_through_kernels(T, "exhaustive")


def test_threads_making_the_first_ideal_query_on_a_brace_agree_with_one_thread(request):
    # the cache is assigned once, complete: no thread sees tables that another is still filling
    ref = _TABLE_CASES["ns216"](request)
    A = next(r for r in list_ideals(ref) if 1 < r.size < ref.order).members
    seeds = [1, 24, 48, int(A[1])]
    want = [(ideal_closure(ref, [x]).members, is_ideal(ref, A), is_ideal(ref, A[:-1])) for x in seeds]
    failures = []

    def work(B, i):
        try:
            got = (ideal_closure(B, [seeds[i]]).members, is_ideal(B, A), is_ideal(B, A[:-1]))
        except Exception as exc:  # a half-built table can index outside the carrier
            failures.append(repr(exc))
            return
        if not (np.array_equal(got[0], want[i][0]) and got[1:] == want[i][1:]):
            failures.append((i, got[0].size))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            B = _TABLE_CASES["ns216"](request)  # fresh: the threads make its first ideal query
            threads = [threading.Thread(target=work, args=(B, i)) for i in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


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


def _count_greedy_searches(monkeypatch) -> list:
    """Record the pool size of every ``_greedy_generators`` call from here on."""
    searched = []
    greedy = bracekit.braces._greedy_generators

    def counted(B, pool, inside=None):
        searched.append(len(pool))
        return greedy(B, pool, inside)

    monkeypatch.setattr(bracekit.braces, "_greedy_generators", counted)
    return searched


def test_star_span_finds_a_left_factors_generators_once(request, monkeypatch):
    B = _TABLE_CASES["ns216"](request)
    every = B.elements()
    A = next(r for r in list_ideals(B) if 1 < r.size < B.order).members
    sub = multiplicative_closure(B, [1, 72])
    assert 1 < sub.size < B.order and not np.array_equal(sub, A)
    searched = _count_greedy_searches(monkeypatch)
    for right in (A, every, A):
        assert np.array_equal(star_span(B, A, right), _brute_star_span(B, A, right))
    assert searched == [A.size]
    # a different left factor afterwards is searched and spans correctly, and so is A again
    for left in (sub, A):
        for right in (A, every):
            assert np.array_equal(star_span(B, left, right), _brute_star_span(B, left, right))
    assert searched == [A.size, sub.size, A.size]


def test_threads_sharing_the_left_factor_memo_get_their_own_generators(request):
    # threads that replace each other's kept left factor still get the answer for their own
    B = _TABLE_CASES["ns216"](request)
    A = next(r for r in list_ideals(B) if 1 < r.size < B.order).members
    lefts = [A, multiplicative_closure(B, [1, 72]), multiplicative_closure(B, [24]), A[:-1]]
    want = [_subgroup_generators(B, left) for left in lefts]
    assert want[-1] is None
    failures = []

    def work(i):
        for _ in range(30):
            if not np.array_equal(_subgroup_generators(B, lefts[i]), want[i]):  # None too
                failures.append(i)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(lefts))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_star_span_keeps_the_general_path_for_a_left_factor_that_is_not_a_subgroup(
    request, monkeypatch
):
    B = _TABLE_CASES["cf72"](request)  # a fresh brace whose star can be counted
    rng = np.random.default_rng(5)
    # zero and 20 more elements: not a subgroup of the order-72 group, so the search gives up
    left = np.union1d([B.zero()], rng.choice(np.arange(1, B.order), size=20, replace=False))
    every = B.elements()
    want = _brute_star_span(B, left, every)
    stars = []
    star = B.star

    def counted(a, b):
        stars.append(b)
        return star(a, b)

    B.star = counted
    searched = _count_greedy_searches(monkeypatch)
    for _ in range(2):
        stars.clear()
        assert np.array_equal(star_span(B, left, every), want)
        assert _subgroup_generators(B, left) is None
        # the general path multiplies the left factor by each additive generator
        assert stars == additive_generators(B).tolist()
    assert searched == [left.size]


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


def test_ideal_closure_rejects_seeds_outside_the_carrier(cf72):
    for B in (TrivialBrace([6]), cf72):
        for seeds in ([-1], [B.order], [0, B.order]):
            with pytest.raises(ValueError, match=f"carrier of order {B.order}"):
                ideal_closure(B, seeds)
    # seeds are recorded in the order given: list_ideals joins reuse them
    assert ideal_closure(TrivialBrace([6]), [3, 2]).seeds == (3, 2)


def test_record_from_members_rejects_members_outside_the_carrier():
    B = TrivialBrace([6])
    for members in ([-1], [6], [0, 3, -3]):  # -1 would mark index 5, 6 would be numpy's IndexError
        with pytest.raises(ValueError, match="carrier of order 6"):
            IdealRecord.from_members(B, members)
    rec = IdealRecord.from_members(B, [3, 0])
    assert rec.members.tolist() == [0, 3] and rec.contains(3) and not rec.contains(5)


def test_prime_check_rejects_lattice_entries_outside_the_carrier():
    B = TrivialBrace([6])
    with pytest.raises(IncompleteLatticeError, match="outside the carrier"):
        is_prime_brace(B, [[0], [0, 3], range(7)])
    with pytest.raises(IncompleteLatticeError, match="outside the carrier"):
        is_prime_brace(B, [[0], [-3, 0], range(6)])


def test_additive_generators_rejects_members_outside_the_carrier(cf72):
    for within in ([-3], [0, 1, 80], [72]):
        with pytest.raises(ValueError, match="within has members outside"):
            additive_generators(cf72, within=within)
    assert additive_generators(cf72, within=[0, 71]).tolist() == [71]


@pytest.mark.parametrize(
    "case, gens",
    [
        ("cf72", [1, 2, 3, 8, 16]),
        ("ns216", [1, 2, 3, 8, 16, 24]),
        ("factor_a", [1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 2048, 4096]),
    ],
)
def test_additive_generators_pinned(case, gens, request):
    assert additive_generators(request.getfixturevalue(case)).tolist() == gens


def _insert_many_per_value(span, values):
    """Reference: one insert per sorted distinct value not yet in the span; returns those inserted."""
    picks = []
    for v in np.unique(values[~span.mask[values]]):
        if not span.mask[v]:
            picks.append(int(v))
            span.insert(int(v))
    return picks


@pytest.mark.parametrize("case", ["asym9", "cf72", "ns216", "factor_a"])
def test_insert_many_matches_the_per_value_walk(case, request):
    B = request.getfixturevalue(case)
    lam = _ideal_maps(B, two_sided=False)[-1]
    rng = np.random.default_rng(7)
    size = min(B.order, 5000)
    for _ in range(4):
        got, want = _AdditiveSpan(B), _AdditiveSpan(B)
        # unsorted pools with duplicates, growing from a few values, and their int32 lambda images
        for n in (1, 2, size):
            pool = rng.integers(0, B.order, size=n)
            pool = rng.permutation(np.concatenate([pool, pool[: n // 3 + 1]]))
            for values in (pool, lam[pool]):
                assert got.insert_many(values) == _insert_many_per_value(want, values)
                assert got.size == want.size and np.array_equal(got.mask, want.mask)
                assert np.array_equal(np.sort(got.members), np.sort(want.members))


def _additive_closure_by_sums(B, values):
    """Reference: zero and ``values``, closed under pairwise sums until nothing new appears."""
    members = np.unique(np.append(np.asarray(values, dtype=np.int64), B.zero()))
    while True:
        sums = np.union1d(members, B.add(members[:, None], members[None, :]))
        if sums.size == members.size:
            return members
        members = sums


@pytest.mark.parametrize("case", ["asym9", "sd6", "cf72", "ns216"])
def test_insert_matches_the_closure_by_pairwise_sums(case, request):
    B = request.getfixturevalue(case)
    rng = np.random.default_rng(11)
    for _ in range(3):
        span, inserted = _AdditiveSpan(B), []
        for x in rng.integers(0, B.order, size=4).tolist():
            # a fresh value, then one the span already holds, which changes nothing
            for value in (x, int(rng.choice(span.members))):
                inserted.append(value)
                span.insert(value)
                want = _additive_closure_by_sums(B, inserted)
                members = np.sort(span.members)
                assert span.size == members.size and np.array_equal(members, want)
                assert np.array_equal(np.flatnonzero(span.mask), want)


def _counted_add(B):
    """Record the operand length of each call that reaches B's addition kernel."""
    calls = []
    kernel = B._add

    def counted(x, y):
        calls.append(x.size)
        return kernel(x, y)

    B._add = counted
    return calls


def test_insert_makes_one_add_call_per_coset(ns216):
    # 216^2 > _BLOCK: the span adds through the kernel, one call per coset
    assert ns216.order**2 > _BLOCK
    B = build_family(load_spec(SPECS / "ns216.json"))  # a fresh brace whose _add can be counted
    calls = _counted_add(B)
    span = _AdditiveSpan(B)
    assert calls == [] and B._add_table is None
    # the pinned additive generators of ns216, with 1 again once the span holds
    # it; 16 goes in at index 216 / 24 = 9 and 24 at the prime index 216 / 72 = 3
    indexes = []
    for x in (1, 2, 3, 1, 8, 16, 24):
        before, calls[:] = span.size, []
        new = not span.mask[x]
        span.insert(x)
        if new:
            indexes.append(B.order // before)
        if new and is_prime(B.order // before):
            # H + <x> is a subgroup properly containing H, so it is the carrier
            assert calls == [] and span.size == B.order
        else:
            cosets = span.size // before - 1  # each step of the tower adds one coset of H
            assert calls == [before + 1] * cosets  # H with x appended, in one call per coset
        assert np.array_equal(np.sort(span.members), np.flatnonzero(span.mask))
    assert indexes == [216, 108, 54, 27, 9, 3]
    assert span.size == B.order and np.array_equal(np.sort(span.members), B.elements())


def test_insert_gathers_from_one_addition_table(cf72):
    # 72^2 <= _BLOCK: one n^2-element add call makes the table, then no coset step calls the kernel
    assert cf72.order**2 <= _BLOCK
    B = build_family(load_spec(SPECS / "cf72.json"))  # a fresh brace whose _add can be counted
    calls = _counted_add(B)
    span = _AdditiveSpan(B)
    assert calls == [B.order**2]
    assert np.array_equal(B._add_table, tabulate(cf72)[0])
    # the pinned additive generators of cf72 and their indexes, as in the kernel twin above
    indexes = []
    for x in (1, 2, 3, 1, 8, 16):
        before, calls[:] = span.size, []
        if not span.mask[x]:
            indexes.append(B.order // before)
        span.insert(x)
        assert calls == []
        assert np.array_equal(np.sort(span.members), np.flatnonzero(span.mask))
    assert indexes == [72, 36, 18, 9, 3]
    assert span.size == B.order and np.array_equal(np.sort(span.members), B.elements())
    # the table is kept on the brace: a second span makes no add call either
    assert _AdditiveSpan(B).insert_many(B.elements()) == [1, 2, 3, 8, 16]
    assert calls == []


def test_axioms_and_spans_share_one_addition_table():
    B = build_family(load_spec(SPECS / "cf72.json"))  # a fresh brace whose _add can be counted
    calls = _counted_add(B)
    assert check_axioms(B).ok
    assert _AdditiveSpan(B).insert_many(B.elements()) == [1, 2, 3, 8, 16]
    assert calls.count(B.order**2) == 1


def _strong_probable_prime(n, a):
    """Whether odd n > 2 passes the Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


# psi_k, the least composite that is a strong pseudoprime to the first k prime
# bases, for each k at which is_prime starts to use more bases
_STRONG_PSEUDOPRIMES = {
    2047: 1,
    1373653: 2,
    25326001: 3,
    3215031751: 4,
    2152302898747: 5,
    3474749660383: 6,
    341550071728321: 8,
    3825123056546413051: 11,
}


def test_is_prime_matches_a_sieve_and_rejects_strong_pseudoprimes():
    # the prime-index span rule decides with the one primality test of modular
    assert bracekit.braces.is_prime is is_prime
    # Eratosthenes: the numbers below 10^6 that no smaller prime divides
    sieve = np.ones(10**6, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(sieve.size) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    assert [n for n in range(sieve.size) if is_prime(n)] == np.flatnonzero(sieve).tolist()
    assert is_prime(2**61 - 1) and is_prime(2**62 - 57) and is_prime(10**18 + 9)
    # each psi_k passes the first k bases, which decide every n below it, so
    # is_prime must take more bases from psi_k on
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for n, k in _STRONG_PSEUDOPRIMES.items():
        assert all(_strong_probable_prime(n, a) for a in bases[:k]), n
        assert not is_prime(n), n
    assert not is_prime(2**40)


def _is_ideal_by_definition(B, members, two_sided):
    """Reference: zero, closure under addition and invariance under the maps of every element."""
    m = np.unique(np.asarray(members, dtype=np.int64))
    every = B.elements()
    if B.zero() not in m or not np.isin(B.add(m[:, None], m[None, :]), m).all():
        return False
    if not np.isin(B.lam(every[:, None], m[None, :]), m).all():
        return False
    conj = B.mul(B.mul(every[:, None], m[None, :]), B.inv(every)[:, None])
    return not two_sided or bool(np.isin(conj, m).all())


@pytest.mark.parametrize("case", ["asym9", "sd6", "cf72", "ns216"])
def test_ideal_tests_match_the_definition(case, request):
    B = request.getfixturevalue(case)
    rng = np.random.default_rng(5)
    every = B.elements()
    sets = [r.members for r in list_ideals(B)]
    sets += [ideal_closure(B, [x], mode="left").members for x in every]
    sets += [ideal_closure_members_of_span(B, [x]) for x in every]
    sets += [np.union1d(rng.choice(B.order, size=4, replace=False), B.zero()) for _ in range(6)]
    sets += [m[m != B.zero()] for m in sets]
    distinct = {m.tobytes(): m for m in sets}
    kinds = set()
    for members in distinct.values():
        left = _is_ideal_by_definition(B, members, two_sided=False)
        two_sided = _is_ideal_by_definition(B, members, two_sided=True)
        subgroup = ideal_closure_members_of_span(B, members).size == members.size
        kinds.add((B.zero() in members, subgroup, left, two_sided))
        repeated = rng.permutation(np.concatenate([members, members[: members.size // 2 + 1]]))
        for given in (members, repeated, repeated.tolist()):
            assert is_left_ideal(B, given) == left
            assert is_ideal(B, given) == two_sided
    # sets without zero, non-subgroups with zero, subgroups that are not left ideals, and ideals
    assert {(False, False, False, False), (True, False, False, False)} <= kinds
    assert (True, True, True, True) in kinds
    # in sd6 every lambda map preserves every cyclic subgroup
    assert ((True, True, False, False) in kinds) == (case != "sd6")


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
