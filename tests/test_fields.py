"""Exact arithmetic over Z/(p): primality, matrices, forms, companion maps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.errors import ConditionViolationError, NotAUnitError, SingularMatrixError
from bracekit.modular import (
    BilinearForm,
    OrthogonalMap,
    ResidueMatrix,
    _factorize,
    companion_cyclotomic,
    has_prime_order,
    hyperbolic_witness,
    is_orthogonal,
    is_prime,
    minus_id_bijective,
    nullspace_mod,
    unit_order,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_small_range():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    got = {n for n in range(50) if is_prime(n)}
    assert got == expected
    assert not is_prime(-7)
    # the least strong pseudoprime to all 12 bases: from there on no answer is exact
    bound = 318665857834031151167461
    assert not is_prime(bound - 1)
    with pytest.raises(ValueError, match="beyond the exact range"):
        is_prime(bound)


def test_unit_order_frozen_values():
    # orders computed by direct repeated multiplication
    assert unit_order(3, 7) == 6
    assert unit_order(2, 7) == 3
    assert unit_order(7, 3) == 1
    assert unit_order(2, 3) == 2
    assert unit_order(2, 5) == 4
    assert unit_order(4, 5) == 2


def test_unit_order_rejects_zero():
    with pytest.raises(NotAUnitError):
        unit_order(0, 5)
    with pytest.raises(NotAUnitError):
        unit_order(10, 5)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=100))
def test_unit_order_divides_group_order(p, a):
    if a % p == 0:
        a += 1
    e = unit_order(a, p)
    assert (p - 1) % e == 0
    assert pow(a, e, p) == 1


def _unit_orders_by_stepping(primes):
    """Reference: (a, p, order of a mod p) for every unit a of every p, one product per step.

    All rows step together in int32 (p < 2^15 keeps x * a exact); settled rows
    are dropped every 32 steps, since a gather per step would cost more.
    """
    p = np.concatenate([np.full(q - 1, q, dtype=np.int32) for q in primes])
    a = np.concatenate([np.arange(1, q, dtype=np.int32) for q in primes])
    order = np.zeros(a.size, dtype=np.int64)
    rows, x, got = np.arange(a.size), a.copy(), np.zeros(a.size, dtype=np.int64)
    step, mod = a, p
    for e in itertools.count(1):
        got[(x == 1) & (got == 0)] = e
        if e % 32 == 0:
            done = got > 0
            order[rows[done]] = got[done]
            if done.all():
                return a, p, order
            rows, x, got, step, mod = rows[~done], x[~done], got[~done], step[~done], mod[~done]
        x = x * step % mod


def test_unit_order_matches_a_step_loop():
    primes = [q for q in range(2, 2000) if is_prime(q)]
    a, p, order = _unit_orders_by_stepping(primes)
    assert order.min() >= 1
    assert [unit_order(ai, pi) for ai, pi in zip(a.tolist(), p.tolist())] == order.tolist()


@pytest.mark.parametrize("p", [10**7 + 19, 10**12 + 39, 10**18 + 9])
def test_unit_order_over_a_large_prime(p):
    # the step loop made one product per unit of the order: 5,000,009 of them at 10^7 + 19
    e = unit_order(3, p)
    assert (p - 1) % e == 0 and pow(3, e, p) == 1
    assert all(pow(3, e // r, p) != 1 for r, _ in _factorize(e))


def _factorize_by_trial_division(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    return tuple(out + [(n, 1)] * (n > 1))


def test_factorize_matches_trial_division():
    assert _factorize(1) == ()
    for n in range(1, 10**4):
        assert _factorize(n) == _factorize_by_trial_division(n), n


def test_factorize_splits_semiprimes_near_2_62():
    # three primes just below 2^31: each product of two sits just below 2^62
    r, s, t = 2147483587, 2147483629, 2147483647
    assert _factorize(s * t) == ((s, 1), (t, 1))
    assert _factorize(r * t) == ((r, 1), (t, 1))
    assert _factorize(t * t) == ((t, 2),)
    assert _factorize(2**62 - 57) == ((2**62 - 57, 1),)  # the largest prime below 2^62


def test_matrix_canonical_storage_and_equality():
    m = ResidueMatrix([[-1, 8], [3, 10]], 7)
    assert m.tolist() == [[6, 1], [3, 3]]
    assert m == ResidueMatrix([[6, 1], [3, 3]], 7)
    assert hash(m) == hash(ResidueMatrix([[6, 1], [3, 3]], 7))
    assert m != ResidueMatrix([[6, 1], [3, 3]], 11)


def test_matrix_is_immutable():
    m = ResidueMatrix([[1, 2], [3, 4]], 5)
    with pytest.raises(ValueError):
        m.array[0, 0] = 9


def test_matrix_product_and_power():
    f = ResidueMatrix([[0, 1], [1, 1]], 2)
    assert (f @ f).tolist() == [[1, 1], [1, 0]]
    assert f @ f @ f == ResidueMatrix.identity(2, 2)
    assert f.inverse() == f @ f


def test_matrix_product_is_exact_for_large_moduli():
    # each cell of these products is far beyond 2^63 before it is reduced
    p = 10**18 + 9
    f = ResidueMatrix([[p - 1, p - 2], [p - 3, p - 4]], p)
    assert (f @ f).tolist() == [[7, 10], [15, 22]]


def test_matrix_inverse_frozen():
    f = ResidueMatrix([[0, 1], [1, 1]], 2)
    assert f.inverse().tolist() == [[1, 1], [1, 0]]
    g = ResidueMatrix([[2, 1], [1, 1]], 5)
    assert g @ g.inverse() == ResidueMatrix.identity(2, 5)


def test_matrix_inverse_frozen_4x4():
    m = ResidueMatrix([[1, 2, 0, 3], [4, 1, 5, 2], [0, 3, 6, 1], [2, 0, 1, 4]], 7)
    assert m.det() == 6
    assert m.inverse().tolist() == [[3, 6, 3, 1], [1, 6, 0, 5], [4, 5, 5, 2], [1, 1, 6, 1]]


def test_matrix_inverse_singular():
    with pytest.raises(SingularMatrixError):
        ResidueMatrix([[1, 2], [2, 4]], 5).inverse()


def test_determinant_values():
    assert ResidueMatrix([[2, 1], [1, 1]], 5).det() == 1
    assert ResidueMatrix([[1, 2], [2, 4]], 5).det() == 0
    assert ResidueMatrix.identity(3, 7).det() == 1
    # row swap flips sign: [[0,1],[1,0]] has det -1 = p-1
    assert ResidueMatrix([[0, 1], [1, 0]], 7).det() == 6


def _leibniz_det(cells, p):
    n = len(cells)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= cells[i][j]
        total += term
    return total % p


def _span_size(rows, cols, p):
    """Number of distinct Z/(p)-combinations of ``rows``, i.e. p^rank."""
    span = {(0,) * cols}
    for row in rows:
        span = {tuple((v + c * r) % p for v, r in zip(vec, row)) for vec in span for c in range(p)}
    return len(span)


@st.composite
def residue_matrix_cells(draw, max_rows=4, max_cols=4, square=False):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_cols))
    # zero rows and repeated rows make rank-deficient inputs common
    pool = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=cols, max_size=cols),
            min_size=1,
            max_size=rows,
        )
    )
    pool.append([0] * cols)
    cells = [draw(st.sampled_from(pool)) for _ in range(rows)]
    return cells, p


@settings(max_examples=150)
@given(residue_matrix_cells(square=True))
def test_det_matches_leibniz_expansion(case):
    cells, p = case
    assert ResidueMatrix(cells, p).det() == _leibniz_det(cells, p)


@settings(max_examples=150)
@given(residue_matrix_cells(max_rows=4, max_cols=5))
def test_nullspace_is_a_basis_of_the_kernel(case):
    cells, p = case
    a = np.asarray(cells, dtype=np.int64)
    basis = nullspace_mod(a, p)
    cols = a.shape[1]
    rank = [p**r for r in range(cols + 1)].index(_span_size(cells, cols, p))
    assert basis.shape == (cols - rank, cols)
    assert not np.any(a @ basis.T % p)
    assert _span_size(basis.tolist(), cols, p) == p ** basis.shape[0]


def test_nullspace_frozen_bases():
    assert nullspace_mod([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 7).tolist() == [[6, 6, 1]]
    assert nullspace_mod([[1, 1, 0, 2], [0, 1, 1, 1]], 3).tolist() == [[1, 2, 1, 0], [2, 2, 0, 1]]
    assert nullspace_mod([[0, 0, 0], [0, 0, 0]], 5).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace_mod(np.zeros((0, 3), dtype=np.int64), 5).tolist() == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert nullspace_mod([[1, 2], [3, 4], [5, 6]], 7).shape == (0, 2)
    assert nullspace_mod([[2, 4, 1, 3, 0], [1, 2, 3, 4, 1], [3, 1, 4, 2, 1]], 5).tolist() == [
        [3, 1, 0, 0, 0],
        [2, 0, 1, 0, 0],
        [1, 0, 0, 1, 0],
    ]
    assert nullspace_mod([[0, 1, 1], [0, 0, 0], [0, 2, 2]], 3).tolist() == [[1, 0, 0], [0, 2, 1]]
    assert nullspace_mod([[1, 2], [2, 4]], 5).tolist() == [[3, 1]]


@st.composite
def invertible_matrix(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(min_value=1, max_value=3))
    for _ in range(40):
        cells = draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=p - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        m = ResidueMatrix(cells, p)
        if m.det() != 0:
            return m
    return ResidueMatrix.identity(n, p)


@settings(max_examples=60)
@given(invertible_matrix())
def test_inverse_roundtrip(m):
    ident = ResidueMatrix.identity(m.rows, m.modulus)
    assert m @ m.inverse() == ident
    assert m.inverse() @ m == ident


@settings(max_examples=60)
@given(invertible_matrix())
def test_det_multiplicative_with_inverse(m):
    d = m.det()
    assert d * m.inverse().det() % m.modulus == 1


def test_has_prime_order_frozen():
    f = ResidueMatrix([[0, 1], [1, 1]], 2)  # order 3
    assert has_prime_order(f, 3)
    assert not has_prime_order(f, 2) and not has_prime_order(f, 5)
    assert not has_prime_order(ResidueMatrix.identity(2, 3), 2)  # order 1
    assert not has_prime_order(ResidueMatrix([[2]], 5), 2)  # order 4: 2^2 = 4 != 1
    assert has_prime_order(ResidueMatrix([[4]], 5), 2)
    assert not has_prime_order(ResidueMatrix([[0]], 5), 3)  # singular: no power is I
    assert not has_prime_order(ResidueMatrix([[3]], 7), 3)  # order of 3 mod 7 is 6
    assert has_prime_order(ResidueMatrix([[2]], 7), 3)


def test_has_prime_order_errors():
    # a composite q would accept f^4 = I as "order 4" for the order-2 map -1
    with pytest.raises(ValueError, match="order 4 is not prime"):
        has_prime_order(ResidueMatrix([[4]], 5), 4)
    with pytest.raises(ValueError, match="non-square"):
        has_prime_order(ResidueMatrix([[1, 0]], 5), 2)


def test_has_prime_order_over_large_primes():
    # f = diag(2, 2^-1) has order p - 1 over Z/(p); its order-q powers are checked in O(log q)
    p = 10**12 + 39
    q = 26005097  # a prime factor of p - 1
    g = pow(2, (p - 1) // q, p)
    assert g != 1
    f = ResidueMatrix([[g, 0], [0, pow(g, -1, p)]], p)
    assert has_prime_order(f, q)
    assert not has_prime_order(f, 10**18 + 9)


def test_modulus_bound():
    # at 2^62 and above a sum of two entries could wrap: over p = 2^63 - 25,
    # [[p - 1]] + [[p - 1]] once came out as 9223372036854775731
    assert is_prime(2**63 - 25)
    with pytest.raises(ValueError, match="not below 2\\^62"):
        ResidueMatrix([[1]], 2**63 - 25)
    with pytest.raises(ValueError, match="not below 2\\^62"):
        unit_order(3, 2**63 - 25)
    p = 2**62 - 57
    m = ResidueMatrix([[p - 1]], p)
    assert (m + m).tolist() == [[p - 2]]
    assert (-m - m).tolist() == [[2]]


def test_bilinear_form_checks():
    form = BilinearForm(ResidueMatrix([[0, 1], [1, 0]], 3))
    e0, e1 = ResidueMatrix([[1], [0]], 3), ResidueMatrix([[0], [1]], 3)
    assert e0.T @ form.gram @ e1 == ResidueMatrix([[1]], 3)
    assert e0.T @ form.gram @ e0 == ResidueMatrix([[0]], 3)
    with pytest.raises(ConditionViolationError):
        BilinearForm(ResidueMatrix([[0, 1], [2, 0]], 3))
    with pytest.raises(SingularMatrixError):
        BilinearForm(ResidueMatrix([[1, 1], [1, 1]], 3))


def test_is_orthogonal():
    form = BilinearForm(ResidueMatrix.identity(2, 3))
    rot = ResidueMatrix([[0, 2], [1, 0]], 3)
    assert is_orthogonal(rot, form)
    assert not is_orthogonal(ResidueMatrix([[1, 1], [0, 1]], 3), form)


def test_orthogonal_map_rejects_non_preserving():
    form = BilinearForm(ResidueMatrix.identity(2, 3))
    with pytest.raises(ConditionViolationError, match="does not preserve the form"):
        OrthogonalMap(ResidueMatrix([[1, 1], [0, 1]], 3), form, 3)


def test_orthogonal_map_checks_its_order():
    form = BilinearForm(ResidueMatrix.identity(2, 3))
    rot = ResidueMatrix([[0, 2], [1, 0]], 3)  # order 4
    assert OrthogonalMap(-ResidueMatrix.identity(2, 3), form, 2).order == 2
    with pytest.raises(ConditionViolationError, match="does not have order 2"):
        OrthogonalMap(rot, form, 2)
    with pytest.raises(ValueError, match="order 4 is not prime"):
        OrthogonalMap(rot, form, 4)


def test_companion_cyclotomic_frozen():
    assert companion_cyclotomic(3, 2).tolist() == [[0, 1], [1, 1]]
    assert companion_cyclotomic(2, 5).tolist() == [[4]]
    assert companion_cyclotomic(3, 7).tolist() == [[0, 6], [1, 6]]
    with pytest.raises(ValueError):
        companion_cyclotomic(3, 3)


@given(st.sampled_from([(2, 3), (3, 2), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3), (2, 7)]))
def test_companion_has_order_q(qp):
    q, p = qp
    c = companion_cyclotomic(q, p)
    assert has_prime_order(c, q)


def test_hyperbolic_witness_small_cases():
    for q, p in [(2, 3), (3, 2), (3, 5), (5, 2), (7, 3)]:
        form, w = hyperbolic_witness(q, p)
        expected_dim = 1 if q == 2 else 2 * (q - 1)
        assert form.dim == expected_dim
        assert w.order == q
        assert is_orthogonal(w.matrix, form)
        assert minus_id_bijective(w.matrix)


def test_hyperbolic_witness_q2_is_negation():
    form, w = hyperbolic_witness(2, 5)
    assert form.gram.tolist() == [[1]]
    assert w.matrix.tolist() == [[4]]


def test_minus_id_bijective():
    assert minus_id_bijective(ResidueMatrix([[0, 1], [1, 1]], 2))
    assert not minus_id_bijective(ResidueMatrix.identity(2, 3))
    assert minus_id_bijective(ResidueMatrix([[2]], 3))


def test_block_diag_layout():
    a = ResidueMatrix([[1, 2]], 5)
    b = ResidueMatrix([[3], [4]], 5)
    assert ResidueMatrix.block_diag(a, b).tolist() == [
        [1, 2, 0],
        [0, 0, 3],
        [0, 0, 4],
    ]
