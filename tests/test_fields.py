"""Exact arithmetic over Z/(p): primality, matrices, forms, companion maps."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracekit.errors import (
    CapExceededError,
    ConditionViolationError,
    NotAUnitError,
    NotInvertibleError,
    SingularMatrixError,
)
from bracekit.modular import (
    BilinearForm,
    OrthogonalMap,
    ResidueMatrix,
    companion_cyclotomic,
    hyperbolic_witness,
    is_orthogonal,
    is_prime,
    matrix_order,
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


def test_matrix_order_frozen():
    f = ResidueMatrix([[0, 1], [1, 1]], 2)
    assert matrix_order(f, 10) == 3
    assert matrix_order(ResidueMatrix.identity(2, 3), 10) == 1
    assert matrix_order(ResidueMatrix([[2]], 5), 10) == 4


def test_matrix_order_errors():
    with pytest.raises(NotInvertibleError):
        matrix_order(ResidueMatrix([[0]], 5), 10)
    with pytest.raises(CapExceededError):
        matrix_order(ResidueMatrix([[3]], 7), 3)  # order of 3 mod 7 is 6


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
    with pytest.raises(ConditionViolationError):
        OrthogonalMap(ResidueMatrix([[1, 1], [0, 1]], 3), form)


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
    assert matrix_order(c, q + 1) == q


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
