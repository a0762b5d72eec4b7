"""Exact linear algebra over the prime residue fields Z/(p).

Scalars are canonical representatives in ``[0, p)`` and every operation
reduces eagerly, so equal values always have identical representations and
serialization is bit-stable. Matrices are immutable and hashable.
Determinants, inverses and null spaces all come from one Gauss-Jordan routine,
``_row_reduce``, with first-nonzero pivot selection, which is deterministic and
exact over a field. It works on lists of Python ints, not numpy rows: the
matrices here are at most a few dozen rows wide, so numpy's per-call overhead
would outweigh its vectorised row operations. Entries are stored as int64
and products are formed in Python ints before they are reduced, so every
operation is exact for every modulus below 2^62. Every modulus is checked
prime at construction time, by a deterministic Miller-Rabin test that costs
a dozen modular powers whatever its size, so invalid data fails fast rather
than corrupting downstream algebra.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    CapExceededError,
    ConditionViolationError,
    NotAUnitError,
    NotInvertibleError,
    SingularMatrixError,
)

__all__ = [
    "is_prime",
    "unit_order",
    "ResidueMatrix",
    "BilinearForm",
    "OrthogonalMap",
    "nullspace_mod",
    "is_orthogonal",
    "matrix_order",
    "companion_cyclotomic",
    "hyperbolic_witness",
    "minus_id_bijective",
]


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# the least composite that is a strong pseudoprime to every base above
_PRIME_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime; exact for every n below 318665857834031151167461.

    Miller-Rabin with the first 12 primes as bases: no composite below that
    bound is a strong pseudoprime to all of them (Sorenson and Webster,
    Math. Comp. 86, 2017), far above the 2^62 elements a codec can index.
    It costs at most a dozen modular powers, whatever n. Raises ValueError
    for n at or above the bound, where the answer would not be exact.
    """
    if n >= _PRIME_BOUND:
        raise ValueError(f"{n} is beyond the exact range of the primality test")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> int:
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _distinct_primes(p: int, q: int) -> tuple[int, int]:
    p, q = _require_prime(p), _require_prime(q)
    if p == q:
        raise ValueError(f"expected two distinct primes, got {p} twice")
    return p, q


def unit_order(a: int, p: int) -> int:
    """Multiplicative order of ``a`` in (Z/(p))^*.

    Raises NotAUnitError when ``a`` is 0 mod p.
    """
    p = _require_prime(p)
    a = int(a) % p
    if a == 0:
        raise NotAUnitError(f"{a} is not a unit modulo {p}")
    e, x = 1, a
    while x != 1:
        x = x * a % p
        e += 1
    return e


class ResidueMatrix:
    """An immutable matrix over Z/(p), entries stored canonically in [0, p)."""

    __slots__ = ("modulus", "_cells")

    def __init__(self, entries, modulus: int):
        p = _require_prime(modulus)
        cells = np.asarray(entries, dtype=np.int64)
        if cells.ndim != 2 or cells.size == 0:
            raise ValueError("entries must form a non-empty two-dimensional array")
        cells = np.mod(cells, p)
        cells.setflags(write=False)
        self.modulus = p
        self._cells = cells

    @classmethod
    def identity(cls, n: int, modulus: int) -> "ResidueMatrix":
        return cls(np.eye(n, dtype=np.int64), modulus)

    @classmethod
    def block_diag(cls, a: "ResidueMatrix", b: "ResidueMatrix") -> "ResidueMatrix":
        if a.modulus != b.modulus:
            raise ValueError("mixed moduli")
        out = np.zeros((a.rows + b.rows, a.cols + b.cols), dtype=np.int64)
        out[: a.rows, : a.cols] = a._cells
        out[a.rows :, a.cols :] = b._cells
        return cls(out, a.modulus)

    @property
    def rows(self) -> int:
        return self._cells.shape[0]

    @property
    def cols(self) -> int:
        return self._cells.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._cells

    @property
    def T(self) -> "ResidueMatrix":
        return ResidueMatrix(self._cells.T, self.modulus)

    def tolist(self) -> list:
        return [[int(v) for v in row] for row in self._cells]

    def _coerce(self, other: "ResidueMatrix") -> None:
        if not isinstance(other, ResidueMatrix):
            raise TypeError("expected a ResidueMatrix")
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __matmul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        self._coerce(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # in Python ints: an int64 product wraps once cols * (p - 1)^2 reaches 2^63
        product = self._cells.astype(object) @ other._cells.astype(object) % self.modulus
        return ResidueMatrix(product, self.modulus)

    def __add__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        self._coerce(other)
        return ResidueMatrix(self._cells + other._cells, self.modulus)

    def __sub__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        self._coerce(other)
        return ResidueMatrix(self._cells - other._cells, self.modulus)

    def __neg__(self) -> "ResidueMatrix":
        return ResidueMatrix(-self._cells, self.modulus)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResidueMatrix)
            and self.modulus == other.modulus
            and self._cells.shape == other._cells.shape
            and bool(np.array_equal(self._cells, other._cells))
        )

    def __hash__(self) -> int:
        return hash((self.modulus, self._cells.shape, self._cells.tobytes()))

    def __repr__(self) -> str:
        return f"ResidueMatrix({self.tolist()}, modulus={self.modulus})"

    def det(self) -> int:
        """Determinant in [0, p)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _row_reduce(self._cells.tolist(), self.modulus, self.cols)[2]

    def inverse(self) -> "ResidueMatrix":
        """Inverse, by reducing [A | I] to [I | A^-1]."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n, p = self.rows, self.modulus
        augmented = np.hstack([self._cells, np.eye(n, dtype=np.int64)]).tolist()
        reduced, pivots, _ = _row_reduce(augmented, p, n)
        if len(pivots) < n:
            raise SingularMatrixError(f"matrix is singular modulo {p}")
        return ResidueMatrix([row[n:] for row in reduced], p)


def _row_reduce(a: list, p: int, cols: int) -> tuple[list, list, int]:
    """Gauss-Jordan elimination of the rows ``a`` over Z/(p), on the first ``cols`` columns.

    Each pivot is the first nonzero entry at or below the next pivot row.
    Returns the reduced rows, the pivot columns and, when ``a`` has ``cols``
    rows, the determinant of its leading cols x cols block, in [0, p).
    """
    rows = list(a)
    pivots: list[int] = []
    det = 1
    for c in range(cols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            det = 0
            continue
        if hit != r:
            rows[r], rows[hit] = rows[hit], rows[r]
            det = -det
        piv = rows[r][c]
        det = det * piv % p
        scale = pow(piv, -1, p)
        pivot_row = rows[r] = [v * scale % p for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(v - f * w) % p for v, w in zip(row, pivot_row)]
        pivots.append(c)
    return rows, pivots, det


def nullspace_mod(a, p: int) -> np.ndarray:
    """Row basis of the right null space of ``a`` over Z/(p).

    Returns a (k, cols) int64 array whose rows span {x : a x = 0}; k = 0
    means the map is injective. Row k sets free column c_k to 1 and reads the
    pivot coordinates off the reduced row echelon form, so the basis is
    deterministic.
    """
    p = _require_prime(p)
    m = np.mod(np.asarray(a, dtype=np.int64), p)
    if m.ndim != 2:
        raise ValueError("expected a matrix")
    cols = m.shape[1]
    reduced, pivots, _ = _row_reduce(m.tolist(), p, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for row, pc in zip(reduced, pivots):
            basis[k, pc] = -row[c] % p
    return basis


class BilinearForm:
    """A non-singular symmetric bilinear form, held by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: ResidueMatrix):
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        if gram != gram.T:
            raise ConditionViolationError("Gram matrix is not symmetric")
        if gram.det() == 0:
            raise SingularMatrixError("Gram matrix is singular")
        self.gram = gram

    @property
    def dim(self) -> int:
        return self.gram.rows

    @property
    def modulus(self) -> int:
        return self.gram.modulus

    def __repr__(self) -> str:
        return f"BilinearForm({self.gram!r})"


def is_orthogonal(f: ResidueMatrix, form: BilinearForm) -> bool:
    """True iff f^T . gram . f = gram, i.e. f preserves the form."""
    if f.modulus != form.modulus:
        raise ValueError("mixed moduli")
    if f.rows != f.cols or f.rows != form.dim:
        raise ValueError("map and form dimensions differ")
    return f.T @ form.gram @ f == form.gram


def matrix_order(f: ResidueMatrix, cap: int) -> int:
    """Least e >= 1 with f^e = identity; the explicit cap guarantees termination.

    Raises NotInvertibleError for singular input and CapExceededError when the
    order exceeds ``cap``.
    """
    if f.rows != f.cols:
        raise ValueError("order of a non-square matrix")
    cap = int(cap)
    if cap < 1:
        raise ValueError("cap must be positive")
    if f.det() == 0:
        raise NotInvertibleError("matrix is singular, no multiplicative order")
    ident = ResidueMatrix.identity(f.rows, f.modulus)
    g = f
    for e in range(1, cap + 1):
        if g == ident:
            return e
        g = g @ f
    raise CapExceededError(f"order exceeds cap {cap}")


class OrthogonalMap:
    """An invertible map together with the form it preserves and its cached order."""

    __slots__ = ("matrix", "form", "order")

    def __init__(self, matrix: ResidueMatrix, form: BilinearForm, *, order_cap: int = 10_000):
        if not is_orthogonal(matrix, form):
            raise ConditionViolationError("matrix does not preserve the form")
        self.matrix = matrix
        self.form = form
        self.order = matrix_order(matrix, order_cap)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def modulus(self) -> int:
        return self.matrix.modulus

    def __repr__(self) -> str:
        return f"OrthogonalMap(dim={self.dim}, modulus={self.modulus}, order={self.order})"


def minus_id_bijective(f: ResidueMatrix) -> bool:
    """True iff f - id is invertible, i.e. 1 is not an eigenvalue of f."""
    if f.rows != f.cols:
        raise ValueError("expected a square matrix")
    return (f - ResidueMatrix.identity(f.rows, f.modulus)).det() != 0


def _companion(poly: list, p: int) -> ResidueMatrix:
    """Companion matrix (column convention) of a monic little-endian poly."""
    k = len(poly) - 1
    m = np.zeros((k, k), dtype=np.int64)
    for i in range(1, k):
        m[i, i - 1] = 1
    for i in range(k):
        m[i, k - 1] = -poly[i]
    return ResidueMatrix(m, p)


def companion_cyclotomic(q: int, p: int) -> ResidueMatrix:
    """Companion matrix of x^(q-1) + ... + x + 1 over Z/(p), for distinct primes q, p.

    The result is (q-1) x (q-1) with ones on the subdiagonal and -1 down the
    last column; for q = 2 it degenerates to the 1x1 matrix [-1]. Its
    multiplicative order is exactly q.
    """
    q, p = _distinct_primes(q, p)
    return _companion([1] * q, p)


def _hyperbolic_double(c: ResidueMatrix) -> tuple[ResidueMatrix, BilinearForm]:
    """f = blockdiag(C, (C^-1)^T) and the block form [[0, I], [I, 0]] it preserves."""
    k = c.rows
    gram = np.zeros((2 * k, 2 * k), dtype=np.int64)
    gram[:k, k:] = np.eye(k, dtype=np.int64)
    gram[k:, :k] = np.eye(k, dtype=np.int64)
    f = ResidueMatrix.block_diag(c, c.inverse().T)
    return f, BilinearForm(ResidueMatrix(gram, c.modulus))


def _checked_witness(f: ResidueMatrix, form: BilinearForm, order: int) -> OrthogonalMap:
    """f as an OrthogonalMap, after checking f - id is bijective and f has ``order``."""
    if not minus_id_bijective(f):
        raise ConditionViolationError("witness fails: f - id is not bijective")
    witness = OrthogonalMap(f, form, order_cap=order)
    if witness.order != order:
        raise ConditionViolationError(f"witness fails: order {witness.order} != {order}")
    return witness


def hyperbolic_witness(q: int, p: int) -> tuple[BilinearForm, OrthogonalMap]:
    """A dimension-2(q-1) form and an order-q map f on it with f - id bijective.

    Built as f = blockdiag(C, (C^-1)^T) for C = companion_cyclotomic(q, p),
    preserving the block form [[0, I], [I, 0]]. All three witness predicates
    (orthogonality, order exactly q, f - id bijective) are verified before
    returning; q = 2 degenerates to the 1-dimensional witness ([1], [-1]).
    """
    q, p = _distinct_primes(q, p)
    if q == 2:
        form = BilinearForm(ResidueMatrix([[1]], p))
        f = ResidueMatrix([[-1]], p)
    else:
        f, form = _hyperbolic_double(companion_cyclotomic(q, p))
    return form, _checked_witness(f, form, q)
