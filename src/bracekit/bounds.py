"""Witness dimensions for twisted-product blocks.

A block over Z/(p) whose action map must have order p1 needs an orthogonal
map f of order p1 with f - id bijective.  This module computes the classical
orthogonal-group orders, decides when p1 divides them via unit-order
inequalities, evaluates the minimal dimension supporting such a witness, and
searches for explicit witnesses (constructively where algebra permits,
exhaustively in lexicographic order otherwise).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .braces import _CHUNK
from .errors import (
    BudgetExceededError,
    ConditionViolationError,
    KindPrimeMismatchError,
    NoWitnessError,
)
from .modular import (
    BilinearForm,
    OrthogonalMap,
    ResidueMatrix,
    _checked_witness,
    _companion,
    _distinct_primes,
    _hyperbolic_double,
    _require_prime,
    hyperbolic_witness,
    minus_id_bijective,
    nullspace_mod,
    unit_order,
)

__all__ = [
    "BoundsReport",
    "KINDS",
    "divides_orthogonal_order",
    "exponent_lower_bounds",
    "find_orthogonal_element",
    "minimal_witness_dimension",
    "nu",
    "orthogonal_group_order",
    "witness_block",
]

SEARCH_BUDGET = 1_000_000

# odd-characteristic kinds take an odd prime p; the three kind names for
# characteristic 2 fix p = 2 (the parameter m plays the role of t there)
KINDS = ("GO_odd", "GO_plus", "GO_minus", "Sp2", "O_odd2", "O_even2")
_ODD_KINDS = ("GO_odd", "GO_plus", "GO_minus")


def nu(k: int) -> int:
    """1 for even k, 2 for odd k."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    return 1 if k % 2 == 0 else 2


def _even_power_product(p: int, upto: int) -> int:
    out = 1
    for i in range(1, upto + 1):
        out *= p ** (2 * i) - 1
    return out


def _check_kind(kind: str, m: int, p: int) -> tuple[int, int]:
    """(m, p) as ints, after checking kind, m >= 1, p prime and p's parity for kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {KINDS}")
    m = int(m)
    if m < 1:
        raise ValueError("m must be a positive integer")
    p = _require_prime(p)
    if kind in _ODD_KINDS and p == 2:
        raise KindPrimeMismatchError(f"{kind} requires an odd prime, got p=2")
    if kind not in _ODD_KINDS and p != 2:
        raise KindPrimeMismatchError(f"{kind} is a characteristic-2 kind, got p={p}")
    return m, p


def orthogonal_group_order(kind: str, m: int, p: int) -> int:
    """Exact order of the named orthogonal (or symplectic) group.

    kind is one of KINDS; m is the rank parameter of the standard formula
    (the half-dimension t for the characteristic-2 non-alternating kinds).
    """
    m, p = _check_kind(kind, m, p)
    if kind == "GO_odd":
        return 2 * p ** (m * m) * _even_power_product(p, m)
    if kind == "GO_plus":
        return 2 * p ** (m * (m - 1)) * _even_power_product(p, m - 1) * (p**m - 1)
    if kind == "GO_minus":
        return 2 * p ** (m * (m - 1)) * _even_power_product(p, m - 1) * (p**m + 1)
    if kind in ("Sp2", "O_odd2"):
        return 2 ** (m * m) * _even_power_product(2, m)
    # O_even2
    return 2 ** (m * m) * _even_power_product(2, m - 1)


def divides_orthogonal_order(p1: int, p: int, kind: str, m: int) -> bool:
    """Whether p1 divides the named group order, decided by unit-order bounds.

    With k the order of p modulo p1, divisibility reduces to one inequality
    per (kind, parity of k) cell; cross-checked against literal divisibility
    of orthogonal_group_order in the tests.
    """
    p1, p = _distinct_primes(p1, p)
    if p1 == 2:
        raise ValueError("p1 must be an odd prime")
    m, p = _check_kind(kind, m, p)
    k = unit_order(p, p1)
    odd = k % 2 == 1
    if kind in ("GO_odd", "Sp2", "O_odd2"):
        return k <= m if odd else k <= 2 * m
    if kind == "GO_plus":
        return k <= m if odd else k <= 2 * m - 2
    if kind == "GO_minus":
        return k <= m - 1 if odd else k <= 2 * m
    # O_even2
    return k <= m - 1 if odd else k <= 2 * (m - 1)


def minimal_witness_dimension(p: int, p1: int) -> int:
    """Smallest dim carrying an order-p1 orthogonal f with f - id bijective.

    Over Z/(p): equals 1 when p1 = 2 (take f = -id on a line) and nu(k)*k
    otherwise, with k the order of p modulo p1.
    """
    p, p1 = _distinct_primes(p, p1)
    if p1 == 2:
        return 1
    k = unit_order(p, p1)
    return nu(k) * k


@dataclass(frozen=True)
class BoundsReport:
    """Per-position unit orders and exponent lower bounds for a prime cycle."""

    primes: tuple
    k: tuple
    nu_k: tuple
    minimal_dim: tuple
    l: tuple

    def as_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "k": list(self.k),
            "nu_k": list(self.nu_k),
            "minimal_dim": list(self.minimal_dim),
            "l": list(self.l),
        }


def exponent_lower_bounds(primes) -> BoundsReport:
    """Exponent thresholds above which every prime-power pattern is realized.

    For a cycle of pairwise distinct primes: k_z is the order of p_z modulo
    its predecessor p_{z-1}; the bound l_z is 2*nu(k_{z-1})*k_{z-1} when the
    predecessor is 2 and max{nu(k_z)k_z, nu(k_{z-1})k_{z-1}}*(nu(k_z)k_z + 1)
    otherwise.  minimal_dim is the witness dimension at each position.
    """
    ps = tuple(_require_prime(p) for p in primes)
    if len(ps) < 2:
        raise ConditionViolationError("need at least two primes in the cycle")
    if len(set(ps)) != len(ps):
        raise ConditionViolationError("primes must be pairwise distinct")
    n = len(ps)
    k = tuple(unit_order(ps[z], ps[z - 1]) for z in range(n))
    nu_k = tuple(nu(x) for x in k)
    minimal = tuple(minimal_witness_dimension(ps[z], ps[z - 1]) for z in range(n))
    l = []
    for z in range(n):
        if ps[z - 1] == 2:
            l.append(2 * nu_k[z - 1] * k[z - 1])
        else:
            a = nu_k[z] * k[z]
            b = nu_k[z - 1] * k[z - 1]
            l.append(max(a, b) * (a + 1))
    return BoundsReport(primes=ps, k=k, nu_k=nu_k, minimal_dim=minimal, l=tuple(l))


def _poly_divmod(num: list, den: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of little-endian coefficient lists, den monic."""
    num = [c % p for c in num]
    den = [c % p for c in den]
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * max(1, len(num) - len(den) + 1)
    rem = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        coeff = rem[shift + len(den) - 1] % p
        if coeff:
            quot[shift] = coeff
            for i, d in enumerate(den):
                rem[shift + i] = (rem[shift + i] - coeff * d) % p
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _lex_first_factor(p1: int, p: int, k: int, search_budget: int = SEARCH_BUDGET) -> list:
    """Lex-first monic degree-k divisor of x^(p1-1) + ... + 1 over Z/(p).

    Every irreducible factor of that polynomial has degree exactly k (k being
    the order of p mod p1), so a degree-k divisor always exists.  Candidates
    are enumerated by coefficient tuple (c_0, ..., c_{k-1}); trying more than
    search_budget of them raises BudgetExceededError.
    """
    target = [1] * p1  # x^(p1-1) + ... + x + 1
    for tried, coeffs in enumerate(itertools.product(range(p), repeat=k), start=1):
        if tried > search_budget:
            raise BudgetExceededError(
                f"no degree-{k} divisor over Z/({p}) among the first {search_budget} candidates"
            )
        den = list(coeffs) + [1]
        _, rem = _poly_divmod(target, den, p)
        if rem == [0]:
            return den
    raise ConditionViolationError(
        f"no degree-{k} divisor found over Z/({p}); unit order bookkeeping is wrong"
    )


def _symmetric_basis(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _invariant_symmetric_form(
    f: ResidueMatrix, search_budget: int = SEARCH_BUDGET
) -> BilinearForm | None:
    """A non-singular symmetric G with f^T G f = G, or None if none exists.

    Solves the linear system on the symmetric-matrix basis, then walks the
    solution space in lexicographic coefficient order for a non-singular
    representative (the invariant forms of a fixed f form a linear space in
    which singular members can hide non-singular ones, so the walk matters).
    """
    p = f.modulus
    dim = f.rows
    pairs = _symmetric_basis(dim)
    s = len(pairs)
    index = {pair: row for row, pair in enumerate(pairs)}
    system = np.zeros((s, s), dtype=np.int64)
    for col, (i, j) in enumerate(pairs):
        basis = np.zeros((dim, dim), dtype=np.int64)
        basis[i, j] = 1
        basis[j, i] = 1
        g = ResidueMatrix(basis, p)
        image = (f.T @ g @ f - g).array
        for (a, b), row in index.items():
            system[row, col] = image[a, b]
    solutions = nullspace_mod(system, p)
    if solutions.shape[0] == 0:
        return None
    if p ** solutions.shape[0] > search_budget:
        raise BudgetExceededError(
            f"invariant-form space has {p}^{solutions.shape[0]} candidates, "
            f"over the budget of {search_budget}"
        )
    for combo in itertools.product(range(p), repeat=solutions.shape[0]):
        if not any(combo):
            continue
        vec = np.zeros(s, dtype=np.int64)
        for c, sol in zip(combo, solutions):
            vec = (vec + c * sol) % p
        gram = np.zeros((dim, dim), dtype=np.int64)
        for (i, j), row in index.items():
            gram[i, j] = vec[row]
            gram[j, i] = vec[row]
        candidate = ResidueMatrix(gram, p)
        if candidate.det() != 0:
            return BilinearForm(candidate)
    return None


def _order_p1_candidates(p: int, p1: int, dim: int):
    """Every dim x dim matrix over Z/(p) of prime order p1, in lexicographic order.

    p1 is prime, so f has order p1 exactly when f^p1 = I and f != I, and f is
    then invertible. Candidate i is the base-p digit string of i, most
    significant digit first (the order of itertools.product); candidates are
    decoded in chunks of at most _CHUNK entries, and f^p1 is computed for a
    whole chunk at once with batched matmul.
    """
    size = dim * dim
    total = p**size
    places = p ** np.arange(size - 1, -1, -1, dtype=np.int64)
    ident = np.eye(dim, dtype=np.int64)
    step = max(1, _CHUNK // size)
    for lo in range(0, total, step):
        index = np.arange(lo, min(lo + step, total), dtype=np.int64)
        f = (index[:, None] // places % p).reshape(-1, dim, dim)
        power = f
        for bit in bin(p1)[3:]:  # left-to-right square-and-multiply after the leading 1
            power = power @ power % p
            if bit == "1":
                power = power @ f % p
        keep = (power == ident).all(axis=(1, 2)) & ~(f == ident).all(axis=(1, 2))
        for entries in f[keep]:
            yield ResidueMatrix(entries, p)


def find_orthogonal_element(
    p: int, p1: int, dim: int, search_budget: int = SEARCH_BUDGET
) -> OrthogonalMap:
    """An order-p1 orthogonal map on a dim-dimensional Z/(p)-space, f - id bijective.

    Constructive routes: f = -id for p1 = 2; a companion matrix of a degree-k
    cyclotomic-quotient factor when dim = k with k even; the hyperbolic double
    blockdiag(C, (C^-1)^T) when dim = 2k with k odd, and the generic double of
    the full quotient polynomial when dim = 2(p1 - 1).  Anything else falls to
    exhaustive lexicographic search over all p^(dim^2) matrices, bounded by
    search_budget; exhaustion proves NoWitness.  That search keeps the
    matrices of order p1, found a chunk at a time by batched matrix powers
    (``_order_p1_candidates``), then tests f - id and looks for an invariant
    non-singular form one survivor at a time, in lexicographic order.
    """
    p, p1 = _distinct_primes(p, p1)
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if p1 == 2:
        f = -ResidueMatrix.identity(dim, p)
        return _checked_witness(f, BilinearForm(ResidueMatrix.identity(dim, p)), p1)
    k = unit_order(p, p1)
    if k % 2 == 0 and dim == k:
        f = _companion(_lex_first_factor(p1, p, k, search_budget), p)
        form = _invariant_symmetric_form(f, search_budget)
        if form is None:
            raise ConditionViolationError(
                "companion witness carries no invariant non-singular form"
            )
        return _checked_witness(f, form, p1)
    if k % 2 == 1 and dim == 2 * k:
        f, form = _hyperbolic_double(_companion(_lex_first_factor(p1, p, k, search_budget), p))
        return _checked_witness(f, form, p1)
    if dim == 2 * (p1 - 1):
        form, witness = hyperbolic_witness(p1, p)
        return witness
    if p ** (dim * dim) > search_budget:
        raise BudgetExceededError(
            f"{p}^{dim * dim} candidate matrices exceed the budget of {search_budget}"
        )
    for f in _order_p1_candidates(p, p1, dim):
        if not minus_id_bijective(f):
            continue
        form = _invariant_symmetric_form(f, search_budget)
        if form is None:
            continue
        return _checked_witness(f, form, p1)
    raise NoWitnessError(
        f"exhaustive search: no orthogonal map of order {p1} with f - id "
        f"bijective exists in dimension {dim} over Z/({p})"
    )


def witness_block(witness: OrthogonalMap) -> dict:
    """Serialize a witness as a ready-to-use family spec block."""
    return {
        "p": witness.modulus,
        "gram": witness.form.gram.tolist(),
        "f": witness.matrix.tolist(),
        "m": 1,
        "r": 1,
    }
