"""Finite left braces over integer-indexed carriers.

A left brace is a set with two group structures, an abelian addition and a
(possibly nonabelian) multiplication sharing their identity element, tied
together by the compatibility law a(b + c) + a = ab + ac. Every brace here
carries its elements as integers 0..order-1 and implements four vectorized
kernels (_add, _neg, _mul, _inv) on int64 index arrays; everything else
(subtraction, the lambda maps, the star product, ideal machinery) is derived
from those kernels, so each concrete carrier only has to get four formulas
right. The kernels take 1-d int64 operands that have equal lengths or length
1, and broadcast a length-1 operand themselves: a lambda map or a conjugation
applies one generator to a whole batch, and that generator is then decoded
and paired once, not once per batch element.

Index 0 is always the shared identity for carriers built from formulas; table
carriers detect their identity from the table so that deliberately corrupted
tables are reported as axiom violations instead of crashing.

Ideal computations work with generator sets throughout: a subset closed under
lambda_g and conjugation by a set of multiplicative generators g is closed
under the maps of every element (the maps compose multiplicatively in the
subscript and are bijections of any finite invariant subset), so the
fixpoints computed here agree with exhaustive definitions. The first ideal
query on a brace tabulates those maps over the whole carrier, one int32
array per generator and kind of map, and caches the tables on the brace
(``_ideal_tables``, beside ``_mult_gens``); from then on closures, ideal
tests and orbit labels are gathers. Nothing else builds them, so braces that
are only built, checked or used through the kernels never pay for them.

Star products use the identity (a.b)*c = a*lambda_b(c) + b*c: when the left
factor is the multiplicative subgroup generated by S and the additive span
J of the right factor is invariant under lambda_s for every s in S, the
span of all products equals the span of s*g over s in S and additive
generators g of J. ``star_span`` checks both conditions and otherwise
multiplies every element of the left factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, ConditionViolationError, IncompleteLatticeError

__all__ = [
    "FiniteBrace",
    "TrivialBrace",
    "AsymmetricProductBrace",
    "SemidirectProductBrace",
    "TableBrace",
    "BraceElement",
    "AxiomReport",
    "IdealRecord",
    "SimplicityResult",
    "PrimeResult",
    "check_axioms",
    "tabulate",
    "ideal_closure",
    "is_left_ideal",
    "is_ideal",
    "is_simple",
    "list_ideals",
    "star_span",
    "additive_generators",
    "is_prime_brace",
]


def _as_index_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.int64)


class FiniteBrace:
    """Base class: derived operations over the four subclass kernels."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = int(order)
        self._axiom_report: Optional["AxiomReport"] = None
        self._mult_gens: Optional[np.ndarray] = None
        # "lam" and "conj": (k, order) int32 images under the k multiplicative
        # generators, filled by the first ideal query that needs them
        self._ideal_tables: dict[str, np.ndarray] = {}

    # subclasses implement these four on 1-d int64 arrays; the binary ones
    # take operands of equal length or of length 1, never mutate them, and
    # return a new array of the broadcast length
    def _add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _neg(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inv(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _binary(self, kernel, x, y):
        xa, ya = _as_index_array(x), _as_index_array(y)
        shape = xa.shape
        if ya.shape != shape:
            shape = np.broadcast_shapes(shape, ya.shape)
            # a single element reaches the kernel as length 1, not as a copy per element
            if xa.size != 1 and ya.size != 1:
                xa, ya = np.broadcast_to(xa, shape), np.broadcast_to(ya, shape)
        out = kernel(xa.ravel(), ya.ravel()).reshape(shape)
        if out.ndim == 0:
            return int(out)
        return out

    def _unary(self, kernel, x):
        xa = _as_index_array(x)
        out = kernel(xa.ravel()).reshape(xa.shape)
        if out.ndim == 0:
            return int(out)
        return out

    def zero(self) -> int:
        """Index of the shared additive/multiplicative identity."""
        return 0

    def add(self, x, y):
        return self._binary(self._add, x, y)

    def neg(self, x):
        return self._unary(self._neg, x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        return self._binary(self._mul, x, y)

    def inv(self, x):
        return self._unary(self._inv, x)

    def lam(self, a, b):
        """lambda_a(b) = a*b - a, the additive automorphism attached to a."""
        return self.sub(self.mul(a, b), a)

    def star(self, a, b):
        """a*b = lambda_a(b) - b; measures how far the brace is from trivial."""
        return self.sub(self.lam(a, b), b)

    def elements(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def element(self, index: int) -> "BraceElement":
        index = int(index)
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} outside carrier of order {self.order}")
        return BraceElement(self, index)

    def multiplicative_generators(self) -> np.ndarray:
        """A generating set of the multiplicative group (greedy, cached)."""
        if self._mult_gens is None:
            self._mult_gens = np.array(_greedy_generators(self, self.elements()), dtype=np.int64)
        return self._mult_gens

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


@dataclass(frozen=True)
class BraceElement:
    """A single element bound to its brace; operators defer to the brace ops."""

    brace: FiniteBrace
    index: int

    def _lift(self, other) -> int:
        if isinstance(other, BraceElement):
            if other.brace is not self.brace:
                raise ValueError("elements of different braces")
            return other.index
        return int(other)

    def __add__(self, other):
        return BraceElement(self.brace, self.brace.add(self.index, self._lift(other)))

    def __sub__(self, other):
        return BraceElement(self.brace, self.brace.sub(self.index, self._lift(other)))

    def __neg__(self):
        return BraceElement(self.brace, self.brace.neg(self.index))

    def __mul__(self, other):
        return BraceElement(self.brace, self.brace.mul(self.index, self._lift(other)))

    def inverse(self):
        return BraceElement(self.brace, self.brace.inv(self.index))

    def lam(self, other):
        return BraceElement(self.brace, self.brace.lam(self.index, self._lift(other)))

    def star(self, other):
        return BraceElement(self.brace, self.brace.star(self.index, self._lift(other)))

    def __repr__(self) -> str:
        return f"BraceElement({self.index} in {self.brace!r})"


class _MixedRadix:
    """Mixed-radix codec; the first-listed coordinate varies fastest.

    ``reordered`` lists the same coordinates in another order, with the
    weights they had, so it encodes to the same indices.
    """

    def __init__(self, moduli):
        self.moduli = np.asarray(moduli, dtype=np.int64)
        if self.moduli.ndim != 1 or self.moduli.size == 0 or np.any(self.moduli < 1):
            raise ValueError("moduli must be a non-empty list of positive integers")
        exact = 1
        for m in self.moduli.tolist():
            exact *= int(m)
        if exact > 2**62:
            raise ValueError(f"carrier of size {exact} is too large to index")
        self.weights = np.concatenate(([1], np.cumprod(self.moduli)[:-1]))
        self.size = exact
        self._digits = self._digit_order()

    def _digit_order(self) -> list[tuple[int, int]]:
        """(coordinate, modulus) pairs from the lightest weight up."""
        order = np.argsort(self.weights, kind="stable").tolist()
        return [(j, int(self.moduli[j])) for j in order]

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """(n, d) coordinates of the 1-d ``idx``.

        Digits come off from the lightest weight up, one divmod by a scalar
        per coordinate, which is several times faster than dividing an
        (n, d) grid by the weights. The result is the transpose of a (d, n)
        array.
        """
        out = np.empty((self.moduli.size, idx.size), dtype=np.int64)
        rest = idx
        for j, m in self._digits:
            rest, out[j] = np.divmod(rest, m)
        return out.T

    def encode(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self.weights

    def reordered(self, order) -> "_MixedRadix":
        """The codec whose coordinate i is this codec's coordinate ``order[i]``."""
        out = object.__new__(_MixedRadix)
        out.moduli = self.moduli[order]
        out.weights = self.weights[order]
        out.size = self.size
        out._digits = out._digit_order()
        return out


def _one_hot_generators(self) -> np.ndarray:
    """Multiplicative generators of a codec carrier: its one-hot coordinates.

    They generate a trivial brace, and an asymmetric product too, because
    (t, 0)(0, s) = (t, s) and each factor's one-hots generate that factor.
    """
    if self._mult_gens is None:
        keep = self.codec.moduli > 1
        self._mult_gens = self.codec.weights[keep].copy()
        if self._mult_gens.size == 0:
            self._mult_gens = np.array([0], dtype=np.int64)
    return self._mult_gens


class TrivialBrace(FiniteBrace):
    """The brace whose multiplication is its addition, on a product of cyclics."""

    def __init__(self, moduli):
        self.codec = _MixedRadix(moduli)
        self.moduli = self.codec.moduli
        super().__init__(self.codec.size)

    def _add(self, x, y):
        c = (self.codec.decode(x) + self.codec.decode(y)) % self.codec.moduli
        return self.codec.encode(c)

    def _neg(self, x):
        return self.codec.encode(-self.codec.decode(x) % self.codec.moduli)

    _mul = _add
    _inv = _neg

    multiplicative_generators = _one_hot_generators


class AsymmetricProductBrace(FiniteBrace):
    """Brace on T x S for trivial braces T, S, twisted by a pairing and an action.

    Addition carries a symmetric bilinear pairing b: T x T -> S into the S
    part, multiplication twists the T part by an action of S:

        (t1, s1) + (t2, s2) = (t1 + t2, s1 + s2 + b(t1, t2))
        (t1, s1) . (t2, s2) = (t1 + alpha_{s1}(t2), s1 + s2)

    ``pairing`` has shape (dS, dT, dT): component k of b(u, v) is
    u^T pairing[k] v mod s_moduli[k]. ``action_gens`` has shape (dS, dT, dT):
    alpha for s is the product of action_gens[l]^{s_l}. Generators must
    commute, respect every coordinate modulus, have order dividing their
    coordinate modulus, and preserve the pairing; the constructor enforces
    all of that up front.

    ``layout`` permutes the logical coordinates [t..., s...] into encoding
    positions so composite constructions can interleave storage; it never
    changes the algebra.
    """

    def __init__(
        self,
        t_moduli,
        s_moduli,
        pairing,
        action_gens,
        layout=None,
        family_blocks=None,
    ):
        self._tm = np.asarray(t_moduli, dtype=np.int64)
        self._sm = np.asarray(s_moduli, dtype=np.int64)
        if self._tm.ndim != 1 or self._tm.size == 0 or np.any(self._tm < 1):
            raise ValueError("t_moduli must be a non-empty list of positive integers")
        if self._sm.ndim != 1 or self._sm.size == 0 or np.any(self._sm < 1):
            raise ValueError("s_moduli must be a non-empty list of positive integers")
        dt, ds = self._tm.size, self._sm.size
        self._pairing = np.asarray(pairing, dtype=np.int64) % self._sm[:, None, None]
        self._gens = np.asarray(action_gens, dtype=np.int64) % self._tm[None, :, None]
        if self._pairing.shape != (ds, dt, dt):
            raise ValueError(f"pairing must have shape {(ds, dt, dt)}")
        if self._gens.shape != (ds, dt, dt):
            raise ValueError(f"action_gens must have shape {(ds, dt, dt)}")

        logical_moduli = np.concatenate([self._tm, self._sm])
        d = dt + ds
        if layout is None:
            layout = np.arange(d, dtype=np.int64)
        self._layout = np.asarray(layout, dtype=np.int64)
        if sorted(self._layout.tolist()) != list(range(d)):
            raise ValueError("layout must be a permutation of the coordinates")
        self._inv_layout = np.argsort(self._layout)
        self.codec = _MixedRadix(logical_moduli[self._layout])
        # decodes straight to [t..., s...] and encodes from it
        self._logical = self.codec.reordered(self._inv_layout)
        self._dt = dt
        self.family_blocks = tuple(family_blocks) if family_blocks else None
        # s @ _s_weights is the integer key of an s-vector; alpha is cached per key
        self._s_weights = _MixedRadix(self._sm).weights
        self._alpha_cache: dict[int, np.ndarray] = {}
        self._gen_powers = [self._power_table(self._gens[l], int(self._sm[l])) for l in range(ds)]
        self._validate()
        super().__init__(self.codec.size)

    # matrices act on t-coordinates; row i of any such matrix lives mod t_moduli[i]
    def _reduce(self, m: np.ndarray) -> np.ndarray:
        return m % self._tm[:, None]

    def _map_equal(self, m1: np.ndarray, m2: np.ndarray) -> bool:
        return bool(np.all((m1 - m2) % self._tm[:, None] == 0))

    def _power_table(self, g: np.ndarray, count: int) -> list[np.ndarray]:
        powers = [np.eye(self._tm.size, dtype=np.int64)]
        for _ in range(count - 1):
            powers.append(self._reduce(g @ powers[-1]))
        return powers

    def _validate(self) -> None:
        tm, sm = self._tm, self._sm
        if not np.array_equal(self._pairing, np.swapaxes(self._pairing, 1, 2)):
            raise ConditionViolationError("pairing is not symmetric")
        # b(u + tm_i e_i, v) must equal b(u, v) mod every s-coordinate modulus
        bad = (self._pairing * tm[None, :, None]) % sm[:, None, None]
        if np.any(bad):
            raise ConditionViolationError("pairing does not respect the coordinate moduli")
        bad = (self._pairing * tm[None, None, :]) % sm[:, None, None]
        if np.any(bad):
            raise ConditionViolationError("pairing does not respect the coordinate moduli")
        ident = np.eye(tm.size, dtype=np.int64)
        for l in range(sm.size):
            g = self._gens[l]
            if np.any((g * tm[None, :]) % tm[:, None]):
                raise ConditionViolationError("action does not respect the coordinate moduli")
            if not self._map_equal(g @ self._gen_powers[l][-1], ident):
                raise ConditionViolationError(
                    "action generator order does not divide its coordinate modulus"
                )
            for k in range(sm.size):
                kept = (g.T @ self._pairing[k] @ g - self._pairing[k]) % sm[k]
                if np.any(kept):
                    raise ConditionViolationError("action does not preserve the pairing")
            for m in range(l + 1, sm.size):
                h = self._gens[m]
                if not self._map_equal(self._reduce(g @ h), self._reduce(h @ g)):
                    raise ConditionViolationError("action generators do not commute")

    def _split(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logical = self._logical.decode(idx)
        return logical[:, : self._dt], logical[:, self._dt :]

    def _join(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self._logical.encode(np.concatenate([t, s], axis=1))

    def _pair_val(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        # a single row is contracted with the pairing first; b is symmetric,
        # so that row may be moved to the left
        if t2.shape[0] == 1:
            t1, t2 = t2, t1
        if t1.shape[0] == 1:
            return t2 @ (t1[0] @ self._pairing).T % self._sm
        # one (n, dT) product and a row-wise dot per component keep memory at O(n dT)
        out = np.empty((t1.shape[0], self._sm.size), dtype=np.int64)
        for k, form in enumerate(self._pairing):
            out[:, k] = np.einsum("ni,ni->n", t1 @ form, t2)
        return out % self._sm

    def _alpha_matrix(self, key: int) -> np.ndarray:
        m = self._alpha_cache.get(key)
        if m is None:
            m = np.eye(self._dt, dtype=np.int64)
            for l, w in enumerate(self._s_weights.tolist()):
                m = self._reduce(self._gen_powers[l][key // w % int(self._sm[l])] @ m)
            self._alpha_cache[key] = m
        return m

    def _alpha(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Rows alpha_{s_i}(t_i); ``s`` and ``t`` have equal lengths or length 1."""
        keys = s @ self._s_weights
        if keys.size == 1:
            return t @ self._alpha_matrix(int(keys[0])).T % self._tm
        uniq, which = np.unique(keys, return_inverse=True)
        if t.shape[0] == 1:
            images = np.empty((uniq.size, self._dt), dtype=np.int64)
            for u, key in enumerate(uniq.tolist()):
                images[u] = t[0] @ self._alpha_matrix(key).T % self._tm
            return images[which]
        out = np.empty_like(t)
        for u, key in enumerate(uniq.tolist()):
            sel = which == u
            out[sel] = t[sel] @ self._alpha_matrix(key).T % self._tm
        return out

    def _add(self, x, y):
        t1, s1 = self._split(x)
        t2, s2 = self._split(y)
        t = (t1 + t2) % self._tm
        s = (s1 + s2 + self._pair_val(t1, t2)) % self._sm
        return self._join(t, s)

    def _neg(self, x):
        t, s = self._split(x)
        return self._join(-t % self._tm, (-s + self._pair_val(t, t)) % self._sm)

    def _mul(self, x, y):
        t1, s1 = self._split(x)
        t2, s2 = self._split(y)
        return self._join((t1 + self._alpha(s1, t2)) % self._tm, (s1 + s2) % self._sm)

    def _inv(self, x):
        t, s = self._split(x)
        s_inv = -s % self._sm
        return self._join(self._alpha(s_inv, -t % self._tm), s_inv)

    multiplicative_generators = _one_hot_generators


class SemidirectProductBrace(FiniteBrace):
    """Semidirect product of braces A and B along an action of (B, .) on A.

    ``act_perms`` has shape (|B|, |A|); row b is the permutation of A-indices
    implementing the automorphism attached to b. Addition is componentwise,
    multiplication is (a1, b1)(a2, b2) = (a1 . act_{b1}(a2), b1 . b2), and the
    element index is a + |A| * b. The rows are checked to be brace
    automorphisms of A (via generator sets, which is equivalent to the
    exhaustive definition) and the assignment b -> act_b is checked to be a
    homomorphism on all of B.
    """

    def __init__(self, A: FiniteBrace, B: FiniteBrace, act_perms):
        self.A = A
        self.B = B
        self.act = np.asarray(act_perms, dtype=np.int64)
        if self.act.shape != (B.order, A.order):
            raise ValueError(f"act_perms must have shape {(B.order, A.order)}")
        self._verify_action()
        super().__init__(A.order * B.order)

    def _verify_action(self) -> None:
        from .errors import ActionNotAutomorphismError

        nA, nB = self.A.order, self.B.order
        ident = np.arange(nA, dtype=np.int64)
        for b in range(nB):
            row = self.act[b]
            if np.any(row < 0) or np.any(row >= nA) or np.bincount(row, minlength=nA).max() > 1:
                raise ActionNotAutomorphismError(f"row {b} is not a permutation")
        if not np.array_equal(self.act[self.B.zero()], ident):
            raise ActionNotAutomorphismError("identity of B must act trivially")
        bs = np.arange(nB, dtype=np.int64)
        pairs = self.B.mul(bs[:, None], bs[None, :])
        # composed[i, j, a] = act_{b_i}(act_{b_j}(a)); must match act_{b_i b_j}(a)
        composed = self.act[bs[:, None, None], self.act[None, :, :]]
        if not np.array_equal(self.act[pairs], composed):
            raise ActionNotAutomorphismError("action is not a homomorphism on B")
        all_a = np.arange(nA, dtype=np.int64)
        add_gens = additive_generators(self.A)
        mul_gens = self.A.multiplicative_generators()
        for b in map(int, self.B.multiplicative_generators()):
            f = self.act[b]
            for g in map(int, add_gens):
                if not np.array_equal(f[self.A.add(g, all_a)], self.A.add(f[g], f[all_a])):
                    raise ActionNotAutomorphismError("action does not preserve addition")
            for g in map(int, mul_gens):
                if not np.array_equal(f[self.A.mul(g, all_a)], self.A.mul(f[g], f[all_a])):
                    raise ActionNotAutomorphismError("action does not preserve multiplication")

    def _split(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return idx % self.A.order, idx // self.A.order

    def _join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + self.A.order * b

    def _add(self, x, y):
        a1, b1 = self._split(x)
        a2, b2 = self._split(y)
        return self._join(self.A.add(a1, a2), self.B.add(b1, b2))

    def _neg(self, x):
        a, b = self._split(x)
        return self._join(self.A.neg(a), self.B.neg(b))

    def _mul(self, x, y):
        a1, b1 = self._split(x)
        a2, b2 = self._split(y)
        if a2.size == 1 < a1.size:
            # act[b1, a2] takes at most |B| values here: hand each to A.mul as
            # one right operand, not as a copy per row
            a = np.empty_like(a1)
            for b in np.unique(b1).tolist():
                sel = b1 == b
                a[sel] = self.A.mul(a1[sel], self.act[b, a2])
        else:
            a = self.A.mul(a1, self.act[b1, a2])
        return self._join(a, self.B.mul(b1, b2))

    def _inv(self, x):
        a, b = self._split(x)
        bi = self.B.inv(b)
        return self._join(self.act[bi, self.A.inv(a)], self.B.inv(b))

    def multiplicative_generators(self) -> np.ndarray:
        if self._mult_gens is None:
            a_part = self.A.multiplicative_generators()
            b_part = self.A.order * self.B.multiplicative_generators()
            self._mult_gens = np.unique(np.concatenate([a_part, b_part]))
        return self._mult_gens


class TableBrace(FiniteBrace):
    """A brace given by full addition and multiplication tables.

    The identity is detected from the tables rather than assumed, and inverse
    lookups fall back to sentinel misses, so corrupted tables flow through the
    axiom checker as reported violations instead of exceptions.
    """

    def __init__(self, add_table, mul_table):
        self.add_table = np.asarray(add_table, dtype=np.int64)
        self.mul_table = np.asarray(mul_table, dtype=np.int64)
        n = self.add_table.shape[0]
        if self.add_table.shape != (n, n) or self.mul_table.shape != (n, n):
            raise ValueError("tables must be square and of equal size")
        self.entries_in_range = bool(
            (self.add_table >= 0).all()
            and (self.add_table < n).all()
            and (self.mul_table >= 0).all()
            and (self.mul_table < n).all()
        )
        ident = np.arange(n, dtype=np.int64)
        self._zero = None
        if self.entries_in_range:
            for z in range(n):
                if np.array_equal(self.add_table[z], ident) and np.array_equal(
                    self.add_table[:, z], ident
                ):
                    self._zero = z
                    break
        if self._zero is not None:
            self._neg_arr = np.argmax(self.add_table == self._zero, axis=1)
            self._inv_arr = np.argmax(self.mul_table == self._zero, axis=1)
        else:
            self._neg_arr = np.zeros(n, dtype=np.int64)
            self._inv_arr = np.zeros(n, dtype=np.int64)
        super().__init__(n)

    def zero(self) -> int:
        if self._zero is None:
            raise ConditionViolationError("table has no additive identity")
        return self._zero

    def _add(self, x, y):
        return self.add_table[x, y]

    def _mul(self, x, y):
        return self.mul_table[x, y]

    def _neg(self, x):
        return self._neg_arr[x]

    def _inv(self, x):
        return self._inv_arr[x]


def tabulate(B: FiniteBrace) -> tuple[np.ndarray, np.ndarray]:
    """Full (add, mul) tables of a brace; rows index the left operand."""
    idx = B.elements()
    return B.add(idx[:, None], idx[None, :]), B.mul(idx[:, None], idx[None, :])


@dataclass
class AxiomReport:
    """Outcome of a brace axiom check; ``checks`` maps axiom name to verdict."""

    ok: bool
    mode: str
    order: int
    checks: dict
    counterexample: Optional[tuple]
    trials: int


EXHAUSTIVE_CAP = 200  # carriers and solution tables up to this size are checked over all triples
_CHUNK = 500_000  # index pairs or triples per chunk of a vectorized check


def _check_triples(n: int, laws: dict, mode: str, trials: int, seed: int):
    """Run triple laws over all n^3 index triples or over a seeded sample.

    Each law maps index arrays a, b, c (broadcastable against each other) to
    an array that is True where the law holds. "exhaustive" walks a in chunks
    of about _CHUNK triples; "sampled" draws ``trials`` triples at once from
    ``np.random.default_rng(seed)``. A law that failed is not run again.
    Returns each law's verdict, the first failure (law name, (a, b, c)) in
    chunk-then-law order or None, and the number of triples covered.
    """
    verdicts = dict.fromkeys(laws, True)
    failure = None
    if mode == "exhaustive":
        every = np.arange(n, dtype=np.int64)
        step = max(1, _CHUNK // max(1, n * n))
        chunks = (
            (every[lo : lo + step, None, None], every[None, :, None], every[None, None, :])
            for lo in range(0, n, step)
        )
        covered = n**3
    else:
        covered = int(trials)
        if covered < 1:
            raise ValueError(f"sampled checks need at least 1 trial, got {trials}")
        chunks = [np.random.default_rng(seed).integers(0, n, size=(3, covered))]
    for a, b, c in chunks:
        triple = np.broadcast_arrays(a, b, c)
        for name, law in laws.items():
            if not verdicts[name]:
                continue
            held = np.broadcast_to(law(a, b, c), triple[0].shape)
            if held.all():
                continue
            verdicts[name] = False
            if failure is None:
                first = np.unravel_index(np.argmin(held), held.shape)
                failure = (name, tuple(int(t[first]) for t in triple))
        if not any(verdicts.values()):
            break
    return verdicts, failure, covered


def check_axioms(
    B: FiniteBrace,
    mode: str = "auto",
    trials: int = 100_000,
    seed: int = 0,
) -> AxiomReport:
    """Verify the brace axioms on ``B``.

    ``mode`` is "exhaustive" (all pairs and triples), "sampled" (seeded random
    triples; identity and inverse laws stay exhaustive since they are linear
    scans), or "auto", which picks exhaustive for orders up to
    ``EXHAUSTIVE_CAP``. The report is cached on the brace instance.

    The identity and inverse scans run through the kernels. Commutativity and
    the triple laws gather from the (add, mul) tables of ``tabulate`` when a
    table is no larger than the check, n^2 <= the number of triples (n^3 in
    exhaustive mode, ``trials`` when sampled), and otherwise run through the
    kernels; both give the same report. The tables are not kept.
    """
    n = B.order
    if mode == "auto":
        mode = "exhaustive" if n <= EXHAUSTIVE_CAP else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")

    if isinstance(B, TableBrace) and not B.entries_in_range:
        return AxiomReport(
            ok=False,
            mode=mode,
            order=n,
            checks={"closure": False},
            counterexample=("closure", ()),
            trials=0,
        )

    try:
        z = B.zero()
    except ConditionViolationError:
        return AxiomReport(
            ok=False,
            mode=mode,
            order=n,
            checks={"additive_identity": False, "multiplicative_identity": False},
            counterexample=("additive_identity", ()),
            trials=0,
        )

    every = B.elements()
    zeros = np.full(n, z, dtype=np.int64)
    checks: dict[str, bool] = {}
    failures = []
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

    if n * n <= (n**3 if mode == "exhaustive" else trials):
        add_t, mul_t = tabulate(B)

        def add(x, y):
            return add_t[x, y]

        def mul(x, y):
            return mul_t[x, y]

    else:
        add, mul = B.add, B.mul
    # commutativity is a law on pairs: it runs over all of them before any triple law
    commutes = {"additive_commutativity": lambda a, b, c: add(a, b) == add(b, a)}
    verdicts, failure, _ = _check_triples(n, commutes, mode, trials, seed)
    checks.update(verdicts)
    if failure is not None:
        failures.append((failure[0], failure[1][:2]))
    triple_laws = {
        "additive_associativity": lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)),
        "multiplicative_associativity": lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c)),
        "compatibility": lambda a, b, c: add(mul(a, add(b, c)), a) == add(mul(a, b), mul(a, c)),
    }
    verdicts, failure, covered = _check_triples(n, triple_laws, mode, trials, seed)
    checks.update(verdicts)
    if failure is not None:
        failures.append(failure)

    report = AxiomReport(
        ok=all(checks.values()),
        mode=mode,
        order=n,
        checks=checks,
        counterexample=failures[0] if failures else None,
        trials=0 if mode == "exhaustive" else covered,
    )
    B._axiom_report = report
    return report


class _AdditiveSpan:
    """Growing additive subgroup, tracked as a bitmask plus member chunks.

    ``insert`` adds a whole cyclic tower of cosets at once: for a new element
    x it walks x, 2x, 3x, ... and unions the coset H + kx for each step that
    lands outside the current subgroup H, which keeps the number of insert
    calls logarithmic in the subgroup size.
    """

    def __init__(self, B: FiniteBrace):
        self.B = B
        self.mask = np.zeros(B.order, dtype=bool)
        self.mask[B.zero()] = True
        self._chunks = [np.array([B.zero()], dtype=np.int64)]
        self.size = 1

    @property
    def members(self) -> np.ndarray:
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def insert(self, x: int) -> bool:
        x = int(x)
        if self.mask[x]:
            return False
        base = self.members
        rep = x
        while not self.mask[rep]:
            coset = self.B.add(base, rep)
            self.mask[coset] = True
            self._chunks.append(coset)
            self.size += coset.size
            rep = int(self.B.add(rep, x))
        return True

    def insert_many(self, values: np.ndarray) -> bool:
        grew = False
        fresh = np.unique(values[~self.mask[values]])
        for v in fresh:
            if self.insert(int(v)):
                grew = True
        return grew


@dataclass(frozen=True, eq=False)
class IdealRecord:
    """A computed ideal (or left ideal): sorted members plus provenance."""

    members: np.ndarray
    size: int
    seeds: tuple
    two_sided: bool
    mask: np.ndarray = field(repr=False)

    @classmethod
    def from_members(cls, B: FiniteBrace, members, two_sided: bool = True) -> "IdealRecord":
        """Record of a member set (or record) taken as given; verifies nothing."""
        members = _as_members(members)
        mask = np.zeros(B.order, dtype=bool)
        mask[members] = True
        return cls(
            members=members, size=int(members.size), seeds=(), two_sided=two_sided, mask=mask
        )

    def contains(self, x) -> bool:
        """Whether every index in ``x`` is a member; indices outside the carrier are not."""
        x = np.asarray(x, dtype=np.int64)
        return bool(np.all((x >= 0) & (x < self.mask.size)) and np.all(self.mask[x]))

    def key(self) -> bytes:
        return self.members.tobytes()

    def __repr__(self) -> str:
        kind = "ideal" if self.two_sided else "left ideal"
        return f"IdealRecord({kind}, size={self.size}, seeds={self.seeds})"


def _record_from_span(span: _AdditiveSpan, seeds, two_sided: bool) -> IdealRecord:
    return IdealRecord(
        members=np.sort(span.members),
        size=span.size,
        seeds=tuple(int(s) for s in seeds),
        two_sided=two_sided,
        mask=span.mask,
    )


def ideal_closure(
    B: FiniteBrace,
    seeds,
    mode: str = "two_sided",
    budget: int = 1_000_000,
) -> IdealRecord:
    """Smallest (left) ideal containing ``seeds``.

    Fixpoint of three closures: additive span, lambda images, and (for
    two-sided ideals) conjugation, the latter two taken over a multiplicative
    generating set of B, which suffices because both kinds of maps compose
    multiplicatively in the subscript. Raises BudgetExceededError if the
    closure outgrows ``budget`` before completing.
    """
    if mode not in ("left", "two_sided"):
        raise ValueError(f"unknown mode {mode!r}")
    two_sided = mode == "two_sided"
    seed_list = [int(s) for s in np.atleast_1d(np.asarray(seeds, dtype=np.int64)).ravel()]
    span = _AdditiveSpan(B)
    for s in seed_list:
        if not 0 <= s < B.order:
            raise ValueError(f"seed {s} outside carrier")
        span.insert(s)

    tables = _ideal_maps(B, two_sided)
    ptr = 0
    while ptr < span.size and span.size < B.order:
        if span.size > budget:
            raise BudgetExceededError(f"closure exceeded budget {budget}")
        batch = span.members[ptr:]
        ptr = span.size
        for table in tables:
            span.insert_many(table[batch])
            if span.size == B.order:
                break
    return _record_from_span(span, seed_list, two_sided)


def _ideal_maps(B: FiniteBrace, two_sided: bool) -> list[np.ndarray]:
    """Tables of the maps an additive subgroup must be invariant under to be a (left) ideal.

    For each multiplicative generator g: lambda_g and, when ``two_sided``,
    x -> g x g^-1 right after it, each as an int32 array over the whole
    carrier (the image of x is ``table[x]``). The first query that needs a
    kind of table builds it through the kernels and caches it on the brace;
    lambda_g(x) = g x - g and g x g^-1 share the product g x, and the
    generators are inverted in one call.
    """
    tables = B._ideal_tables
    missing = [kind for kind in ("lam", "conj")[: 1 + two_sided] if kind not in tables]
    if missing:
        gens = B.multiplicative_generators().tolist()
        for kind in missing:
            tables[kind] = np.empty((len(gens), B.order), dtype=np.int32)
        inverses = B.inv(gens).tolist() if "conj" in missing else [None] * len(gens)
        for i, (g, gi) in enumerate(zip(gens, inverses)):
            left = B.mul(g, B.elements())
            if "lam" in missing:
                tables["lam"][i] = B.sub(left, g)
            if "conj" in missing:
                tables["conj"][i] = B.mul(left, gi)
    if not two_sided:
        return list(tables["lam"])
    return [table for pair in zip(tables["lam"], tables["conj"]) for table in pair]


def _as_members(obj) -> np.ndarray:
    members = getattr(obj, "members", obj)
    return np.unique(np.asarray(members, dtype=np.int64))


def _outside_carrier(B: FiniteBrace, members: np.ndarray) -> bool:
    """Whether sorted ``members`` reach outside 0..order-1."""
    return members.size > 0 and (members[0] < 0 or members[-1] >= B.order)


def _is_closed(B: FiniteBrace, members, two_sided: bool) -> bool:
    """Whether ``members`` is an additive subgroup invariant under ``_ideal_maps``."""
    members = _as_members(members)
    if members.size == 0 or _outside_carrier(B, members):
        return False
    mask = np.zeros(B.order, dtype=bool)
    mask[members] = True
    if not mask[B.zero()]:
        return False
    span = _AdditiveSpan(B)
    for x in members:
        span.insert(int(x))
        if span.size > members.size:
            return False
    return all(np.all(mask[table[members]]) for table in _ideal_maps(B, two_sided))


def is_left_ideal(B: FiniteBrace, members) -> bool:
    """Exhaustive-equivalent check: additive subgroup, invariant under every lambda."""
    return _is_closed(B, members, two_sided=False)


def is_ideal(B: FiniteBrace, members) -> bool:
    """Left ideal that is also normal in the multiplicative group."""
    return _is_closed(B, members, two_sided=True)


@dataclass
class SimplicityResult:
    """Verdict of an exhaustive simplicity scan."""

    simple: bool
    certificate: Optional[IdealRecord]
    closures_run: int


def is_simple(B: FiniteBrace, budget: int = 1_000_000) -> SimplicityResult:
    """Exhaustive test: the closure of every nonzero element must be everything.

    Any closure that stalls below the full carrier is returned as a
    certificate of non-simplicity.
    """
    if B.order == 1:
        return SimplicityResult(False, None, 0)
    closures = 0
    for x in range(B.order):
        if x == B.zero():
            continue
        rec = ideal_closure(B, [x], mode="two_sided", budget=budget)
        closures += 1
        if rec.size != B.order:
            return SimplicityResult(False, rec, closures)
    return SimplicityResult(True, None, closures)


def _orbit_labels(B: FiniteBrace) -> np.ndarray:
    """Orbit minimum of each element under ``_ideal_maps``: min-labels with pointer jumping."""
    tables = _ideal_maps(B, two_sided=True)
    label, prev = B.elements(), None
    while not np.array_equal(label, prev):
        prev = label
        for table in tables:
            label = np.minimum(label, label[table])
        label = label[label]
    return label


def list_ideals(B: FiniteBrace, budget: int = 1_000_000) -> list[IdealRecord]:
    """All ideals: one closure per ideal-map orbit (closures are constant on orbits), then joins."""
    zero_rec = ideal_closure(B, [], mode="two_sided", budget=budget)
    found: dict[bytes, IdealRecord] = {zero_rec.key(): zero_rec}
    for x in np.flatnonzero(_orbit_labels(B) == B.elements()).tolist():
        if x == B.zero():
            continue
        rec = ideal_closure(B, [x], mode="two_sided", budget=budget)
        found.setdefault(rec.key(), rec)
    # close under joins: the join of two ideals is the closure of both seed sets
    changed = True
    while changed:
        changed = False
        records = list(found.values())
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                a, b = records[i], records[j]
                if a.contains(b.members) or b.contains(a.members):
                    continue
                joined = ideal_closure(
                    B, list(a.seeds) + list(b.seeds), mode="two_sided", budget=budget
                )
                if joined.key() not in found:
                    found[joined.key()] = joined
                    changed = True
    return sorted(found.values(), key=lambda r: (r.size, r.key()))


def additive_generators(B: FiniteBrace, within=None) -> np.ndarray:
    """Greedy additive generating set of the carrier (or of the span of ``within``)."""
    pool = B.elements() if within is None else _as_members(within)
    return _greedy_span(B, pool)[0]


def _greedy_span(B: FiniteBrace, pool: np.ndarray) -> tuple[np.ndarray, _AdditiveSpan]:
    """Greedy additive generators of the span of ``pool``, and that span."""
    span = _AdditiveSpan(B)
    gens: list[int] = []
    for x in pool:
        if not span.mask[x]:
            gens.append(int(x))
            span.insert(int(x))
            # the size test is a cheap pre-check: only a span that covers the pool ends the walk
            if span.size >= pool.size and span.mask[pool].all():
                break
    return np.array(gens if gens else [B.zero()], dtype=np.int64), span


def multiplicative_closure(B: FiniteBrace, gens) -> np.ndarray:
    """Sorted members of the subgroup of (B, mul) generated by ``gens``.

    Breadth-first right multiplication from the identity; in a finite group
    closure under the generators alone already yields inverses.
    """
    gen_arr = np.unique(np.asarray(list(gens), dtype=np.int64))
    mask = np.zeros(B.order, dtype=bool)
    mask[B.zero()] = True
    if gen_arr.size:
        _grow(B, mask, np.array([B.zero()], dtype=np.int64), gen_arr)
    return np.flatnonzero(mask).astype(np.int64)


def _grow(B: FiniteBrace, mask: np.ndarray, frontier: np.ndarray, gens: np.ndarray) -> None:
    """Mark in ``mask`` every product of the marked ``frontier`` with a word in ``gens``."""
    while frontier.size:
        prods = np.unique(B.mul(frontier[:, None], gens[None, :]).ravel())
        frontier = prods[~mask[prods]]
        mask[frontier] = True


def _greedy_generators(B: FiniteBrace, pool: np.ndarray, inside=None) -> Optional[list[int]]:
    """Greedy generating set of the multiplicative subgroup spanned by ``pool``.

    Each entry of ``pool`` outside the closure H of the earlier picks is
    picked. The closure grows from H: <H, x> is H times the words in the
    picks, and the only new elements that H itself reaches are those of Hx.
    Given a boolean mask ``inside``, returns None as soon as a closure leaves it.
    """
    gens: list[int] = []
    covered = np.zeros(B.order, dtype=bool)
    covered[B.zero()] = True
    for x in pool.tolist():
        if not covered[x]:
            gens.append(int(x))
            fresh = np.unique(B.mul(np.flatnonzero(covered), x))
            fresh = fresh[~covered[fresh]]
            covered[fresh] = True
            _grow(B, covered, fresh, np.array(gens, dtype=np.int64))
            if inside is not None and not inside[covered].all():
                return None
    return gens


def _subgroup_generators(B: FiniteBrace, members: np.ndarray) -> Optional[np.ndarray]:
    """Multiplicative generators of sorted ``members`` if they form a nontrivial subgroup, else None."""
    if members.size == B.order:
        return B.multiplicative_generators()
    inside = np.zeros(B.order, dtype=bool)
    inside[members] = True
    found = _greedy_generators(B, members, inside) if inside[B.zero()] else None
    return np.array(found, dtype=np.int64) if found else None


def star_span(B: FiniteBrace, left, right) -> np.ndarray:
    """Additive span of all products a*b with a in ``left``, b in ``right``.

    Since a*(b + c) = a*b + a*c, the products against a set G of additive
    generators of span(``right``) already span the full set. When ``left`` is
    a multiplicative subgroup <S> and span(``right``) is invariant under
    lambda_s for every s in S, the identity (a.b)*c = a*lambda_b(c) + b*c
    reduces the left factor to S too, and the result is span{s*g}. Both
    conditions are checked here: S is found greedily (the cached generators
    when ``left`` is the whole carrier), giving up as soon as a closure
    leaves ``left``, and every lambda_s(g) must lie in span(``right``).
    Otherwise every a in ``left`` is multiplied against G. Both paths are
    cross-checked against the brute-force span in the test suite. Members
    outside the carrier raise ValueError.
    """
    left = _as_members(left)
    right = _as_members(right)
    for name, factor in (("left", left), ("right", right)):
        if _outside_carrier(B, factor):
            raise ValueError(f"{name} factor has members outside the carrier of order {B.order}")
    gens, right_span = _greedy_span(B, right)
    span = _AdditiveSpan(B)
    left_gens = _subgroup_generators(B, left)
    if left_gens is not None:
        lams = B.lam(left_gens[:, None], gens[None, :])
        if right_span.mask[lams].all():
            span.insert_many(B.sub(lams, gens[None, :]).ravel())
            return np.sort(span.members)
    for g in gens.tolist():
        span.insert_many(np.atleast_1d(B.star(left, g)))
    return np.sort(span.members)


@dataclass
class PrimeResult:
    """Verdict of a primeness check against a known ideal lattice."""

    prime: bool
    witness_pair: Optional[tuple]


def is_prime_brace(
    B: FiniteBrace,
    lattice,
    spot_checks: int = 8,
    seed: int = 0,
    budget: int = 1_000_000,
) -> PrimeResult:
    """Primeness given the full ideal lattice: every product of nonzero ideals is nonzero.

    The caller supplies the lattice (as IdealRecords or member arrays); it
    must contain the zero ideal and the full brace, every entry must verify
    as an ideal, and seeded spot checks confirm that the closures of random
    nonzero elements all land on lattice entries. Any discrepancy raises
    IncompleteLatticeError, since a missing ideal would make the primeness
    verdict unsound.
    """
    records = []
    for entry in lattice:
        members = _as_members(entry)
        if _outside_carrier(B, members):
            raise IncompleteLatticeError(
                f"lattice entry has members outside the carrier of order {B.order}"
            )
        records.append(IdealRecord.from_members(B, members))
    sizes = {r.size for r in records}
    if 1 not in sizes or B.order not in sizes:
        raise IncompleteLatticeError("lattice must contain the zero ideal and the full brace")
    keys = {r.key() for r in records}
    for r in records:
        if not is_ideal(B, r.members):
            raise IncompleteLatticeError(f"lattice entry of size {r.size} is not an ideal")
    if B.order == 1:
        return PrimeResult(False, None)  # a prime brace is nonzero, as is a simple one
    rng = np.random.default_rng(seed)
    nonzero = np.delete(B.elements(), B.zero())
    for x in nonzero[rng.integers(0, B.order - 1, size=spot_checks)]:
        rec = ideal_closure(B, [int(x)], mode="two_sided", budget=budget)
        if rec.key() not in keys:
            raise IncompleteLatticeError(
                f"closure of element {int(x)} (size {rec.size}) is missing from the lattice"
            )
    nonzero = [r for r in records if r.size > 1]
    for left in nonzero:
        for right in nonzero:
            span = star_span(B, left, right)
            if span.size == 1:
                return PrimeResult(False, (left.size, right.size))
    return PrimeResult(True, None)
