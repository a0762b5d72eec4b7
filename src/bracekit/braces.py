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
and paired once, not once per batch element. The carriers built on a
mixed-radix codec walk their operands in blocks of _BLOCK columns, through
digit rows that each thread keeps and reuses (``_blockwise``): a kernel call
allocates its result and nothing else of its operands' length, and several
threads may call the kernels of one brace at once. The rows have the
smallest unsigned dtype that holds every value a kernel puts in them, from
a bound each carrier states (uint8 for every shipped spec), and are reduced
by compare and subtraction (``_reduce_rows``).

Index 0 is always the shared identity for carriers built from formulas; table
carriers detect their identity from the table so that deliberately corrupted
tables are reported as axiom violations instead of crashing.

Ideal computations work with generator sets throughout: a subset closed under
lambda_g and conjugation by a set of multiplicative generators g is closed
under the maps of every element (the maps compose multiplicatively in the
subscript and are bijections of any finite invariant subset), so the
fixpoints computed here agree with exhaustive definitions. The argument
needs only some generating set, so the maps are taken over a reduced one:
the picks of ``_greedy_walk``, the one greedy walk that finds every
generating set here with its caller's product step, from the multiplicative
generators in reverse order (5 instead of 14 at order 92160). The first ideal
query finds the picks and tabulates both maps of each in one pass
(``_ideal_maps``), and assigns the picks and the tables to the brace's
``_ideal_tables`` once, when complete, so several threads may make that query
on one brace. From then on closures, ideal tests, orbit labels and the
conjugates of ``groupinfo.derived_subgroup`` are gathers. Nothing else builds
them, so braces that are only built, checked or used through the kernels never
pay for them.

Star products use the identity (a.b)*c = a*lambda_b(c) + b*c: when the left
factor is the multiplicative subgroup generated by S and the additive span
J of the right factor is invariant under lambda_s for every s in S, the
span of all products equals the span of s*g over s in S and additive
generators g of J. ``star_span`` checks both conditions and otherwise
multiplies every element of the left factor.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ActionNotAutomorphismError,
    ConditionViolationError,
    IncompleteLatticeError,
)
from .modular import is_prime

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
    "multiplicative_closure",
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
        # (generators, (2k, order) int32 tables of lambda_g and conjugation by g),
        # assigned once by the first ideal query
        self._ideal_tables: Optional[tuple[np.ndarray, np.ndarray]] = None
        # the (order, order) addition table of a small carrier, assigned once by _kept_addition_table
        self._add_table: Optional[np.ndarray] = None
        # the last left factor star_span reduced: (member bytes, generators or None)
        self._left_gens: Optional[tuple[bytes, Optional[np.ndarray]]] = None

    # subclasses implement these four on 1-d int64 arrays; the binary ones
    # take operands of equal length or of length 1, never mutate them, and
    # return a new array of the broadcast length; all four raise IndexError
    # for indices outside 0..order-1 and may run in several threads at once
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
            self._mult_gens = np.array(_greedy_generators(self, self.elements())[0], dtype=np.int64)
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


_BLOCK = 1 << 15  # columns per block of the digit-row kernels; the sweep is in CHANGES.md


def _padded_columns(count: int, dtype: np.dtype) -> int:
    """Columns of a table row of ``count`` ``dtype`` entries, padded to a power of two up to 32 bytes.

    numpy's ``take`` copies rows of those widths fastest.
    """
    nbytes = count * dtype.itemsize
    return (1 << (nbytes - 1).bit_length() if nbytes <= 32 else nbytes) // dtype.itemsize


class _Scratch(threading.local):
    """Buffers that the digit-row kernels of one thread reuse from call to call.

    ``rows(d, m, dtype)`` is three C-contiguous (d, m) views of one flat
    buffer, and ``array(name, shape, dtype)`` is a view of the flat buffer
    ``name``. Both buffers grow when larger views are asked for, and the
    kernels ask for m <= _BLOCK. Fresh arrays would cost a page fault per
    4 KB on every large call, because the allocator hands big freed blocks
    back to the system. No value survives from one call to the next: every
    kernel writes a buffer before it reads it. Three buffers of _BLOCK
    columns are there from the thread's first use: ``digits`` (8 bytes per
    column), where ``_MixedRadix.decode`` gathers the digits of one run;
    ``ints`` (two int64 rows), its quotients and run values and then
    ``AsymmetricProductBrace._alpha``'s keys; and ``sums`` (32 bits), where
    ``_MixedRadix._weigh`` sums the digits of an index. At order 750141 a
    thread keeps 5.9 MiB in all, where int64 rows alone took 7.5 MiB.
    """

    def __init__(self):
        self.digits = np.empty(8 * _BLOCK, dtype=np.uint8)
        self.ints = np.empty((2, _BLOCK), dtype=np.int64)
        self.sums = np.empty(_BLOCK, dtype=np.uint32)
        self._rows_key = None
        self._rows = ()
        # name -> (flat buffer, (shape, dtype) of the view, view)
        self._buffers: dict = {}

    def rows(self, d: int, m: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._rows_key != (d, m, dtype):
            self._rows = tuple(self.array("rows", (3, d, m), dtype))
            self._rows_key = (d, m, dtype)
        return self._rows

    def array(self, name: str, shape: tuple, dtype: np.dtype) -> np.ndarray:
        flat, key, view = self._buffers.get(name, (None, None, None))
        if key != (shape, dtype):
            nbytes = math.prod(shape) * dtype.itemsize
            if flat is None or flat.size < nbytes:
                flat = np.empty(nbytes, dtype=np.uint8)
            view = flat[:nbytes].view(dtype).reshape(shape)
            self._buffers[name] = (flat, (shape, dtype), view)
        return view


_scratch = _Scratch()


@dataclass(frozen=True, eq=False)
class _Run:
    """Consecutive digits of a codec, by weight, whose moduli multiply to ``product``.

    ``table`` row v holds the run's digits of v, in the smallest unsigned
    dtype, one column per coordinate in ascending coordinate order, in rows
    padded by ``_padded_columns``. ``columns`` pairs slices of those columns
    with the slices of coordinate rows they fill: one pair when the run's
    coordinates are consecutive, whatever their weights. ``row`` is the
    run's first coordinate. A digit whose modulus exceeds _BLOCK is a run
    of its own with no table: its value is the digit.
    """

    product: int
    row: int
    table: Optional[np.ndarray] = None
    columns: tuple = ()


class _MixedRadix:
    """Mixed-radix codec; the first-listed coordinate varies fastest.

    ``weights``, when given, are those of the same moduli listed in another
    order: ``reordered`` lists the coordinates in another order with the
    weights they had, so it encodes to the same indices. ``decode`` and
    ``encode`` walk the columns _BLOCK at a time, so a call allocates only
    its result. ``decode`` reads the digits in runs of at most _BLOCK values
    (``_Run``), which its first call builds, into rows of any integer dtype;
    ``encode`` sums them in the smallest unsigned dtype that holds the
    carrier's indices (``_weigh``), or over every column at once in int64.
    """

    def __init__(self, moduli, weights=None):
        self.moduli = np.asarray(moduli, dtype=np.int64)
        if self.moduli.ndim != 1 or self.moduli.size == 0 or np.any(self.moduli < 1):
            raise ValueError("moduli must be a non-empty list of positive integers")
        exact = 1
        for m in self.moduli.tolist():
            exact *= int(m)
        if exact > 2**62:
            raise ValueError(f"carrier of size {exact} is too large to index")
        if weights is None:
            weights = np.concatenate(([1], np.cumprod(self.moduli)[:-1]))
        self.weights = np.asarray(weights, dtype=np.int64)
        self.size = exact
        self._runs: Optional[list[_Run]] = None
        # the weights in the dtype that _weigh sums indices in: the smallest
        # unsigned one that holds them, int64 from 2^32 on
        dtype = np.min_scalar_type(exact - 1)
        self._sum_weights = self.weights.astype(np.int64 if dtype.itemsize == 8 else dtype)

    def _digit_runs(self) -> list[_Run]:
        """The digits, lightest first, split into runs whose moduli multiply to at most _BLOCK.

        Built by the first ``decode`` and kept: a run's table has at most
        _BLOCK rows of a byte or two per digit.
        """
        groups: list[list[tuple[int, int]]] = []
        products: list[int] = []
        for j in np.argsort(self.weights, kind="stable").tolist():
            m = int(self.moduli[j])
            if not groups or products[-1] * m > _BLOCK:
                groups.append([])
                products.append(1)
            groups[-1].append((j, m))
            products[-1] *= m
        runs = []
        for group, product in zip(groups, products):
            coords = sorted(j for j, _ in group)
            if product > _BLOCK:
                runs.append(_Run(product, coords[0]))
                continue
            dtype = np.min_scalar_type(max(m for _, m in group) - 1)
            table = np.zeros((product, _padded_columns(len(group), dtype)), dtype=dtype)
            values, weight = np.arange(product), 1
            for j, m in group:
                table[:, coords.index(j)] = values // weight % m
                weight *= m
            # maximal ranges of consecutive coordinates, as column and row slices
            starts = [k for k in range(len(coords)) if k == 0 or coords[k] != coords[k - 1] + 1]
            columns = tuple(
                (slice(a, b), slice(coords[a], coords[a] + b - a))
                for a, b in zip(starts, starts[1:] + [len(coords)])
            )
            runs.append(_Run(product, coords[0], table, columns))
        self._runs = runs
        return runs

    def decode(self, idx: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(n, d) coordinates of the 1-d ``idx``, written into ``out`` when given.

        The digits are read in runs (``_digit_runs``), lightest first: one
        floor division per run boundary splits off the value of the runs
        below it, and a run's value picks its digits from the run's table
        with one ``take`` into this thread's ``_scratch.digits``, which are
        then written into their rows. The quotients and run values wait in
        ``_scratch.ints``, so the rows may have any integer dtype that holds
        the digits: int64 without ``out``, the kernels' small unsigned rows
        with it. A codec of at most _BLOCK elements is one run and needs no
        division. The result (and ``out``) is the transpose of a (d, n)
        array, so ``.T`` gives back one row per coordinate. Indices outside
        0..size-1 raise IndexError.
        """
        idx = np.asarray(idx, dtype=np.int64)
        rows = np.empty((self.moduli.size, idx.size), dtype=np.int64) if out is None else out.T
        runs = self._runs or self._digit_runs()
        *lower, top = runs
        for lo in range(0, idx.size, _BLOCK):
            if idx.size <= _BLOCK:  # kernel blocks and small calls: no slices to make
                block, part = rows, idx
            else:
                block, part = rows[:, lo : lo + _BLOCK], idx[lo : lo + _BLOCK]
            rest = part
            for run in lower:
                if rest is part:
                    quotient, value = _scratch.ints[:, : part.size]
                    np.floor_divide(part, run.product, quotient)
                    np.multiply(quotient, run.product, value)
                    np.subtract(part, value, value)
                else:  # three or more runs: the quotient stays in place
                    np.divmod(quotient, run.product, out=(quotient, value))
                rest = quotient
                _put_digits(run, value, block)
            # the top run's value is below its product exactly when 0 <= idx <
            # size; read as unsigned, a negative value is above every product
            if rest.view(np.uint64).max() >= top.product:
                bad = int(part[(rest < 0) | (rest >= top.product)][0])
                raise IndexError(f"index {bad} outside carrier of order {self.size}")
            _put_digits(top, rest, block)
        return rows.T

    def encode(self, coords: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Indices of the (n, d) ``coords``, written into ``out`` when given.

        ``coords`` is read by rows of its transpose, as ``decode`` returns
        it, in any integer dtype, _BLOCK columns at a time.
        """
        rows = coords.T
        n = rows.shape[1]
        if out is None:
            out = np.empty(n, dtype=np.int64)
        if n <= _BLOCK or self._in_int64(rows):
            self._weigh(rows, out)
        else:
            for lo in range(0, n, _BLOCK):
                self._weigh(rows[:, lo : lo + _BLOCK], out[lo : lo + _BLOCK])
        return out

    def _in_int64(self, rows: np.ndarray) -> bool:
        """Whether ``_weigh`` sums the digit ``rows`` in int64, where no scratch bounds the columns."""
        return rows.dtype.itemsize == 8 or self._sum_weights.dtype.itemsize == 8

    def _weigh(self, rows: np.ndarray, out: np.ndarray) -> None:
        """Write the indices of the (d, m) digit ``rows`` into the int64 ``out``.

        Every partial sum of an index is at most the index, so a carrier of
        at most 2^32 elements sums digit rows of up to 32 bits in one
        ``einsum`` with ``_sum_weights``, in the smallest unsigned dtype that
        holds its indices (``_scratch.sums``, so m is at most _BLOCK), and
        casts the sums once. Rows of 64 bits (``decode``'s own int64 rows) and
        larger carriers are summed in int64 by one integer ``matmul`` over
        every column, which needs no scratch; uint64 rows are read as int64,
        because numpy would promote int64 with uint64 to float64.
        """
        weights = self._sum_weights
        if self._in_int64(rows):
            rows = rows.view(np.int64) if rows.dtype == np.uint64 else rows
            np.matmul(self.weights, rows, out)
        else:
            sums = _scratch.sums.view(weights.dtype)[: out.size]
            np.einsum("j,jn->n", weights, rows, out=sums, casting="unsafe")
            out[...] = sums

    def reordered(self, order) -> "_MixedRadix":
        """The codec whose coordinate i is this codec's coordinate ``order[i]``."""
        return _MixedRadix(self.moduli[order], self.weights[order])


def _put_digits(run: _Run, values: np.ndarray, block: np.ndarray) -> None:
    """Write the digits of the run ``values`` into their rows of ``block``.

    The digits are taken into this thread's ``_scratch.digits`` in as many
    column slices as it needs, and each slice is written into the rows
    before the next is taken. A run without a table is its own digit.
    """
    table, buffer = run.table, _scratch.digits
    if table is None:
        np.copyto(block[run.row], values, casting="unsafe")
        return
    step = buffer.size // table.strides[0]
    for lo in range(0, values.size, step):
        hi = min(lo + step, values.size)
        digits = buffer[: (hi - lo) * table.strides[0]].view(table.dtype).reshape(hi - lo, -1)
        table.take(values[lo:hi], axis=0, out=digits, mode="clip")
        for columns, coords in run.columns:
            np.copyto(block[coords, lo:hi], digits[:, columns].T)


def _one_hot_generators(self) -> np.ndarray:
    """Multiplicative generators of a codec carrier: its one-hot coordinates.

    They generate a trivial brace, and an asymmetric product too, because
    (t, 0)(0, s) = (t, s) and each factor's one-hots generate that factor.
    """
    if self._mult_gens is None:
        gens = self.codec.weights[self.codec.moduli > 1]
        self._mult_gens = gens if gens.size else np.array([0], dtype=np.int64)
    return self._mult_gens


def _reduce_rows(rows: np.ndarray, moduli: np.ndarray, spare: np.ndarray) -> None:
    """Reduce the unsigned ``rows``, each below twice its modulus, in place; ``spare`` is scratch.

    Where a row value is below its modulus, ``rows - moduli`` wraps round
    above it, so the minimum of the two is the value mod its modulus. That is
    one compare and one subtraction per entry, where ``np.remainder`` by a
    column of moduli divides every entry.
    """
    np.subtract(rows, moduli, spare)
    np.minimum(rows, spare, out=rows)


def _blockwise(codec: _MixedRadix, dtype: np.dtype, step, x: np.ndarray, y: Optional[np.ndarray] = None):
    """Indices of ``step`` over the ``dtype`` digit rows of ``x`` (and ``y``), _BLOCK columns at a time.

    Each block of an operand is decoded into this thread's scratch rows; a
    length-1 operand is decoded once into a (d, 1) column that broadcasts.
    ``step(x_rows, y_rows, acc, spare)`` returns the block's reduced (d, m)
    result rows, which are encoded into its slice of the result. It may
    overwrite ``acc``, the rows of an operand that is walked (``x_rows``
    unless only ``y`` is), and ``spare``, (d, m) rows of its own. So the
    result is the only array of the operands' length that a call allocates.
    A step must not call a kernel itself: the nested call would reuse this
    thread's rows.
    """
    d = codec.moduli.size
    walk_x = y is None or x.size != 1 or y.size == 1
    walk_y = y is not None and y.size != 1
    n = x.size if walk_x else y.size
    x_rows = None if walk_x else codec.decode(x, np.empty((d, 1), dtype=dtype).T).T
    y_rows = None if y is None or walk_y else codec.decode(y, np.empty((d, 1), dtype=dtype).T).T
    result = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        x_block, y_block, spare = _scratch.rows(d, hi - lo, dtype)
        if walk_x:
            codec.decode(x[lo:hi], x_block.T)
            x_rows = x_block
        if walk_y:
            codec.decode(y[lo:hi], y_block.T)
            y_rows = y_block
        codec.encode(step(x_rows, y_rows, x_rows if walk_x else y_rows, spare).T, result[lo:hi])
    return result


def _rows_index(rows: np.ndarray):
    """Row numbers as a slice when they are consecutive and ascending, else as they are."""
    if rows.size and np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


class TrivialBrace(FiniteBrace):
    """The brace whose multiplication is its addition, on a product of cyclics.

    The kernels work on digit rows of ``_rows``, the smallest unsigned dtype
    below 2 * max(moduli), which holds the sum of two coordinates.
    """

    def __init__(self, moduli):
        self.codec = _MixedRadix(moduli)
        self._logical = self.codec  # the codec of the kernels' rows, as in AsymmetricProductBrace
        self.moduli = self.codec.moduli
        self._rows = np.min_scalar_type(2 * int(self.moduli.max()) - 1)
        self._moduli_column = self.moduli[:, None].astype(self._rows)
        super().__init__(self.codec.size)

    def _add_rows(self, x, y, acc, spare):
        _reduce_rows(np.add(x, y, acc), self._moduli_column, spare)
        return acc

    def _neg_rows(self, x, _, __, spare):
        # -x as coordinates in (0, m]
        _reduce_rows(np.subtract(self._moduli_column, x, x), self._moduli_column, spare)
        return x

    def _add(self, x, y):
        return _blockwise(self.codec, self._rows, self._add_rows, x, y)

    def _neg(self, x):
        return _blockwise(self.codec, self._rows, self._neg_rows, x)

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

    The kernels work on digit rows, _BLOCK = 2^15 columns at a time
    (``_blockwise``): each block of an operand is decoded into (d, m) rows
    whose row i is logical coordinate i, the kernel reduces its t rows and s
    rows in place, and they are encoded into the block's slice of the
    result. Three bounds pick the dtypes:

    - A row value stays below 3 * max(t_moduli + s_moduli): a t row is a sum
      of two coordinates, an s row of two coordinates and one pairing value,
      each below its modulus. The rows take the smallest unsigned dtype below
      that bound (``_rows``): uint8 for every shipped spec, 64 bits when it
      needs more than 32. Each sum is reduced in place by one or two passes
      of ``_reduce_rows``, a compare and a subtraction per entry.
    - Every partial sum of the pairing's forms is at most r^2 (q - 1)
      (p - 1)^2, for the r rows of their support, the largest s modulus q
      and the largest t modulus p. With q added, the forms are contracted
      through BLAS in float32 below 2^24 and in float64 below 2^53, and in
      int64 below 2^63 (``_contract``); the constructor rejects a pairing
      beyond that. Each component is then reduced before it joins its s
      row (``_pair_into``).
    - Every partial sum of an index is at most the index, so ``encode``
      sums the rows of a carrier of at most 2^32 elements in the smallest
      unsigned dtype that holds its indices: uint32 at order 750141
      (``_MixedRadix._weigh``).

    The rows are scratch that each thread keeps for its next call: at order
    750141 (d = 10), 3 * d * 2^15 bytes of uint8 rows (0.9 MiB), 3.5 MiB of
    float32 pairing rows and 1.4 MiB of codec and alpha buffers, 5.9 MiB in
    all, where int64 rows took 7.5 MiB. Component k of the pairing is zero
    outside the t rows of its block, so it is contracted over those rows
    only, and against a length-1 operand as one matrix-vector product.

    Each alpha_s is an automorphism of T, so all of them fit in one
    row-major table of order = |S| * |T| rows, one per (t, s), each holding
    alpha_s(t) in dT entries of the smallest unsigned dtype that holds
    max(t_moduli) - 1, padded by ``_padded_columns`` (uint8 for every shipped
    spec: 8 bytes a row, 6 MB at order 750141). The kernels apply alpha as
    one gather of rows from it, a word per element when a row is at most 8
    bytes, whatever the operand shapes. The first multiplication or
    inversion builds the table and assigns it once it is complete;
    construction builds none.
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
        # alpha_s(t) is row _alpha_keys.encode([t..., s...]) of _alpha_table,
        # the index of (t, s) in the unpermuted logical order; the first
        # _alpha call fills the table
        self._alpha_keys = _MixedRadix(logical_moduli)
        self._alpha_table: Optional[np.ndarray] = None
        self._gen_powers = [self._power_table(self._gens[l], int(self._sm[l])) for l in range(ds)]
        self._validate()
        self._rows = np.min_scalar_type(3 * int(logical_moduli.max()) - 1)
        self._moduli_column = logical_moduli[:, None].astype(self._rows)
        # component k of b is zero outside the t rows of its support, so b is
        # contracted over the union of the supports only: (rows, pairing on
        # them) pairs a length-1 operand with every component in one
        # product. For two batches, _forms stacks the rows of every
        # component's form that are not zero, the support rows each stacked
        # row pairs with, and the sum of the stacked rows into components.
        # Rows are a slice when consecutive.
        support = np.flatnonzero(self._pairing.any(axis=(0, 1)))
        pairing = self._pairing[:, support[:, None], support]
        self._pair_support = (_rows_index(support), pairing)
        q = int(self._sm[pairing.any(axis=(1, 2))].max(initial=1))
        p = int(self._tm[support].max(initial=1))
        top = support.size**2 * (q - 1) * (p - 1) ** 2 + q
        if top >= 2**63:
            raise ValueError(f"pairing sums up to {top} do not fit int64")
        self._contract = np.dtype(np.float32 if top < 2**24 else np.float64 if top < 2**53 else np.int64)
        stacked = [np.flatnonzero(form.any(axis=0)) for form in pairing]
        self._forms = (
            np.concatenate([form[rows] for form, rows in zip(pairing, stacked)]).astype(self._contract),
            _rows_index(np.concatenate(stacked)),
            np.repeat(np.eye(ds), [rows.size for rows in stacked], axis=1).astype(self._contract),
        )
        # the ends of the scratch rows of _pair_into: right, left, products, values, quotients
        self._pair_rows = np.cumsum([support.size, support.size, self._forms[0].shape[0], ds, ds]).tolist()
        self._pair_moduli = self._sm[:, None].astype(self._contract)
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
        # (the column side follows by symmetry)
        bad = (self._pairing * tm[None, :, None]) % sm[:, None, None]
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
                if not self._map_equal(g @ h, h @ g):
                    raise ConditionViolationError("action generators do not commute")

    def _split(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (dT, n) t rows and the (dS, n) s rows of ``idx``, as views of one array."""
        rows = self._logical.decode(idx).T
        return rows[: self._dt], rows[self._dt :]

    def _join(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the (d, n) logical rows [t..., s...]."""
        return self._logical.encode(rows.T)

    def _pair_into(self, s: np.ndarray, t1: np.ndarray, t2: np.ndarray, free: np.ndarray) -> None:
        """Add b(t1, t2) to the s rows ``s``, each component reduced below its modulus first.

        The t rows are copied into ``_contract`` rows of this thread's
        scratch and contracted there, through BLAS for a float dtype. Each
        value v is reduced as v - q * floor(v / q), all components at once:
        v + q stays below 2^24 in float32 and below 2^53 in float64, so the
        quotient rounds to its floor exactly. The reduced values are cast
        into ``free``, rows of the rows' dtype shaped like ``s`` that are
        free until the call returns, and added. ``t1`` may be ``t2``, and is
        then copied once.
        """
        rows, pairing = self._pair_support
        if not pairing.size:
            return
        # a single column is contracted with the pairing first; b is symmetric,
        # so that column may be moved to the left
        if t2.shape[1] == 1:
            t1, t2 = t2, t1
        a, b, c, d, e = self._pair_rows
        floats = _scratch.array("pairing", (e, t2.shape[1]), self._contract)
        right, left, products = floats[:a], floats[a:b], floats[b:c]
        values, quotients = floats[c:d], floats[d:]
        np.copyto(right, t2[rows])
        if t1.shape[1] == 1:
            np.matmul((pairing @ t1[rows, 0]).astype(self._contract), right, values)
        else:
            if t1 is t2:
                left = right
            else:
                np.copyto(left, t1[rows])
            forms, paired, sums = self._forms
            np.matmul(forms, left, products)
            np.multiply(products, right[paired], products)
            np.matmul(sums, products, values)
        moduli = self._pair_moduli
        if self._contract.kind == "f":
            np.floor(np.divide(values, moduli, quotients), quotients)
        else:
            np.floor_divide(values, moduli, quotients)
        np.subtract(values, np.multiply(quotients, moduli, quotients), values)
        np.copyto(free, values, casting="unsafe")
        np.add(s, free, s)

    def _alpha(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Rows alpha_{s_i}(t_i) of the (dS, n) ``s`` and (dT, n) ``t``; n may be 1 on either side.

        The rows are copied into the logical order [t..., s...], whose index
        in the unpermuted logical codec ``_alpha_keys`` is the table row.
        The (dT, n) result is a view of this thread's scratch, and n is at
        most _BLOCK.
        """
        table = self._alpha_table
        if table is None:
            table = self._alpha_table = self._tabulate_alpha()
        dt, n = self._dt, max(s.shape[1], t.shape[1])
        rows = _scratch.array("alpha rows", (dt + s.shape[0], n), self._rows)
        rows[:dt] = t
        rows[dt:] = s
        keys = _scratch.ints[0, :n]
        self._alpha_keys._weigh(rows, keys)
        images = _scratch.array("alpha", (n, table.shape[1]), table.dtype)
        table.take(keys, axis=0, out=images, mode="clip")
        return images.T[:dt]

    def _tabulate_alpha(self) -> np.ndarray:
        """(order, W) images alpha_s(t) in the logical order of (t, s), as small ints.

        Row (t, s) holds alpha_s(t) in its first dT entries and zeros after
        them, up to the W of ``_padded_columns``. Every s owns the
        |T| rows from the weight of s on, one per t. The s go in blocks of
        about _BLOCK table entries: each block reads its s-digits off its
        first rows, multiplies their generator powers as one batch of
        matrices, and applies them to every t at once.
        """
        t_weights, s_weights = np.split(self._alpha_keys.weights, [self._dt])
        dt, size = self._dt, int(s_weights[0])  # |T|
        # reduced in place: a second (dT, |T|) array raised the peak RSS of
        # repeated builds at order 750141 by about 3 MiB
        ts = np.arange(size) // t_weights[:, None]
        ts %= self._tm[:, None]
        powers = [np.stack(p) for p in self._gen_powers]
        dtype = np.min_scalar_type(int(self._tm.max()) - 1)
        table = np.zeros((self.order, _padded_columns(dt, dtype)), dtype=dtype)
        step = max(1, _BLOCK // (size * dt)) * size
        for lo in range(0, self.order, step):
            starts = np.arange(lo, min(lo + step, self.order), size, dtype=np.int64)
            m = np.eye(dt, dtype=np.int64)
            for l, (w, q) in enumerate(zip(s_weights.tolist(), self._sm.tolist())):
                m = self._reduce(powers[l][starts // w % q] @ m)
            images = m @ ts % self._tm[:, None]
            table[lo : lo + starts.size * size, :dt] = images.transpose(0, 2, 1).reshape(-1, dt)
        return table

    def _add_rows(self, x, y, acc, spare):
        dt, moduli = self._dt, self._moduli_column
        # acc is x or y, so its s rows carry b(t1, t2) into the sum
        self._pair_into(acc[dt:], x[:dt], y[:dt], spare[dt:])
        _reduce_rows(np.add(x, y, acc), moduli, spare)
        _reduce_rows(acc[dt:], moduli[dt:], spare[dt:])
        return acc

    def _neg_rows(self, x, _, __, spare):
        dt, moduli = self._dt, self._moduli_column
        # -x as coordinates in (0, m]; the t rows are reduced before they are
        # paired, and b(-t, -t) = b(t, t)
        np.subtract(moduli, x, x)
        t = x[:dt]
        _reduce_rows(t, moduli[:dt], spare[:dt])
        self._pair_into(x[dt:], t, t, spare[dt:])
        _reduce_rows(x[dt:], moduli[dt:], spare[dt:])
        return x

    def _mul_rows(self, x, y, acc, spare):
        dt = self._dt
        # alpha reads s1 and t2 before acc, which is x or y, is written
        alpha = self._alpha(x[dt:], y[:dt])
        np.add(x[dt:], y[dt:], acc[dt:])
        np.add(x[:dt], alpha, acc[:dt])
        _reduce_rows(acc, self._moduli_column, spare)
        return acc

    def _inv_rows(self, x, _, __, spare):
        dt = self._dt
        _reduce_rows(np.subtract(self._moduli_column, x, x), self._moduli_column, spare)
        # the key of -x is taken before the images overwrite its t rows
        np.copyto(x[:dt], self._alpha(x[dt:], x[:dt]))
        return x

    def _add(self, x, y):
        return _blockwise(self._logical, self._rows, self._add_rows, x, y)

    def _neg(self, x):
        return _blockwise(self._logical, self._rows, self._neg_rows, x)

    def _mul(self, x, y):
        return _blockwise(self._logical, self._rows, self._mul_rows, x, y)

    def _inv(self, x):
        return _blockwise(self._logical, self._rows, self._inv_rows, x)

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

    A and B must be codec braces: ``TrivialBrace``,
    ``AsymmetricProductBrace`` or a semidirect product of such; any other
    factor (a ``TableBrace``) raises TypeError. A codec brace's index is its
    codec's mixed-radix index, so a + |A| * b is the index of the codec whose
    coordinates are A's followed by B's, with B's weights times |A|
    (``_logical``), and the product is a codec brace in turn. Addition and
    negation are componentwise, so each is one ``_blockwise`` walk over that
    codec whose step runs A's row step on A's rows and B's on B's (a nested
    product's step splits its rows again), in the wider of the two factors'
    row dtypes: one decode and one encode per block for the whole operation.
    Multiplication and inversion split each index into its two parts and
    call the factors' kernels, since act_{b1} must first be applied to a2.
    """

    def __init__(self, A: FiniteBrace, B: FiniteBrace, act_perms):
        for factor in (A, B):
            if not isinstance(factor, (TrivialBrace, AsymmetricProductBrace, SemidirectProductBrace)):
                kinds = "TrivialBrace, AsymmetricProductBrace or SemidirectProductBrace"
                raise TypeError(f"semidirect factors must be {kinds}, not {type(factor).__name__}")
        self.A = A
        self.B = B
        self.act = np.asarray(act_perms, dtype=np.int64)
        if self.act.shape != (B.order, A.order):
            raise ValueError(f"act_perms must have shape {(B.order, A.order)}")
        self._verify_action()
        a, b = A._logical, B._logical
        self._logical = _MixedRadix(
            np.concatenate([a.moduli, b.moduli]), np.concatenate([a.weights, a.size * b.weights])
        )
        self._da = a.moduli.size
        self._rows = np.promote_types(A._rows, B._rows)
        super().__init__(A.order * B.order)

    def _verify_action(self) -> None:
        """Check that b -> act_b is a homomorphism from (B, .) to the automorphisms of A.

        The rows must be permutations and act_e = id. Then act_{bg} = act_b o act_g
        for every b and every multiplicative generator g gives act_{xy} =
        act_x o act_y for all x and y, by induction on the length of y as a word
        in the generators (in a finite group they reach every element without
        inverses): act_{xy'g} = act_{xy'} o act_g = act_x o act_{y'} o act_g =
        act_x o act_{y'g}. The automorphism laws are checked on the generators'
        rows only, which then covers every row.
        """
        all_a = np.arange(self.A.order, dtype=np.int64)
        bad = _non_permutation_rows(self.act)
        if bad.size:
            raise ActionNotAutomorphismError(f"row {int(bad[0])} is not a permutation")
        if not np.array_equal(self.act[self.B.zero()], all_a):
            raise ActionNotAutomorphismError("identity of B must act trivially")
        b_gens = self.B.multiplicative_generators().tolist()
        every_b = self.B.elements()
        for g in b_gens:
            if not np.array_equal(self.act[self.B.mul(every_b, g)], self.act[:, self.act[g]]):
                raise ActionNotAutomorphismError("action is not a homomorphism on B")
        add_gens = additive_generators(self.A)
        mul_gens = self.A.multiplicative_generators()
        for b in b_gens:
            f = self.act[b]
            for g in map(int, add_gens):
                if not np.array_equal(f[self.A.add(g, all_a)], self.A.add(f[g], f[all_a])):
                    raise ActionNotAutomorphismError("action does not preserve addition")
            for g in map(int, mul_gens):
                if not np.array_equal(f[self.A.mul(g, all_a)], self.A.mul(f[g], f[all_a])):
                    raise ActionNotAutomorphismError("action does not preserve multiplication")

    def _split(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # numpy divides by a scalar fast, but has no such path for %
        q = idx // self.A.order
        return idx - q * self.A.order, q

    def _join(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + self.A.order * b

    def _add_rows(self, x, y, acc, spare):
        d = self._da
        self.A._add_rows(x[:d], y[:d], acc[:d], spare[:d])
        self.B._add_rows(x[d:], y[d:], acc[d:], spare[d:])
        return acc

    def _neg_rows(self, x, _, __, spare):
        d = self._da
        self.A._neg_rows(x[:d], None, None, spare[:d])
        self.B._neg_rows(x[d:], None, None, spare[d:])
        return x

    def _add(self, x, y):
        return _blockwise(self._logical, self._rows, self._add_rows, x, y)

    def _neg(self, x):
        return _blockwise(self._logical, self._rows, self._neg_rows, x)

    def _mul(self, x, y):
        a1, b1 = self._split(x)
        a2, b2 = self._split(y)
        # B's kernel rejects B-parts outside its carrier before they index act
        b = self.B.mul(b1, b2)
        if a2.size == 1 < a1.size:
            # act[b1, a2] takes at most |B| values here: hand each to A.mul as
            # one right operand, not as a copy per row
            a = np.empty_like(a1)
            for part in np.flatnonzero(np.bincount(b1)).tolist():
                sel = b1 == part
                a[sel] = self.A.mul(a1[sel], self.act[part, a2])
        else:
            a = self.A.mul(a1, self.act[b1, a2])
        return self._join(a, b)

    def _inv(self, x):
        a, b = self._split(x)
        bi = self.B.inv(b)
        return self._join(self.act[bi, self.A.inv(a)], bi)

    def multiplicative_generators(self) -> np.ndarray:
        if self._mult_gens is None:
            a_part = self.A.multiplicative_generators()
            b_part = self.A.order * self.B.multiplicative_generators()
            self._mult_gens = _sorted_distinct(np.concatenate([a_part, b_part]))
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

    def _check(self, *operands) -> None:
        # numpy would wrap negative indices round instead of rejecting them
        for x in operands:
            if x.size and (x.min() < 0 or x.max() >= self.order):
                bad = int(x[(x < 0) | (x >= self.order)][0])
                raise IndexError(f"index {bad} outside carrier of order {self.order}")

    def _add(self, x, y):
        self._check(x, y)
        return self.add_table[x, y]

    def _mul(self, x, y):
        self._check(x, y)
        return self.mul_table[x, y]

    def _neg(self, x):
        self._check(x)
        return self._neg_arr[x]

    def _inv(self, x):
        self._check(x)
        return self._inv_arr[x]


def _non_permutation_rows(table: np.ndarray) -> np.ndarray:
    """Indices of the rows of a 2-d table that do not sort to 0..width-1, ascending."""
    return np.flatnonzero((np.sort(table, axis=1) != np.arange(table.shape[1])).any(axis=1))


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


def _draw_triples(n: int, trials: int, seed: int) -> np.ndarray:
    """The triples of ``np.random.default_rng(seed).integers(0, n, size=(3, trials))``.

    They are stored in the smallest dtype that holds n - 1 (uint8 up to 256
    elements) and drawn _BLOCK at a time in row order; one Generator's
    bounded-integer stream continues across calls, so the entries are those
    of the one-shot draw.
    """
    draw = np.empty((3, trials), dtype=np.min_scalar_type(n - 1))
    flat = draw.reshape(-1)
    rng = np.random.default_rng(seed)
    for lo in range(0, flat.size, _BLOCK):
        flat[lo : lo + _BLOCK] = rng.integers(0, n, size=min(_BLOCK, flat.size - lo))
    return draw


def _check_triples(n: int, laws: dict, mode: str, trials: int, seed: int, third=None):
    """Run triple laws over all n^3 index triples or over a seeded sample.

    Each law maps index arrays a, b, c (broadcastable against each other) to
    an array that is True where the law holds. "exhaustive" walks a and b in
    order and c over ``third`` (all n values when None), "sampled" walks one
    seeded draw of ``trials`` triples in the smallest dtype
    (``_draw_triples``); both walks go in slices of about _BLOCK triples, a
    sampled slice widened to int64 on its own. The report is that of
    checking every triple at once: the failure is the first law in order
    that fails anywhere, at its first failing triple in walk order. A law
    that failed is not run again. Returns each law's verdict, the failure
    (law name, (a, b, c)) or None, and the number of triples covered.
    """
    if mode == "exhaustive":
        every = np.arange(n, dtype=np.int64)
        thirds = every if third is None else np.asarray(third, dtype=np.int64)
        bs, cs = every[None, :, None], thirds[None, None, :]
        part = max(1, _BLOCK // max(1, n * thirds.size))  # values of a per slice
        walk = ((every[lo : lo + part, None, None], bs, cs) for lo in range(0, n, part))
        covered = n * n * thirds.size
    else:
        covered = int(trials)
        if covered < 1:
            raise ValueError(f"sampled checks need at least 1 trial, got {trials}")
        draw = _draw_triples(n, covered, seed)
        walk = (draw[:, lo : lo + _BLOCK].astype(np.int64) for lo in range(0, covered, _BLOCK))
    firsts = {}  # law name -> its first failing triple
    for a, b, c in walk:
        triple = np.broadcast_arrays(a, b, c)
        for name, law in laws.items():
            if name in firsts:
                continue
            held = np.broadcast_to(law(a, b, c), triple[0].shape)
            if not held.all():
                first = np.unravel_index(np.argmin(held), held.shape)
                firsts[name] = tuple(int(t[first]) for t in triple)
        if len(firsts) == len(laws):
            break
    failure = next(((name, firsts[name]) for name in laws if name in firsts), None)
    return {name: name not in firsts for name in laws}, failure, covered


def check_axioms(
    B: FiniteBrace,
    mode: str = "auto",
    trials: int = 100_000,
    seed: int = 0,
) -> AxiomReport:
    """Verify the brace axioms on ``B``.

    ``mode`` is "exhaustive" (every pair and triple, or an argument that
    covers them, below), "sampled" (seeded random triples; identity and
    inverse laws stay exhaustive since they are linear scans), or "auto",
    which picks exhaustive for orders up to ``EXHAUSTIVE_CAP``. The report is
    cached on the brace instance. Commutativity, on the first two entries of
    each triple, and the three triple laws are one ``_check_triples`` walk in
    2^15-triple slices, over a single seeded draw of ``trials`` triples when
    sampled. Its report is that of checking every triple at once: the first
    law in that order that fails anywhere, at its first failing triple.

    The identity and inverse scans run through the kernels. Commutativity and
    the triple laws gather from the (add, mul) tables when a table is no
    larger than the check, n^2 <= the number of triples (n^3 in exhaustive
    mode, ``trials`` when sampled), and otherwise run through the kernels;
    both give the same report. When n^2 <= _BLOCK the addition table is the
    one the brace keeps for its spans (``_kept_addition_table``), built there
    if it is missing; the other tables are not kept.

    Exhaustive mode decides the triple laws over (a, b, g) with g in a set G
    whose nonempty left-normed words (..(g1 g2)..) gk reach every element,
    n^2 |G| triples in place of n^3. G is the ``_greedy_walk`` over the
    carrier in reverse order by table gathers, with no identity marked, since
    the table need not have one (4 picks on cf72's addition table and 3 on
    its multiplication table, against 6 each in index order):

    - Associativity on every (a, b, g) gives it on every (a, b, c) (Light's
      test): for c = c'g, (ab)c = ((ab)c')g = (a(bc'))g = a((bc')g) = a(bc),
      by induction on the length of c. G comes from the addition table for
      additive associativity and from the multiplication table for the
      multiplicative one. Commutativity is a law on pairs, and every pair
      (a, b) is among the triples.
    - Once (B, +) is an abelian group, which the identity and inverse scans
      and these two additive laws show, compatibility says that
      f_a(x) = a x - a is additive for every a (Cedo-Jespers-Okninski,
      arXiv:1807.06408). f_a(x + g) = f_a(x) + f_a(g) for every x and every
      g in the additive G gives it for all sums, by the same induction.

    A law that fails on the (a, b, g), and compatibility when (B, +) is not
    shown to be an abelian group, runs again over all n^3 triples. So each
    verdict, the counterexample and ``trials`` are those of the n^3 check.
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
    checks: dict[str, bool] = {}
    failures = []
    # one scan's result at a time: at large orders each is a carrier-sized array
    for name, got, want in (
        ("additive_identity", lambda: B.add(z, every), every),
        ("additive_inverses", lambda: B.add(every, B.neg(every)), z),
        ("multiplicative_identity", lambda: B.mul(z, every), every),
        ("multiplicative_identity", lambda: B.mul(every, z), every),
        ("multiplicative_inverses", lambda: B.mul(every, B.inv(every)), z),
    ):
        bad = np.flatnonzero(got() != want)
        checks[name] = checks.get(name, True) and bad.size == 0
        if bad.size:
            failures.append((name, (int(bad[0]),)))

    if n * n <= (n**3 if mode == "exhaustive" else trials):
        add_t = _kept_addition_table(B)
        if add_t is None:
            add_t = B.add(every[:, None], every[None, :])
        mul_t = B.mul(every[:, None], every[None, :])

        def add(x, y):
            return add_t[x, y]

        def mul(x, y):
            return mul_t[x, y]

    else:
        add, mul = B.add, B.mul
    laws = {
        # a law on pairs: its counterexample is the first two entries of the triple
        "additive_commutativity": lambda a, b, c: add(a, b) == add(b, a),
        "additive_associativity": lambda a, b, c: add(add(a, b), c) == add(a, add(b, c)),
        "multiplicative_associativity": lambda a, b, c: mul(mul(a, b), c) == mul(a, mul(b, c)),
        "compatibility": lambda a, b, c: add(mul(a, add(b, c)), a) == add(mul(a, b), mul(a, c)),
    }
    if mode == "exhaustive":
        # the arguments of the docstring over (a, b, g), then n^3 triples for what they leave open
        verdicts = {}
        for names, table in (
            (("additive_commutativity", "additive_associativity", "compatibility"), add_t),
            (("multiplicative_associativity",), mul_t),
        ):
            walked = {name: laws[name] for name in names}
            gens = _greedy_walk(n, every[::-1], lambda f, picks: table[f[:, None], picks], None)[0]
            verdicts.update(_check_triples(n, walked, mode, trials, seed, gens)[0])
        group = (
            checks["additive_identity"]
            and checks["additive_inverses"]
            and verdicts["additive_commutativity"]
            and verdicts["additive_associativity"]
        )
        again = {
            name: law
            for name, law in laws.items()
            if not verdicts[name] or (name == "compatibility" and not group)
        }
        rerun, failure, _ = _check_triples(n, again, mode, trials, seed)
        verdicts.update(rerun)
    else:
        verdicts, failure, covered = _check_triples(n, laws, mode, trials, seed)
    checks.update({name: verdicts[name] for name in laws})
    if failure is not None:
        name, triple = failure
        failures.append((name, triple[:2] if name == "additive_commutativity" else triple))

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


def _kept_addition_table(B: FiniteBrace) -> Optional[np.ndarray]:
    """The (order, order) addition table of a small carrier, kept on the brace; None on others.

    When the table fits in one kernel block (order^2 <= _BLOCK, so order <=
    181), one ``add`` call builds it, at most 256 KiB, and it is assigned to
    the brace once, complete, so threads may share it. ``check_axioms`` and
    every ``_AdditiveSpan`` of the brace gather from it. Every other carrier
    adds through the kernel: its table would cost more set-up and memory
    than a span's few coset steps save.
    """
    if B.order * B.order > _BLOCK:
        return None
    if B._add_table is None:
        every = B.elements()
        B._add_table = B.add(every[:, None], every[None, :])
    return B._add_table


class _AdditiveSpan:
    """Growing additive subgroup, tracked as a bitmask plus member chunks.

    ``insert`` adds a whole cyclic tower of cosets H + kx at once, which
    keeps the number of insert calls logarithmic in the subgroup size, and
    walks the tower by doubling: a tower of m cosets takes ceil(log2 m)
    additions, each a kernel call or, on a carrier of order at most 181, a
    gather from ``_kept_addition_table``. When the index [B:H] is prime,
    H + <x> is the whole carrier and no coset is computed.
    ``insert_many`` is how every span takes a pool of values: additive
    generators, star products, ideal closures and ideal tests all grow
    their spans through it. The members are kept in the
    order they were added, so ``members[k:]`` is what came after the span
    held k elements.
    """

    def __init__(self, B: FiniteBrace):
        self.B = B
        table = _kept_addition_table(B)
        self._add = B.add if table is None else lambda x, y: table[x, y]
        self.mask = np.zeros(B.order, dtype=bool)
        self.mask[B.zero()] = True
        self._chunks = [np.array([B.zero()], dtype=np.int64)]
        self.size = 1

    @property
    def members(self) -> np.ndarray:
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    def insert(self, x: int) -> None:
        """Add the cyclic subgroup of ``x`` to the span H.

        The cosets H + kx for k < j, with j x appended, plus j x give the
        cosets for k in [j, 2j) and, last, 2j x, in one addition: so j
        doubles from 1 with each addition. The sums that the span already
        holds are dropped, which happens once j passes the number m of
        cosets (kx and (k - m)x lie in one coset), and the walk ends when
        j x lands in the span, at the first j >= m.

        The price of the fewer calls is element work: the walk adds
        (2^ceil(log2 m) - 1) |H| elements where a walk coset by coset adds
        (m - 1) |H|, the same for m a power of 2 but 3 |H| against 2 |H| for
        m = 3 and 7 |H| against 4 |H| for m = 5. Long towers over a small H
        are bound by the calls and gain; short towers over a large H are
        bound by the elements and lose.

        If x is outside H and the index [B:H] = order / |H| is a prime p, then
        H + <x> is all of B: it is a subgroup that properly contains H, so its
        index divides p and is below p. The complement of H is then appended
        as one chunk, with no kernel call. This needs (B, +) to be a group,
        as every brace's addition is, so that H is a subgroup and |H| divides
        the order.
        """
        rep = int(x)
        if self.mask[rep]:
            return
        if is_prime(self.B.order // self.size):
            self._chunks.append(np.flatnonzero(~self.mask))
            self.mask[:] = True
            self.size = self.B.order
            return
        while not self.mask[rep]:
            # the span so far, rep = j x appended: the cosets for k in [j, 2j), then 2j x
            images = self._add(np.append(self.members, rep), rep)
            cosets = images[:-1]
            cosets = cosets[~self.mask[cosets]]
            self.mask[cosets] = True
            self._chunks.append(cosets)
            self.size += cosets.size
            rep = int(images[-1])

    def insert_many(self, values: np.ndarray) -> list[int]:
        """Insert carrier indices ``values``; returns the ones picked, ascending.

        Each round inserts the least value outside the span and drops the
        values the span then holds: the picks of a walk over the sorted
        distinct values, with one round per pick.
        """
        picks: list[int] = []
        rest = values[~self.mask[values]]
        while rest.size:
            picks.append(int(rest.min()))
            self.insert(picks[-1])
            rest = rest[~self.mask[rest]]
        return picks


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
        """Record of a member set (or record) taken as given; members outside the carrier raise ValueError."""
        members, inside = _carrier_members(B, members)
        if not inside:
            raise ValueError(f"members outside the carrier of order {B.order}")
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
        members=np.flatnonzero(span.mask),
        size=span.size,
        seeds=tuple(int(s) for s in seeds),
        two_sided=two_sided,
        mask=span.mask,
    )


def ideal_closure(B: FiniteBrace, seeds, mode: str = "two_sided") -> IdealRecord:
    """Smallest (left) ideal containing ``seeds``.

    Fixpoint of three closures: additive span, lambda images, and (for
    two-sided ideals) conjugation, the latter two taken over a multiplicative
    generating set of B, which suffices because both kinds of maps compose
    multiplicatively in the subscript. The span only grows and the carrier
    bounds it, so the loop reaches the fixpoint.
    """
    if mode not in ("left", "two_sided"):
        raise ValueError(f"unknown mode {mode!r}")
    two_sided = mode == "two_sided"
    seed_arr = np.atleast_1d(np.asarray(seeds, dtype=np.int64)).ravel()
    if not _carrier_members(B, seed_arr)[1]:
        raise ValueError(f"seeds outside the carrier of order {B.order}")
    span = _AdditiveSpan(B)
    span.insert_many(seed_arr)

    tables = _ideal_maps(B, two_sided)
    ptr = 0
    while ptr < span.size and span.size < B.order:
        batch = span.members[ptr:]
        ptr = span.size
        for table in tables:
            span.insert_many(table[batch])
            if span.size == B.order:
                break
    return _record_from_span(span, seed_arr, two_sided)


def _ideal_maps(B: FiniteBrace, two_sided: bool) -> np.ndarray:
    """Tables of the maps an additive subgroup must be invariant under to be a (left) ideal.

    Rows of one int32 array over the whole carrier (the image of x is
    ``table[x]``): lambda_g, then x -> g x g^-1 when ``two_sided``, for each
    greedy pick g from ``multiplicative_generators()`` in reverse order (5 of
    14 at order 92160); any generating set suffices, by the module docstring.
    The picks come from ``_greedy_walk`` over left products g x, gathered
    from the picks' rows L_g, each built by one kernel call when its g is
    picked; left translates of distinct elements are distinct. Then
    lambda_g = L_g - g, and since x g^-1 = (g x^-1)^-1, conjugation by g is
    x -> g (g x^-1)^-1, the gathers ``L_g[inv[L_g[inv]]]`` with ``inv`` from
    one inversion of the carrier: k multiplications and one inversion in all.
    The cache is assigned once, complete, so threads may share a brace.
    """
    built = B._ideal_tables
    if built is None:
        every = B.elements()
        lefts: dict[int, np.ndarray] = {}

        def step(f, picks):
            for g in picks.tolist():
                if g not in lefts:
                    lefts[g] = B.mul(g, every).astype(np.int32)
            return np.concatenate([lefts[g][f] for g in picks.tolist()])

        gens = _greedy_walk(B.order, B.multiplicative_generators()[::-1], step, B.zero())[0]
        inv = B.inv(every)
        tables = np.empty((2 * len(gens), B.order), dtype=np.int32)
        for i, g in enumerate(gens):
            left = lefts[g]
            tables[2 * i] = B.sub(left, g)
            tables[2 * i + 1] = left[inv[left[inv]]]
        built = B._ideal_tables = (np.array(gens, dtype=np.int64), tables)
    return built[1] if two_sided else built[1][::2]


def _close(mask: np.ndarray, frontier: np.ndarray, images) -> None:
    """Mark in ``mask`` everything reached from the marked ``frontier`` by repeated ``images``.

    ``images(frontier)`` returns the one-step images of an index array, in
    any shape: table gathers, or kernel products with the generators.
    """
    while frontier.size:
        found = _sorted_distinct(images(frontier))
        frontier = found[~mask[found]]
        mask[frontier] = True


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``values``, flattened.

    A sort and an adjacent comparison: numpy's unique hashes, which is far
    slower, most of all on sorted input.
    """
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _carrier_members(B: FiniteBrace, obj) -> tuple[np.ndarray, bool]:
    """Sorted distinct members of a record or an index array, and whether all lie in 0..order-1."""
    members = _sorted_distinct(np.asarray(getattr(obj, "members", obj), dtype=np.int64))
    return members, not members.size or bool(members[0] >= 0 and members[-1] < B.order)


def _is_closed(B: FiniteBrace, members, two_sided: bool) -> bool:
    """Whether ``members`` is an additive subgroup invariant under ``_ideal_maps``.

    The whole carrier is one, and is answered without a span or the tables.
    """
    members, inside = _carrier_members(B, members)
    if not inside:
        return False
    if members.size == B.order:
        return True
    span = _AdditiveSpan(B)
    span.insert_many(members)
    # the span holds zero and every member: they form a subgroup exactly when it is no larger
    if span.size != members.size:
        return False
    return all(np.all(span.mask[table[members]]) for table in _ideal_maps(B, two_sided))


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


def is_simple(B: FiniteBrace) -> SimplicityResult:
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
        rec = ideal_closure(B, [x], mode="two_sided")
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


def list_ideals(B: FiniteBrace) -> list[IdealRecord]:
    """All ideals: one closure per ideal-map orbit (closures are constant on orbits), then joins."""
    zero_rec = ideal_closure(B, [], mode="two_sided")
    found: dict[bytes, IdealRecord] = {zero_rec.key(): zero_rec}
    for x in np.flatnonzero(_orbit_labels(B) == B.elements()).tolist():
        if x == B.zero():
            continue
        rec = ideal_closure(B, [x], mode="two_sided")
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
                joined = ideal_closure(B, list(a.seeds) + list(b.seeds), mode="two_sided")
                if joined.key() not in found:
                    found[joined.key()] = joined
                    changed = True
    return sorted(found.values(), key=lambda r: (r.size, r.key()))


def additive_generators(B: FiniteBrace, within=None) -> np.ndarray:
    """Greedy additive generating set of the carrier (or of the span of ``within``).

    Members of ``within`` outside the carrier raise ValueError.
    """
    pool, inside = (B.elements(), True) if within is None else _carrier_members(B, within)
    if not inside:
        raise ValueError(f"within has members outside the carrier of order {B.order}")
    return np.array(_AdditiveSpan(B).insert_many(pool) or [B.zero()], dtype=np.int64)


def multiplicative_closure(B: FiniteBrace, gens) -> np.ndarray:
    """Sorted members of the subgroup of (B, mul) generated by ``gens``.

    Breadth-first right multiplication from the identity; in a finite group
    closure under the generators alone already yields inverses.
    """
    gen_arr = _sorted_distinct(np.asarray(list(gens), dtype=np.int64))
    mask = np.zeros(B.order, dtype=bool)
    mask[B.zero()] = True
    if gen_arr.size:
        _close(mask, np.array([B.zero()], dtype=np.int64), lambda f: B.mul(f[:, None], gen_arr))
    return np.flatnonzero(mask).astype(np.int64)


def _greedy_walk(n: int, pool: np.ndarray, step, identity: Optional[int], inside=None) -> Optional[tuple]:
    """Greedy picks from ``pool`` whose words reach the most of 0..n-1, and the mask they reach.

    ``step(frontier, picks)`` returns the products x g (or g x throughout) of
    the indices x in ``frontier`` with the picks g, in any shape. Each entry
    of ``pool`` that the nonempty left-normed words (..(g1 g2)..) gk of the
    earlier picks W do not reach is picked. Its words grow from W x and x
    by x -> x g over every pick g: W g is already in W for the earlier picks.
    ``identity``, when given, is marked before the first pick, and x = e x is
    then among W x. Given a boolean mask ``inside``, returns None as soon as
    the mask leaves it.
    """
    covered = np.zeros(n, dtype=bool)
    if identity is not None:
        covered[identity] = True
    picks: list[int] = []
    for x in pool.tolist():
        if not covered[x]:
            picks.append(x)
            fresh = step(np.flatnonzero(covered), np.array([x]))
            if identity is None:
                fresh = np.append(fresh, x)
            fresh = fresh[~covered[fresh]]
            covered[fresh] = True
            gens = np.array(picks, dtype=np.int64)
            _close(covered, fresh, lambda f: step(f, gens))
            if inside is not None and not inside[covered].all():
                return None
    return picks, covered


def _greedy_generators(B: FiniteBrace, pool: np.ndarray, inside=None) -> Optional[tuple]:
    """Greedy generating set of the multiplicative subgroup spanned by ``pool``, and its mask.

    ``_greedy_walk`` over right products through the kernel, from the identity.
    """
    return _greedy_walk(B.order, pool, lambda f, picks: B.mul(f[:, None], picks), B.zero(), inside)


def _subgroup_generators(B: FiniteBrace, members: np.ndarray) -> Optional[np.ndarray]:
    """Multiplicative generators of sorted ``members`` if they form a nontrivial subgroup, else None.

    The brace keeps the last proper member set asked about and its answer,
    so a left factor that ``star_span`` meets again is not searched again.
    """
    if members.size == B.order:
        return B.multiplicative_generators()
    key, kept = members.tobytes(), B._left_gens
    if kept is None or kept[0] != key:
        inside = np.zeros(B.order, dtype=bool)
        inside[members] = True
        found = _greedy_generators(B, members, inside) if inside[B.zero()] else None
        picks = found[0] if found else []
        kept = B._left_gens = (key, np.array(picks, dtype=np.int64) if picks else None)
    return kept[1]


def star_span(B: FiniteBrace, left, right) -> np.ndarray:
    """Additive span of all products a*b with a in ``left``, b in ``right``.

    Since a*(b + c) = a*b + a*c, the products against a set G of additive
    generators of span(``right``) already span the full set. When ``left`` is
    a multiplicative subgroup <S> and span(``right``) is invariant under
    lambda_s for every s in S, the identity (a.b)*c = a*lambda_b(c) + b*c
    reduces the left factor to S too, and the result is span{s*g}. Both
    conditions are checked here: S is found greedily (the cached generators
    when ``left`` is the whole carrier, the kept ones when it is the last
    proper left factor), giving up as soon as a closure leaves ``left``, and
    every lambda_s(g) must lie in span(``right``).
    Otherwise every a in ``left`` is multiplied against G. Both paths are
    cross-checked against the brute-force span in the test suite. Members
    outside the carrier raise ValueError.
    """
    left, left_inside = _carrier_members(B, left)
    right, right_inside = _carrier_members(B, right)
    for name, inside in (("left", left_inside), ("right", right_inside)):
        if not inside:
            raise ValueError(f"{name} factor has members outside the carrier of order {B.order}")
    right_span = _AdditiveSpan(B)
    gens = np.array(right_span.insert_many(right) or [B.zero()], dtype=np.int64)
    span = _AdditiveSpan(B)
    left_gens = _subgroup_generators(B, left)
    if left_gens is not None:
        lams = B.lam(left_gens[:, None], gens[None, :])
        if right_span.mask[lams].all():
            span.insert_many(B.sub(lams, gens[None, :]).ravel())
            return np.flatnonzero(span.mask)
    for g in gens.tolist():
        span.insert_many(np.atleast_1d(B.star(left, g)))
    return np.flatnonzero(span.mask)


@dataclass
class PrimeResult:
    """Verdict of a primeness check against a known ideal lattice."""

    prime: bool
    witness_pair: Optional[tuple]


def is_prime_brace(B: FiniteBrace, lattice, spot_checks: int = 8, seed: int = 0) -> PrimeResult:
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
        members, inside = _carrier_members(B, entry)
        if not inside:
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
        rec = ideal_closure(B, [int(x)], mode="two_sided")
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
