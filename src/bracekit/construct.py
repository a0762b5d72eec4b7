"""Block-cycle constructions of finite left braces.

The central object is a cycle of blocks. Block z carries a prime p_z, a
vector space V_z over Z/(p_z) with a non-singular symmetric bilinear form
(``gram``), and an orthogonal map ``f`` on V_z whose order is exactly the
previous block's prime, so the s-part of block z-1 can act on the t-part of
block z by powers of f. Two slot shapes are supported, and a spec's shape is
read off its blocks (``FamilySpec.kind``):

* cycle family: T_z is m_z slots of V_z; the pairing sends slot i to
  s-coordinate i for i below r_z - 1 and the sum of all slots to the last
  s-coordinate; the generator for s-coordinate i of block z-1 applies f to
  slot i alone (i below r_{z-1} - 1) or to every slot (the last i).
* matrix family: T_z is an r_z x r_{z-1} grid of V_z slots; s-coordinate i
  collects the sum of row i, and the generator for s-coordinate j of block
  z-1 applies f down column j.

The two shapes differ only in these slot lists, which ``_slot_groups``
gives for each s-coordinate; one assembly loop turns them into the pairing
and the action.

Either shape assembles into an AsymmetricProductBrace whose carrier
interleaves each block's t-coordinates directly before its s-coordinates, so
every block occupies one contiguous run of index space. The resulting brace
is simple exactly when every block map has f - id bijective; when some block
fails that, ``nonsimple_witness`` materializes the proper ideal of elements
whose slot vectors all lie in the image of f - id.

Specs are plain JSON: {"blocks": [{"p":..,"gram":..,"f":..,"r":..,"m":..}]}
with "m" present in every block (cycle family) or in none (matrix family).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod
from typing import Optional

import numpy as np

from .braces import (
    AsymmetricProductBrace,
    IdealRecord,
    SemidirectProductBrace,
    TrivialBrace,
    is_ideal,
    is_prime_brace,
    list_ideals,
    star_span,
)
from .errors import BelowBoundError, ConditionViolationError, NoWitnessError, SchemaError
from .modular import ResidueMatrix, has_prime_order, is_prime, minus_id_bijective, nullspace_mod

__all__ = [
    "BlockData",
    "FamilySpec",
    "FamilyBlock",
    "FamilyReport",
    "parse_spec",
    "load_spec",
    "dump_spec",
    "validate_spec",
    "family_order",
    "build_family",
    "nonsimple_witness",
    "build_prime_example",
    "verify_prime_example",
    "solve_exponents",
]


@dataclass(frozen=True)
class BlockData:
    """One block of a family spec; ``m`` stays None for the matrix shape."""

    p: int
    gram: tuple
    f: tuple
    r: int
    m: Optional[int] = None

    @property
    def dim(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class FamilySpec:
    """The blocks of a family spec, whose shape is read off the blocks.

    ``kind`` is "cycle" when every block has a slot count ``m`` and "matrix"
    when none does. Blocks that mix the two raise SchemaError, so no spec
    has a shape that its blocks contradict.
    """

    blocks: tuple

    def __post_init__(self):
        with_m = sum(b.m is not None for b in self.blocks)
        if with_m not in (0, len(self.blocks)):
            raise SchemaError("blocks: field 'm' must appear in every block or in none")

    @property
    def kind(self) -> str:
        return "cycle" if all(b.m is not None for b in self.blocks) else "matrix"

    @property
    def n(self) -> int:
        return len(self.blocks)


def _parse_matrix(value, path: str, expected_dim: Optional[int] = None) -> tuple:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a non-empty square integer matrix")
    dim = len(value)
    rows = []
    for row in value:
        if (
            not isinstance(row, list)
            or len(row) != dim
            or any(isinstance(x, bool) or not isinstance(x, int) for x in row)
        ):
            raise SchemaError(f"{path}: expected a square integer matrix")
        if any(not -(2**63) <= x < 2**63 for x in row):
            raise SchemaError(f"{path}: entries must fit in a signed 64-bit integer")
        rows.append(tuple(row))
    if expected_dim is not None and dim != expected_dim:
        raise SchemaError(f"{path}: expected a matrix of the same size as gram")
    return tuple(rows)


def _parse_positive_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f"{path}: expected a positive integer")
    return value


def parse_spec(data) -> FamilySpec:
    """Turn a JSON object into a family spec, reporting the offending field path."""
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    for key in data:
        if key != "blocks":
            raise SchemaError(f"top level: unknown field {key!r}")
    if "blocks" not in data:
        raise SchemaError("top level: missing field 'blocks'")
    raw_blocks = data["blocks"]
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise SchemaError("blocks: expected a non-empty list")
    required = ("p", "gram", "f", "r")
    blocks = []
    for i, raw in enumerate(raw_blocks):
        path = f"blocks[{i}]"
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}: expected an object")
        for key in raw:
            if key not in required and key != "m":
                raise SchemaError(f"{path}: unknown field {key!r}")
        for key in required:
            if key not in raw:
                raise SchemaError(f"{path}: missing field {key!r}")
        p = _parse_positive_int(raw["p"], f"{path}.p")
        gram = _parse_matrix(raw["gram"], f"{path}.gram")
        f = _parse_matrix(raw["f"], f"{path}.f", expected_dim=len(gram))
        r = _parse_positive_int(raw["r"], f"{path}.r")
        m = _parse_positive_int(raw["m"], f"{path}.m") if "m" in raw else None
        blocks.append(BlockData(p=p, gram=gram, f=f, r=r, m=m))
    return FamilySpec(blocks=tuple(blocks))


def load_spec(path) -> FamilySpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return parse_spec(data)


def dump_spec(spec: FamilySpec) -> dict:
    blocks = []
    for b in spec.blocks:
        entry = {
            "p": b.p,
            "gram": [list(row) for row in b.gram],
            "f": [list(row) for row in b.f],
            "r": b.r,
        }
        if spec.kind == "cycle":
            entry["m"] = b.m
        blocks.append(entry)
    return {"blocks": blocks}


def _slot_count(spec: FamilySpec, z: int) -> int:
    b = spec.blocks[z]
    if spec.kind == "cycle":
        return b.m
    return b.r * spec.blocks[z - 1].r


def _slot_groups(spec: FamilySpec, z: int) -> list[tuple[list, list]]:
    """(paired, moved) slot lists for each s-coordinate i of block z.

    Pairing component i sums the form over the ``paired`` slots of block z,
    and action generator i applies f to the ``moved`` slots of block z+1.
    Cycle shape: slot i alone for i < r_z - 1, every slot for the last
    coordinate. Matrix shape: row i of block z's r_z x r_{z-1} grid, and
    column i of block z+1's r_{z+1} x r_z grid.
    """
    r, w = spec.blocks[z].r, (z + 1) % spec.n
    if spec.kind == "cycle":
        every = (list(range(spec.blocks[z].m)), list(range(spec.blocks[w].m)))
        return [([i], [i]) for i in range(r - 1)] + [every]
    cols, rows = spec.blocks[z - 1].r, spec.blocks[w].r
    return [(list(range(i * cols, (i + 1) * cols)), list(range(i, rows * r, r))) for i in range(r)]


def family_order(spec: FamilySpec) -> int:
    return prod(
        b.p ** (b.dim * _slot_count(spec, z) + b.r) for z, b in enumerate(spec.blocks)
    )


@dataclass
class FamilyReport:
    """Mathematical validation of a family spec, with a simplicity prediction."""

    ok: bool
    kind: str
    order: int
    failures: list
    predicted_simple: Optional[bool]
    blocks: list


def validate_spec(spec: FamilySpec) -> FamilyReport:
    """Check every condition the construction needs and predict simplicity.

    Conditions: at least two blocks with pairwise distinct primes below 2^62
    (the bound of exact int64 arithmetic, reported as a failure); each gram
    symmetric and non-singular; each f orthogonal for its gram with order
    exactly the preceding block's prime; and, in the cycle shape, a slot
    count m_z of at least max(r_z, r_{z-1}).
    """
    failures: list[str] = []
    n = spec.n
    if n < 2:
        failures.append("blocks: the cycle needs at least two blocks")
    primes = [b.p for b in spec.blocks]
    if len(set(primes)) != len(primes):
        failures.append("blocks: the block primes must be pairwise distinct")
    block_infos = []
    bijective_flags = []
    for z, b in enumerate(spec.blocks):
        path = f"blocks[{z}]"
        info = {"p": b.p, "dim": b.dim, "r": b.r, "slots": None, "map_order": None,
                "minus_id_bijective": None}
        block_infos.append(info)
        if b.p >= 2**62:  # ResidueMatrix would raise, and is_prime from 3.2e23 on
            failures.append(
                f"{path}.p: {b.p} is not below 2^62, the bound for exact int64 arithmetic"
            )
            continue
        if not is_prime(b.p):
            failures.append(f"{path}.p: {b.p} is not prime")
            continue
        gram = ResidueMatrix(b.gram, b.p)
        f = ResidueMatrix(b.f, b.p)
        if gram != gram.T:
            failures.append(f"{path}.gram: not symmetric")
            continue
        if gram.det() == 0:
            failures.append(f"{path}.gram: singular")
            continue
        if f.T @ gram @ f != gram:
            failures.append(f"{path}.f: does not preserve the form")
            continue
        prev_p = spec.blocks[(z - 1) % n].p
        if prev_p >= 2**62 or not is_prime(prev_p):  # reported at its own block
            continue
        if f == ResidueMatrix.identity(b.dim, b.p):
            info["map_order"] = 1
            failures.append(f"{path}.f: order 1, expected the preceding prime {prev_p}")
            continue
        if not has_prime_order(f, prev_p):
            failures.append(f"{path}.f: order does not divide the preceding prime {prev_p}")
            continue
        info["map_order"] = prev_p
        info["minus_id_bijective"] = minus_id_bijective(f)
        bijective_flags.append(info["minus_id_bijective"])
        info["slots"] = _slot_count(spec, z)
        if spec.kind == "cycle":
            need = max(b.r, spec.blocks[(z - 1) % n].r)
            if b.m < need:
                failures.append(f"{path}.m: {b.m} is below max(r_z, preceding r) = {need}")
    ok = not failures
    predicted = all(bijective_flags) if ok else None
    return FamilyReport(
        ok=ok,
        kind=spec.kind,
        order=family_order(spec) if ok else 0,
        failures=failures,
        predicted_simple=predicted,
        blocks=block_infos,
    )


@dataclass(frozen=True)
class FamilyBlock:
    """Carrier-level metadata for one block of a built family brace.

    ``t_coords`` is the [start, stop) range of the block's coordinates in the
    logical t coordinate list. The block's elements (all other blocks zero)
    occupy the contiguous index run stride * {0, ..., size-1}, because the
    storage layout keeps each block's coordinates adjacent.
    """

    prime: int
    dim: int
    slots: int
    t_coords: tuple
    stride: int
    size: int
    f: tuple

    def carrier_indices(self) -> np.ndarray:
        return self.stride * np.arange(self.size, dtype=np.int64)


def _assemble(spec: FamilySpec):
    """Shared assembly of moduli, pairing, action generators, layout, metadata."""
    n = spec.n
    dims = [b.dim for b in spec.blocks]
    slot_counts = [_slot_count(spec, z) for z in range(n)]
    t_dims = [dims[z] * slot_counts[z] for z in range(n)]
    r = [b.r for b in spec.blocks]
    t_off = np.concatenate(([0], np.cumsum(t_dims)))
    s_off = np.concatenate(([0], np.cumsum(r)))
    dT, dS = int(t_off[-1]), int(s_off[-1])

    t_moduli = np.concatenate(
        [np.full(t_dims[z], spec.blocks[z].p, dtype=np.int64) for z in range(n)]
    )
    s_moduli = np.concatenate([np.full(r[z], spec.blocks[z].p, dtype=np.int64) for z in range(n)])

    def slot_cols(z: int, j: int) -> slice:
        base = int(t_off[z]) + j * dims[z]
        return slice(base, base + dims[z])

    pairing = np.zeros((dS, dT, dT), dtype=np.int64)
    action = np.tile(np.eye(dT, dtype=np.int64), (dS, 1, 1))
    for z, b in enumerate(spec.blocks):
        w = (z + 1) % n  # the block this block's s-part acts on
        gram = np.asarray(b.gram, dtype=np.int64)
        fw = np.asarray(spec.blocks[w].f, dtype=np.int64)
        for i, (paired, moved) in enumerate(_slot_groups(spec, z)):
            k = int(s_off[z]) + i
            for j in paired:
                pairing[k, slot_cols(z, j), slot_cols(z, j)] += gram
            for j in moved:
                if j >= slot_counts[w]:
                    raise ConditionViolationError(
                        f"blocks[{w}]: needs at least {j + 1} slots to receive the action"
                    )
                action[k, slot_cols(w, j), slot_cols(w, j)] = fw

    layout = []
    for z in range(n):
        layout.extend(range(int(t_off[z]), int(t_off[z + 1])))
        layout.extend(range(dT + int(s_off[z]), dT + int(s_off[z + 1])))

    blocks_meta = []
    stride = 1
    for z, b in enumerate(spec.blocks):
        size = b.p ** (t_dims[z] + r[z])
        blocks_meta.append(
            FamilyBlock(
                prime=b.p,
                dim=b.dim,
                slots=slot_counts[z],
                t_coords=(int(t_off[z]), int(t_off[z + 1])),
                stride=stride,
                size=size,
                f=b.f,
            )
        )
        stride *= size
    return t_moduli, s_moduli, pairing, action, layout, blocks_meta


def build_family(spec: FamilySpec) -> AsymmetricProductBrace:
    """Compile a family spec into its brace.

    The spec is checked first (raising ConditionViolationError listing every
    failure) and the assembled pairing and action are re-verified by the
    carrier's own constructor, so a bug in assembly cannot slip through as
    silent wrong algebra.
    """
    report = validate_spec(spec)
    if not report.ok:
        raise ConditionViolationError("; ".join(report.failures))
    t_moduli, s_moduli, pairing, action, layout, blocks_meta = _assemble(spec)
    return AsymmetricProductBrace(
        t_moduli,
        s_moduli,
        pairing,
        action,
        layout=layout,
        family_blocks=blocks_meta,
    )


def nonsimple_witness(B: AsymmetricProductBrace) -> IdealRecord:
    """The proper ideal of a non-simple family brace, verified before returning.

    Elements whose every slot vector lies in the image of f - id form an
    ideal; it is proper exactly when some block map has 1 as an eigenvalue.
    Membership is decided by parity checks: a left null space basis H of
    f - id satisfies (v in the image iff H v = 0). Raises NoWitnessError when
    every block map has f - id bijective (the set would be everything).
    """
    if getattr(B, "family_blocks", None) is None:
        raise ValueError("witness extraction needs a family-built brace")
    checks = []
    for blk in B.family_blocks:
        fm = np.asarray(blk.f, dtype=np.int64)
        h = nullspace_mod((fm - np.eye(blk.dim, dtype=np.int64)).T % blk.prime, blk.prime)
        if h.shape[0]:
            checks.append((blk, h))
    if not checks:
        raise NoWitnessError("every block map has f - id bijective; the set is the whole brace")
    idx = B.elements()
    t, _ = B._split(idx)
    mask = np.ones(B.order, dtype=bool)
    for blk, h in checks:
        lo, hi = blk.t_coords
        slots = t[lo:hi].reshape(blk.slots, blk.dim, B.order)
        residues = np.einsum("kd,sdn->skn", h, slots) % blk.prime
        mask &= ~np.any(residues, axis=(0, 1))
    record = IdealRecord.from_members(B, idx[mask])
    if not is_ideal(B, record.members):
        raise ConditionViolationError("witness set failed ideal verification")
    return record


def _shift_spec() -> FamilySpec:
    # five slots of the hyperbolic plane over Z/2 cycled against one copy of Z/3
    return FamilySpec(
        blocks=(
            BlockData(p=2, gram=((0, 1), (1, 0)), f=((0, 1), (1, 1)), r=1, m=5),
            BlockData(p=3, gram=((1,),), f=((2,),), r=1, m=1),
        )
    )


def build_prime_example() -> SemidirectProductBrace:
    """A prime, non-simple brace: a simple family brace extended by a slot shift.

    The five slots of the first block are cycled by Z/5; the shift commutes
    with the block action and preserves the pairing (the pairing sums over
    all slots and the action applies the same map to each), so it is a brace
    automorphism, and it is not inner since 5 does not divide the simple
    brace's order. The resulting ideal lattice is exactly {0, A x {0}, B};
    ``verify_prime_example`` checks that by computing the lattice.
    """
    A = build_family(_shift_spec())
    outer = TrivialBrace([5])
    blk = A.family_blocks[0]
    lo, hi = blk.t_coords
    idx = A.elements()
    t, s = A._split(idx)

    def shifted(a: int) -> np.ndarray:
        slots = t[lo:hi].reshape(blk.slots, blk.dim, A.order)
        rolled = np.roll(slots, -a, axis=0).reshape(hi - lo, A.order)
        return A._join(np.concatenate([t[:lo], rolled, t[hi:], s]))

    act = np.stack([shifted(a) for a in range(5)])
    return SemidirectProductBrace(A, outer, act)


def verify_prime_example() -> dict:
    """Build the order-92160 example and check that it is prime but not simple.

    Every verdict comes from the one ideal lattice ``list_ideals`` computes,
    exhaustively through orbits: the inner copy A of the simple factor must
    be an entry of it (every entry is an ideal closure) with A * A = A, the
    simple verdict is whether the lattice is {0, B}, and ``is_prime_brace``
    runs over it. Returns the order, the simple and prime verdicts, and
    every check by name.
    """
    B = build_prime_example()
    inner = np.arange(B.A.order, dtype=np.int64)
    lattice = list_ideals(B)
    star = star_span(B, inner, inner)
    prime = is_prime_brace(B, lattice)
    checks = {
        "order": B.order == 92160,
        "inner_is_ideal": any(np.array_equal(r.members, inner) for r in lattice),
        "inner_star_reproduces": bool(np.array_equal(star, inner) and star.size > 1),
        "lattice_size": len(lattice),
        "prime": prime.prime,
    }
    return {"order": B.order, "simple": len(lattice) == 2, "prime": prime.prime, "checks": checks}


def solve_exponents(dims, exponents) -> tuple[tuple, tuple]:
    """Choose slot counts and s-ranks hitting given prime exponents per block.

    Block z of a cycle family contributes exponent m_z * dim_z + r_z. For
    each target e_z this picks the smallest valid r_z (the least positive
    residue of e_z modulo dim_z) and the matching m_z, then checks the
    cross-block constraints m_z >= max(r_z, r_{z-1}). Raises BelowBoundError
    when a target is smaller than dim_z + 1, the least exponent any block can
    realize.
    """
    dims = [int(d) for d in dims]
    exponents = [int(e) for e in exponents]
    if len(dims) != len(exponents):
        raise ValueError("dims and exponents must have equal length")
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    ms, rs = [], []
    for d, e in zip(dims, exponents):
        if e < d + 1:
            raise BelowBoundError(
                f"target exponent {e} is below the minimum {d + 1} for a dimension-{d} block"
            )
        r = (e - 1) % d + 1
        ms.append((e - r) // d)
        rs.append(r)
    n = len(dims)
    for z in range(n):
        need = max(rs[z], rs[(z - 1) % n])
        if ms[z] < need:
            raise ConditionViolationError(
                f"block {z}: slot count {ms[z]} cannot cover s-ranks up to {need}"
            )
    return tuple(ms), tuple(rs)
