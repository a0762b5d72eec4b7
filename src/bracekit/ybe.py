"""Set-theoretic solution tables derived from braces, checks, and text I/O.

The canonical solution attached to a brace is r(x, y) = (sigma_x(y), gamma),
where sigma_x = lam_x and the second component is lam applied at the inverse
of sigma_x(y); involutivity, non-degeneracy, and the braid relation are then
verifiable facts about the two index tables, not assumptions. On an involutive
table whose sigma rows are permutations, the braid relation holds exactly when
(x.y).(x.z) = (y.x).(y.z) with x.y = sigma_x^-1(y), Rump's cycle-set identity
(Adv. Math. 193, 2005); check_solution checks that law there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .braces import EXHAUSTIVE_CAP, FiniteBrace, _check_triples, _non_permutation_rows
from .errors import AxiomsNotVerifiedError, SolutionFormatError

__all__ = [
    "SolutionReport",
    "SolutionTable",
    "check_solution",
    "export_solution",
    "import_solution",
    "solution_from_brace",
]

# export_solution writes each number in canonical decimal: no sign, no leading zero
_DECIMAL = r"(?:0|[1-9][0-9]*)"
_HEADER = re.compile(f"YBE v1 N=({_DECIMAL})")
_ROW = re.compile(f"{_DECIMAL}(?: {_DECIMAL})*")


@dataclass(frozen=True, eq=False)
class SolutionTable:
    """Tables sigma and gamma with r(x, y) = (sigma[x, y], gamma[x, y])."""

    sigma: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=np.int64)
        gamma = np.asarray(self.gamma, dtype=np.int64)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square table")
        if gamma.shape != sigma.shape:
            raise ValueError("gamma must match sigma's shape")
        n = sigma.shape[0]
        for name, table in (("sigma", sigma), ("gamma", gamma)):
            if table.size and (table.min() < 0 or table.max() >= n):
                raise ValueError(f"{name} entries must lie in [0, {n})")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "gamma", gamma)

    @property
    def size(self) -> int:
        return int(self.sigma.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolutionTable):
            return NotImplemented
        return np.array_equal(self.sigma, other.sigma) and np.array_equal(
            self.gamma, other.gamma
        )

    def __repr__(self) -> str:
        return f"SolutionTable(size={self.size})"


def solution_from_brace(B: FiniteBrace) -> SolutionTable:
    """Tabulate r(x, y) = (lam_x(y), lam_{lam_x(y)^-1}(x)) over all indices.

    Requires a cached passing axiom report on B (run check_axioms first); the
    second component uses lam at the multiplicative inverse, which equals the
    inverse automorphism because lam is a homomorphism into Aut(B, +).
    """
    report = getattr(B, "_axiom_report", None)
    if report is None or not report.ok:
        raise AxiomsNotVerifiedError(
            "no passing axiom report cached on this brace; run check_axioms first"
        )
    idx = B.elements()
    # sigma is the table of every lam, so gamma is a gather from it
    sigma = B.lam(idx[:, None], idx[None, :])
    gamma = sigma[B.inv(idx)[sigma], idx[:, None]]
    return SolutionTable(sigma=sigma, gamma=gamma)


@dataclass(frozen=True)
class SolutionReport:
    """Outcome of the three solution checks."""

    ok: bool
    involutive: bool
    nondegenerate: bool
    braid: bool
    braid_mode: str
    braid_checked: int
    counterexample: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "involutive": self.involutive,
            "nondegenerate": self.nondegenerate,
            "braid": self.braid,
            "braid_mode": self.braid_mode,
            "braid_checked": self.braid_checked,
            "counterexample": None
            if self.counterexample is None
            else list(self.counterexample),
        }


def check_solution(
    table: SolutionTable,
    trials: int = 1_000_000,
    seed: int = 0,
) -> SolutionReport:
    """Verify involutivity, non-degeneracy, and the braid relation.

    Involutivity and non-degeneracy are always exhaustive (N^2 pairs and 2N
    bijection checks).  The braid relation runs over all N^3 triples up to
    EXHAUSTIVE_CAP, and over `trials` seeded random triples beyond it: one
    draw in the smallest dtype (3 bytes a triple up to 256 elements). Either
    way ``_check_triples`` walks them in 2^15-triple slices and reports the
    first failing triple in walk order, as a check of all at once would.
    On an involutive, non-degenerate table it is checked as the cycle-set
    identity (Rump 2005) on tau, the inverse rows of sigma; a failure at
    (x, u, z) is reported as (x, y, w) with y = tau[x, u] and
    w = tau[y, tau[x, z]], where the two sides of the braid relation differ
    in their first component (z against sigma_u sigma_{u.x}(w)). Any other
    table is checked, and its failure reported, on the braid relation itself.
    """
    sigma, gamma = table.sigma, table.gamma
    n = table.size
    counterexample = None

    nondegenerate = not (_non_permutation_rows(sigma).size or _non_permutation_rows(gamma.T).size)

    every = np.arange(n)
    x_back = sigma[sigma, gamma] == every[:, None]
    y_back = gamma[sigma, gamma] == every[None, :]
    involutive = bool(x_back.all() and y_back.all())
    if not involutive:
        bad = np.argwhere(~(x_back & y_back))[0]
        counterexample = (int(bad[0]), int(bad[1]))

    def r12(x, y, z):
        return sigma[x, y], gamma[x, y], z

    def r23(x, y, z):
        return x, sigma[y, z], gamma[y, z]

    def braid(x, y, z):
        lhs = r12(*r23(*r12(x, y, z)))
        rhs = r23(*r12(*r23(x, y, z)))
        return (lhs[0] == rhs[0]) & (lhs[1] == rhs[1]) & (lhs[2] == rhs[2])

    def cycle_set(x, u, z):
        # tau[tau[x, u], tau[x, z]] == tau[tau[u, x], tau[u, z]], gathered through flat indices
        xn, un = x * n, u * n
        return f[f[xn + u] * n + f[xn + z]] == f[f[un + x] * n + f[un + z]]

    law = braid
    if involutive and nondegenerate:
        tau = np.empty_like(sigma)  # tau[x, u] = sigma_x^-1(u), the cycle-set x.u
        tau[every[:, None], sigma] = every
        f = tau.ravel()
        law = cycle_set
    mode = "exhaustive" if n <= EXHAUSTIVE_CAP else "sampled"
    verdicts, failure, checked = _check_triples(n, {"braid": law}, mode, trials, seed)
    if failure is not None and counterexample is None:
        counterexample = failure[1]
        if law is cycle_set:
            x, u, z = counterexample
            y = int(tau[x, u])
            counterexample = (x, y, int(tau[y, tau[x, z]]))

    return SolutionReport(
        ok=involutive and nondegenerate and verdicts["braid"],
        involutive=involutive,
        nondegenerate=nondegenerate,
        braid=verdicts["braid"],
        braid_mode=mode,
        braid_checked=checked,
        counterexample=counterexample,
    )


def _render(table: SolutionTable) -> bytes:
    # each row joins the decimal words of its entries, gathered from one word table
    words = np.array([str(v) for v in range(table.size)], dtype=object)
    sigma, gamma = ([" ".join(row) for row in words[t].tolist()] for t in (table.sigma, table.gamma))
    return "\n".join([f"YBE v1 N={table.size}", *sigma, "", *gamma, ""]).encode("ascii")


def export_solution(table: SolutionTable, destination) -> int:
    """Write the YBE v1 text form; returns the number of bytes written."""
    payload = _render(table)
    if hasattr(destination, "write"):
        destination.write(payload)
    else:
        Path(destination).write_bytes(payload)
    return len(payload)


def _parse_row(line: str, n: int, what: str, lineno: int) -> list[int]:
    parts = line.split(" ")
    if len(parts) != n:
        raise SolutionFormatError(
            f"line {lineno}: expected {n} {what} entries, got {len(parts)}"
        )
    if _ROW.fullmatch(line) is None:
        raise SolutionFormatError(f"line {lineno}: entries must be canonical decimal integers")
    row = [int(p) for p in parts]
    if any(v >= n for v in row):
        raise SolutionFormatError(f"line {lineno}: entry out of range [0, {n})")
    return row


def import_solution(source) -> SolutionTable:
    """Parse the YBE v1 text form from a path, bytes, or readable object."""
    if isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
    else:
        data = Path(source).read_bytes()
    # latin-1 maps every byte to one character, so a non-ASCII byte stays non-ASCII
    text = data.decode("latin-1") if isinstance(data, bytes) else data
    if not text.isascii():
        raise SolutionFormatError("the text form holds ASCII characters only")
    lines = text.split("\n")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise SolutionFormatError("missing or malformed 'YBE v1 N=<N>' header")
    n = int(header.group(1))
    if n == 0:
        raise SolutionFormatError("the header must give N of at least 1")
    expected = 1 + n + 1 + n
    body = lines[1:]
    if len(body) < expected - 1:
        raise SolutionFormatError(
            f"truncated payload: expected {expected - 1} lines after the header"
        )
    sigma = [_parse_row(body[i], n, "sigma", i + 2) for i in range(n)]
    if body[n] != "":
        raise SolutionFormatError(f"line {n + 2}: expected a blank separator line")
    gamma = [_parse_row(body[n + 1 + i], n, "gamma", n + 3 + i) for i in range(n)]
    trailer = body[2 * n + 1 :]
    if any(t != "" for t in trailer):
        raise SolutionFormatError("unexpected content after the gamma table")
    return SolutionTable(sigma=np.array(sigma), gamma=np.array(gamma))
