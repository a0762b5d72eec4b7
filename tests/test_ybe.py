"""Solution tables: derivation from braces, the three checks, and text I/O."""

import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bracekit.braces import TrivialBrace, check_axioms
from bracekit.construct import build_family, load_spec, parse_spec
from bracekit.errors import AxiomsNotVerifiedError, SolutionFormatError
from bracekit.ybe import (
    SolutionReport,
    SolutionTable,
    check_solution,
    export_solution,
    import_solution,
    solution_from_brace,
)

CF72_DICT = {
    "blocks": [
        {"p": 2, "gram": [[0, 1], [1, 0]], "f": [[0, 1], [1, 1]], "m": 1, "r": 1},
        {"p": 3, "gram": [[1]], "f": [[2]], "m": 1, "r": 1},
    ]
}


@pytest.fixture(scope="module")
def cf72_solution():
    B = build_family(parse_spec(CF72_DICT))
    check_axioms(B, mode="exhaustive")
    return solution_from_brace(B)


def _flip(n):
    grid = np.tile(np.arange(n), (n, 1))
    return SolutionTable(sigma=grid, gamma=grid.T)


def test_requires_verified_axioms():
    B = TrivialBrace([4])
    with pytest.raises(AxiomsNotVerifiedError):
        solution_from_brace(B)
    check_axioms(B)
    table = solution_from_brace(B)
    assert table == _flip(4)


def test_trivial_brace_gives_flip():
    B = TrivialBrace([2])
    check_axioms(B)
    table = solution_from_brace(B)
    assert table.sigma.tolist() == [[0, 1], [0, 1]]
    assert table.gamma.tolist() == [[0, 0], [1, 1]]
    report = check_solution(table)
    assert report.ok and report.braid_mode == "exhaustive"


def test_cf72_solution_passes_all_checks(cf72_solution):
    assert cf72_solution.size == 72
    report = check_solution(cf72_solution)
    assert report.ok
    assert report.involutive and report.nondegenerate and report.braid
    assert report.braid_mode == "exhaustive"
    assert report.braid_checked == 72**3
    assert report.counterexample is None
    # a non-trivial brace does not give the flip
    assert cf72_solution != _flip(72)


def test_identity_map_is_degenerate():
    n = 3
    X, Y = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    table = SolutionTable(sigma=X, gamma=Y)  # r(x, y) = (x, y)
    report = check_solution(table)
    assert not report.nondegenerate
    assert not report.ok


def test_corrupted_table_fails():
    table = _flip(2)
    gamma = table.gamma.copy()
    gamma[0, 0] = 1
    report = check_solution(SolutionTable(sigma=table.sigma, gamma=gamma))
    assert not report.ok


def _involutive(sigma):
    """The involutive table with these sigma rows: gamma[x, y] = sigma^-1_{sigma_x(y)}(x)."""
    sigma = np.asarray(sigma)
    tau = np.argsort(sigma, axis=1)
    return SolutionTable(sigma=sigma, gamma=tau[sigma, np.arange(len(sigma))[:, None]])


def _braid_holds_at(table, x, y, z):
    """r12 r23 r12 == r23 r12 r23 at (x, y, z), one map at a time."""

    def r12(t):
        return int(table.sigma[t[0], t[1]]), int(table.gamma[t[0], t[1]]), t[2]

    def r23(t):
        return t[0], int(table.sigma[t[1], t[2]]), int(table.gamma[t[1], t[2]])

    return r12(r23(r12((x, y, z)))) == r23(r12(r23((x, y, z))))


def test_braid_failure_reports_counterexample():
    table = _involutive([[1, 0, 2], [2, 0, 1], [2, 0, 1]])
    report = check_solution(table)
    assert report.involutive and report.nondegenerate and not report.braid
    assert not _braid_holds_at(table, *report.counterexample)


def test_cycle_set_verdict_matches_the_braid_relation():
    rng = np.random.default_rng(17)
    seen = {True: 0, False: 0}
    for _ in range(4000):
        n = int(rng.integers(1, 7))
        # one or two distinct sigma rows, so that many tables satisfy the braid relation
        perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 3)))]
        table = _involutive([perms[int(i)] for i in rng.integers(0, len(perms), n)])
        report = check_solution(table)
        assert report.involutive
        direct = all(_braid_holds_at(table, *t) for t in np.ndindex(n, n, n))
        assert report.braid == direct
        if not direct:
            assert not _braid_holds_at(table, *report.counterexample)
        if report.nondegenerate and n > 2:
            seen[direct] += 1
    assert min(seen.values()) >= 100, seen


def _braid_violating(n, lo, seed):
    """Involutive table: sigma_x is the identity for x < lo and permutes lo..n-1 otherwise."""
    rng = np.random.default_rng(seed)
    sigma = np.tile(np.arange(n), (n, 1))
    for x in range(lo, n):
        sigma[x, lo:] = lo + rng.permutation(n - lo)
    gamma = np.argsort(sigma, axis=1)[sigma, np.arange(n)[:, None]]
    return SolutionTable(sigma=sigma, gamma=gamma)


# Both reports were captured before the exhaustive and sampled checkers were
# merged; at n = 150 a slice holds one value of a, and the first braid failure has a = 120.
def test_pinned_braid_reports():
    report = check_solution(_braid_violating(150, 120, 1))
    assert report == SolutionReport(
        ok=False,
        involutive=True,
        nondegenerate=False,
        braid=False,
        braid_mode="exhaustive",
        braid_checked=150**3,
        counterexample=(120, 120, 120),
    )
    report = check_solution(_braid_violating(210, 150, 2), trials=1000, seed=7)
    assert report == SolutionReport(
        ok=False,
        involutive=True,
        nondegenerate=False,
        braid=False,
        braid_mode="sampled",
        braid_checked=1000,
        counterexample=(188, 173, 184),
    )


def test_sampled_braid_mode():
    table = _flip(210)
    report = check_solution(table, trials=5_000, seed=7)
    assert report.ok
    assert report.braid_mode == "sampled"
    assert report.braid_checked == 5_000


def test_sampled_braid_check_holds_little_beyond_its_draw():
    # 10^6 triples of a 216-element table: a 3 MB uint8 draw, walked in _BLOCK slices
    B = build_family(load_spec(Path(__file__).resolve().parent.parent / "demos/specs/ns216.json"))
    check_axioms(B)
    table = solution_from_brace(B)
    tracemalloc.start()
    try:
        report = check_solution(table, trials=1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.ok, report.braid_mode, report.braid_checked) == (True, "sampled", 1_000_000)
    assert peak <= 8_000_000, peak


def test_sampled_braid_mode_needs_a_trial():
    with pytest.raises(ValueError, match="at least 1 trial"):
        check_solution(_flip(210), trials=0)
    assert check_solution(_flip(72), trials=0).braid_mode == "exhaustive"


def test_table_validation():
    with pytest.raises(ValueError):
        SolutionTable(sigma=np.zeros((2, 3), dtype=int), gamma=np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        SolutionTable(sigma=np.array([[5]]), gamma=np.array([[0]]))


def test_export_n1_exact_bytes(tmp_path):
    table = SolutionTable(sigma=np.array([[0]]), gamma=np.array([[0]]))
    buf = io.BytesIO()
    written = export_solution(table, buf)
    assert buf.getvalue() == b"YBE v1 N=1\n0\n\n0\n"
    assert written == len(buf.getvalue())
    path = tmp_path / "one.ybe"
    export_solution(table, path)
    assert path.read_bytes() == b"YBE v1 N=1\n0\n\n0\n"


def test_roundtrip_cf72(cf72_solution, tmp_path):
    path = tmp_path / "cf72.ybe"
    export_solution(cf72_solution, path)
    again = import_solution(path)
    assert again == cf72_solution
    buf = io.BytesIO()
    export_solution(again, buf)
    assert buf.getvalue() == path.read_bytes()


def test_import_error_paths():
    with pytest.raises(SolutionFormatError, match="header"):
        import_solution(b"YBE v2 N=1\n0\n\n0\n")
    with pytest.raises(SolutionFormatError, match="truncated"):
        import_solution(b"YBE v1 N=2\n0 1\n")
    with pytest.raises(SolutionFormatError, match="blank separator"):
        import_solution(b"YBE v1 N=1\n0\n0\n0\n")
    with pytest.raises(SolutionFormatError, match="out of range"):
        import_solution(b"YBE v1 N=1\n4\n\n0\n")
    with pytest.raises(SolutionFormatError, match="canonical decimal"):
        import_solution(b"YBE v1 N=1\nx\n\n0\n")
    # export writes canonical decimals only, so each other spelling of 0 is rejected
    for entry in (b"+0", b"-0", b"00", b"0_0"):
        with pytest.raises(SolutionFormatError, match="canonical decimal"):
            import_solution(b"YBE v1 N=1\n" + entry + b"\n\n0\n")
        with pytest.raises(SolutionFormatError, match="canonical decimal"):
            import_solution(b"YBE v1 N=2\n0 1\n1 0\n\n0 1\n" + entry + b" 0\n")
    for header in (b"N=01", b"N=+1", b"N=1 ", b"N= 1"):
        with pytest.raises(SolutionFormatError, match="header"):
            import_solution(b"YBE v1 " + header + b"\n0\n\n0\n")
    with pytest.raises(SolutionFormatError, match="after the gamma"):
        import_solution(b"YBE v1 N=1\n0\n\n0\n0\n")
    with pytest.raises(SolutionFormatError, match="at least 1"):
        import_solution(b"YBE v1 N=0\n\n")
    with pytest.raises(SolutionFormatError, match="ASCII"):
        import_solution("YBE v1 N=1\n0\n\n0\n".encode("utf-16"))


def test_import_from_stream(cf72_solution):
    buf = io.BytesIO()
    export_solution(cf72_solution, buf)
    buf.seek(0)
    assert import_solution(buf) == cf72_solution
