"""Derive the canonical solution table of a brace and serialize it.

Trivial braces give the flip r(x, y) = (y, x); anything with a non-trivial
lambda action gives something genuinely twisted.  Either way the table passes
involutivity, non-degeneracy, and the braid relation, and round-trips through
the YBE v1 text format byte for byte.

Run:  python3 demos/ybe_export.py [out.ybe]
"""

import io
import sys
from pathlib import Path

from bracekit import (
    TrivialBrace,
    build_family,
    check_axioms,
    check_solution,
    export_solution,
    import_solution,
    load_spec,
    solution_from_brace,
)

SPEC = Path(__file__).parent / "specs" / "cf72.json"


def main():
    T = TrivialBrace([3])
    check_axioms(T)
    flip = solution_from_brace(T)
    print(f"trivial brace of order 3: sigma rows = {flip.sigma.tolist()} (the flip)")

    B = build_family(load_spec(SPEC))
    check_axioms(B, mode="exhaustive")
    table = solution_from_brace(B)
    report = check_solution(table)
    print(f"\norder-72 solution: involutive={report.involutive} "
          f"nondegenerate={report.nondegenerate} braid={report.braid} "
          f"({report.braid_mode}, {report.braid_checked} triples)")

    buf = io.BytesIO()
    written = export_solution(table, buf)
    print(f"\nserialized: {written} bytes, header {buf.getvalue()[:12]!r}")
    assert import_solution(buf.getvalue()) == table
    print("round-trip import equals the original table")

    if len(sys.argv) > 1:
        export_solution(table, sys.argv[1])
        print(f"wrote {sys.argv[1]}")


if __name__ == "__main__":
    main()
