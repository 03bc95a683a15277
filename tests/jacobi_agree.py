"""Jacobi agreement: `jacobi_check` gives the same report on a fresh algebra as on a built table.

For M, Q = M / Z_2(M) and B of every admissible R(g, h) with g + h <= 7 at
its default bound m + 2d, the script runs `jacobi_check` twice on the same
algebra:

- fresh, with no bracket table built, where an algebra at most 2 wide is
  checked by the packed path and only a failure falls back to the row path;
- once its bracket table is built, where the row path reads it.

The two reports must be equal, failures and `checked` included, and a
sound table at most 2 wide must pass without building its bracket table
or calling `jacobi_sum`.

First, as a memory gate, it runs a fresh `jacobi_check` on M(8,1)@3072
right after its `nq_compute`: the check must pass and may raise the
process's peak RSS (`ru_maxrss`) by at most `MAX_RSS_RISE_MB`.  The
packed path keeps only one degree's columns, a few c-bit planes.  The
gate runs before the other tables, whose bracket tables would raise the
peak first and hide the check's own rise.

Run it from anywhere (the g + h = 7 tables take about 0.2 s each, most of
it on the row path)::

    python tests/jacobi_agree.py

It prints the gate's time and rise and one line per table, and exits 1 if
the gate fails, any report differs or a sound narrow table took the row
path.  The gate reads `resource`, so the script runs on POSIX only.
pytest does not collect this file; `tests/test_kernels.py` runs the desk
pairs through `agree`.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bzloop import algebra  # noqa: E402
from bzloop.algebra import GradedAlgebra, JacobiReport, jacobi_check, quotient, second_center  # noqa: E402
from bzloop.bl import construct_bl, presentation_R  # noqa: E402
from bzloop.nq import nq_compute  # noqa: E402
from paths_agree import default_bound  # noqa: E402  (this file's directory is on the path)

MAX_GH = 7
MAX_RSS_RISE_MB = 4


def tables(g: int, h: int) -> list[tuple[str, GradedAlgebra]]:
    """M, Q = M / Z_2(M) and B of R(g, h) at its default bound, none with a bracket table built."""
    c = default_bound(g, h)
    M = nq_compute(presentation_R(g, h), c)
    Q = quotient(M, second_center(M))
    return [(f"M({g},{h})@{c}", M), (f"Q({g},{h})@{c - 2}", Q), (f"B({g},{h})@{c}", construct_bl(g, h, c))]


def reports(A: GradedAlgebra) -> tuple[JacobiReport, bool, JacobiReport]:
    """`jacobi_check` on A fresh, whether it took the row path, and `jacobi_check` once A's table is built.

    The row path is taken when the fresh check builds the bracket table or
    calls `jacobi_sum`.
    """
    build, add = GradedAlgebra.bracket_table, algebra.jacobi_sum
    with mock.patch.object(GradedAlgebra, "bracket_table", autospec=True, side_effect=build) as built:
        with mock.patch.object(algebra, "jacobi_sum", side_effect=add) as summed:
            fresh = jacobi_check(A)
    A.bracket_table()
    return fresh, built.called or summed.called, jacobi_check(A)


def agree(A: GradedAlgebra) -> str | None:
    """None when the fresh and the built report are equal, and a sound narrow table took the packed path."""
    fresh, row_path, row = reports(A)
    if fresh != row:
        return "the fresh report differs from the built table's"
    if row.ok and max(A.dims) <= 2 and row_path:
        return "a sound table at most 2 wide took the row path"
    return None


def memory_gate() -> str | None:
    """None when a fresh `jacobi_check` of M(8,1)@3072 passes within `MAX_RSS_RISE_MB` of peak RSS."""
    import resource  # POSIX only; pytest imports this file through test_kernels.py and never calls this

    M = nq_compute(presentation_R(8, 1), 3072)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    t0 = time.perf_counter()
    report = jacobi_check(M)
    seconds = time.perf_counter() - t0
    rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    print(f"memory gate: fresh jacobi_check of M(8,1)@3072 {report}, {seconds:.3f} s, peak RSS +{rise:.1f} MB")
    if not report.ok:
        return "the check failed"
    if rise > MAX_RSS_RISE_MB:
        return f"the check raised peak RSS by more than {MAX_RSS_RISE_MB} MB"
    return None


def main() -> int:
    start = time.perf_counter()
    error = memory_gate()
    if error:
        print(f"memory gate FAILED: {error}")
        return 1
    pairs = [(g, gh - g) for gh in range(3, MAX_GH + 1) for g in range(2, gh)]
    count = bad = 0
    for g, h in pairs:
        for name, A in tables(g, h):
            t0 = time.perf_counter()
            error = agree(A)
            count += 1
            bad += error is not None
            verdict = "DIFFERS" if error else "agree"
            print(f"{verdict:8s} {time.perf_counter() - t0:6.2f} s  {name}  {error or ''}", flush=True)
    print(f"{count - bad} of {count} tables agree in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
