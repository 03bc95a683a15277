"""Path agreement: the default and the table cut loops give the same tables, byte for byte.

For every admissible R(g, h) with g + h <= 9 at its default bound m + 2d,
for the desk pairs (2, 1), (3, 1) and (2, 2) at m + 16d, and for the
wide-nq presentations of the benchmark's seeds 1 and 2 at its class 14,
the script runs the two cut loops of `bzloop.nq` to the bound and compares
the JSON bytes of the quotients they give:

- `_table_cuts`, the table loop alone;
- `_cuts`, the default loop: the table loop cuts degree 2, then the packed
  loop cuts from degree 3 on and hands back to the table loop at its first
  cut wider than 2.

Over the last period, the packed cuts make 55 to 64 fill events each at
m + 16d, against about 10 at m + 2d.  Each pair's rows span the same 7
states of the narrow cut table as at m + 2d: 4 over 4 symbols and 3 over 2.

Run it from anywhere (the g + h = 9 pairs take several seconds each on the
table loop)::

    python tests/paths_agree.py

It prints one line per presentation and exits 1 if any quotient differs.
pytest does not collect this file; `tests/test_engine.py` runs the fast
cases through `agree`.
"""

from __future__ import annotations

import json
import random
import sys
import time
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bzloop import nq, words  # noqa: E402
from bzloop.bl import bl_params, presentation_R  # noqa: E402

MAX_GH = 9
DESK = ((2, 1), (3, 1), (2, 2))
LONG_PERIODS = 16
WIDE_SEEDS = (1, 2)
WIDE_CLASS = 14


def default_bound(g: int, h: int, periods: int = 2) -> int:
    p = bl_params(g, h)
    return p.m + periods * p.d


def r_cases(max_gh: int = MAX_GH) -> list[tuple[str, nq.Presentation, int]]:
    """Every admissible R(g, h), g >= 2 and h >= 1, with g + h <= max_gh, at its default bound."""
    return [
        (f"R({g},{h})@{default_bound(g, h)}", presentation_R(g, h), default_bound(g, h))
        for gh in range(3, max_gh + 1)
        for g in range(2, gh)
        for h in (gh - g,)
    ]


def long_cases() -> list[tuple[str, nq.Presentation, int]]:
    """The desk pairs at m + LONG_PERIODS * d."""
    return [
        (f"R({g},{h})@{default_bound(g, h, LONG_PERIODS)}", presentation_R(g, h), default_bound(g, h, LONG_PERIODS))
        for g, h in DESK
    ]


def wide_cases() -> list[tuple[str, nq.Presentation, int]]:
    """The wide-nq presentations of perfbench/workloads.py, drawn as its `wide_nq` draws them."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    mods = SimpleNamespace(words=words)
    cases = []
    for seed in WIDE_SEEDS:
        rng = random.Random(seed)
        for k, shape in enumerate(workloads.WIDE_SHAPES):
            relators = tuple(workloads._random_word(mods, rng, n, distinct_head=True) for n in shape)
            cases.append((f"wide-nq seed {seed} #{k}", nq.Presentation(relators), WIDE_CLASS))
    return cases


def _bytes(table, bound: int) -> bytes:
    return json.dumps(nq._algebra(table, bound).to_json_dict()).encode()


def agree(pres: nq.Presentation, bound: int) -> str | None:
    """None when the two loops give the same quotient at `bound`, else a message that they differ."""
    table, default = (_bytes(next(islice(loop(pres), bound - 1, None)), bound) for loop in (nq._table_cuts, nq._cuts))
    return None if default == table else "the default loop differs from the table loop"


def main() -> int:
    start = time.perf_counter()
    cases = r_cases() + long_cases() + wide_cases()
    bad = 0
    for name, pres, bound in cases:
        t0 = time.perf_counter()
        error = agree(pres, bound)
        bad += error is not None
        print(f"{'DIFFERS' if error else 'agree':8s} {time.perf_counter() - t0:6.1f} s  {name}  {error or ''}", flush=True)
    print(f"{len(cases) - bad} of {len(cases)} presentations agree in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
