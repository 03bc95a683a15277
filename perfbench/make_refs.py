"""Regenerate refs.json, the reference digests the benchmark checks outputs against.

Run from the repository root:

    python3 perfbench/make_refs.py

Runs every ladder and desk-gate operation once on the package in ./src and
records the sha256 of each report and table that passes its checks.  An
operation that raises gets no reference.  Regenerate only for a change that
is meant to alter the bytes of a report or a table.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.import_bzloop()
    run.OUT.mkdir(exist_ok=True)
    refs: dict = {"commit": run.git_commit()}
    for name in ("ladder", "desk-gate"):
        work = workloads.build(name, mods, 0, {}, run.OUT)
        for op in work.ops:
            try:
                out = op.run()
            except Exception as exc:  # the op stays without a reference
                print(f"{op.name}: {type(exc).__name__}, no reference")
                continue
            error = op.check(out)
            if error:
                print(f"{op.name}: {error}", file=sys.stderr)
                return 1
        work.final()
        for (fmt, key), digest in work.digests.items():
            refs.setdefault(fmt, {})[key] = digest
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFS_PATH.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
