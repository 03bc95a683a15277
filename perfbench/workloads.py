"""Workloads of the bzloop benchmark: inputs, operations and output checks.

An operation certifies one graded table up to its class bound and credits
that many degrees when its output checks out.  Every operation calls the
package through module attributes at call time (``mods.nq.nq_compute``), so
the traced run sees the same calls through its layer wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFS_PATH = Path(__file__).with_name("refs.json")

# The ladder rungs past the desk triples, at their default bounds m + 2d.
# (5,2) is left out: one op of several seconds would dominate the pass.
LADDER = ((4, 1), (3, 2), (5, 1), (4, 2))
DESK = ((2, 1), (3, 1), (2, 2))
APPENDIX_PAIRS = tuple((g, h) for g in range(2, 6) for h in range(1, 6) if g + h <= 6)
APPENDIX_CLAIMS = 1042
BINOM_MAX = 4096
ORACLE_CLASS = 12
WIDE_CLASS = 14  # ORACLE_MAX_CLASS: the largest class the oracle accepts
# Relator lengths of the 16 wide-nq presentations.  The seed draws only the
# letters, so the work per pass stays close between seeds.  Lengths are 5-7:
# a relator of length 3 or 4 collapses the algebra to a few hundred
# dimensions, adds almost no nq work and makes the oracle check the slowest
# part of the run (desk-gate's class-12 presentations keep lengths 2-6).
WIDE_SHAPES = (
    (7,), (7,), (6,), (5,), (7, 7), (7, 7), (6, 7), (5, 7),
    (6, 6), (5, 6), (7, 7, 7), (6, 7, 7), (5, 6, 7), (6, 6, 7), (5, 7, 7), (6, 6, 6),
)


@dataclass
class Op:
    """One timed operation; `check` returns None when the output is right."""

    name: str
    credit: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    # Untimed work before the passes, e.g. reference dimensions from the oracle.
    prepare: Callable[[], None] = lambda: None
    # Untimed checks after the passes; returns the errors found.
    final: Callable[[], list[str]] = lambda: []
    # (format, key) -> sha256 of the byte form, filled in by the checks.
    digests: dict[tuple[str, str], str] = field(default_factory=dict)


def json_bytes(doc: dict) -> bytes:
    """The byte form the CLI writes for a JSON report."""
    return (json.dumps(doc, indent=2) + "\n").encode()


def _digest_check(w: Workload, refs: dict, fmt: str, key: str, data: bytes) -> str | None:
    """Record the digest of `data`; compare it with the reference if there is one."""
    got = hashlib.sha256(data).hexdigest()
    w.digests[(fmt, key)] = got
    want = refs.get(fmt, {}).get(key)
    if want is not None and got != want:
        return f"{fmt} {key}: sha256 {got[:12]} differs from reference {want[:12]}"
    return None


def _default_bound(mods, g: int, h: int) -> int:
    p = mods.bl.bl_params(g, h)
    return p.m + 2 * p.d


def _analyze_op(mods, w: Workload, refs: dict, g: int, h: int, bound: int) -> Op:
    key = f"analyze({g},{h})@{bound}"

    def check(report) -> str | None:
        if not report.ok:
            return f"{key}: failed checks " + ", ".join(c.name for c in report.failures())
        return _digest_check(w, refs, "bl-analysis/1", key, json_bytes(report.to_json_dict()))

    return Op(key, bound, lambda: mods.analyze.analyze(g, h, class_bound=bound), check)


def _table_check(w: Workload, refs: dict, key: str, table) -> str | None:
    return _digest_check(w, refs, "graded-algebra/1", key, json_bytes(table.to_json_dict()))


def _jacobi_ops(mods, w: Workload, refs: dict, g: int, h: int) -> list[Op]:
    """Build M, Q = M / Z_2(M) and B for one desk triple and check Jacobi on each."""
    c = _default_bound(mods, g, h)
    tables: dict = {}

    def build_m():
        tables.clear()
        return mods.nq.nq_compute(mods.bl.presentation_R(g, h), c)

    def build_q():
        M = tables["M"]
        return mods.algebra.quotient(M, mods.algebra.second_center(M))

    def build_b():
        return mods.bl.construct_bl(g, h, c)

    def op(kind: str, build, bound: int) -> Op:
        key = f"{kind}({g},{h})@{bound}"

        def run():
            table = tables[kind] = build()
            return table, mods.algebra.jacobi_check(table)

        def check(out) -> str | None:
            table, report = out
            if not report.ok:
                return f"jacobi {key}: {len(report.failures)} failing triples"
            return _table_check(w, refs, key, table)

        return Op(f"jacobi {key}", bound, run, check)

    return [op("M", build_m, c), op("Q", build_q, c - 2), op("B", build_b, c)]


def _oracle_op(mods, name: str, relators: tuple, bound: int) -> Op:
    def run():
        dims = mods.nq.nq_compute(mods.nq.Presentation(relators), bound).dims
        return dims, mods.oracle.free_nq_oracle(relators, bound)

    def check(out) -> str | None:
        dims, want = out
        return None if dims == want else f"{name}: dims {dims} differ from the oracle's {want}"

    return Op(name, bound, run, check)


def _random_word(mods, rng: random.Random, length: int, distinct_head: bool):
    """A random left-normed x/y word; with distinct_head it is nonzero in the free algebra."""
    X, Y = mods.words.X, mods.words.Y
    while True:
        letters = [rng.choice((X, Y)) for _ in range(length)]
        if not distinct_head or letters[0] is not letters[1]:
            return mods.words.word_from_letters(letters)


def ladder(mods, seed: int, refs: dict) -> Workload:
    """analyze at the default bound on the rungs past the desk triples."""
    w = Workload([])
    bounds = {pair: _default_bound(mods, *pair) for pair in LADDER}
    w.ops = [_analyze_op(mods, w, refs, g, h, bounds[g, h]) for g, h in LADDER]

    def final() -> list[str]:
        # The tables behind each report, compared byte for byte.  Q and B are
        # built exactly as analyze builds them; their equality is what crashes.
        errors = []
        for g, h in LADDER:
            c = bounds[g, h]
            M = mods.nq.nq_compute(mods.bl.presentation_R(g, h), c)
            Q = mods.algebra.quotient(M, mods.algebra.second_center(M))
            B = mods.bl.construct_bl(g, h, Q.class_bound)
            for kind, table in (("M", M), ("Q", Q), ("B", B)):
                error = _table_check(w, refs, f"{kind}({g},{h})@{table.class_bound}", table)
                if error:
                    errors.append(error)
        return errors

    w.final = final
    return w


def desk_gate(mods, seed: int, refs: dict, out_dir: Path) -> Workload:
    """The computational work of acceptance criteria 1, 3, 5, 6, 7 and 9."""
    w = Workload([])
    for g, h in DESK:
        w.ops.append(_analyze_op(mods, w, refs, g, h, _default_bound(mods, g, h)))
    w.ops.append(_analyze_op(mods, w, refs, 2, 1, 50))
    for g, h in DESK:
        w.ops.extend(_jacobi_ops(mods, w, refs, g, h))

    rng = random.Random(seed)
    w.ops.append(_oracle_op(mods, "oracle R(2,1)", mods.bl.presentation_R(2, 1).relators, ORACLE_CLASS))
    w.ops.append(_oracle_op(mods, "oracle free", (), ORACLE_CLASS))
    for k in range(10):
        relators = tuple(
            _random_word(mods, rng, rng.randint(2, 6), distinct_head=False)
            for _ in range(rng.randint(1, 3))
        )
        w.ops.append(_oracle_op(mods, f"oracle random #{k}", relators, ORACLE_CLASS))

    def binom_run():
        char2 = mods.char2
        return [n for n in range(BINOM_MAX + 1) if char2.lucas_row(n) != char2.pascal_row(n)]

    w.ops.append(Op(
        f"binomial rows 0..{BINOM_MAX}", 0, binom_run,
        lambda bad: f"Lucas and Pascal rows differ at n = {bad[:4]}" if bad else None,
    ))

    def appendix_run():
        return [c for g, h in APPENDIX_PAIRS for c in mods.char2.verify_appendix(g, h)]

    def appendix_check(claims) -> str | None:
        bad = [str(c) for c in claims if not c.ok]
        if bad or len(claims) != APPENDIX_CLAIMS:
            return f"appendix: {len(bad)} of {len(claims)} claims fail (want {APPENDIX_CLAIMS} passing)"
        return None

    w.ops.append(Op("verify_appendix g+h<=6", 0, appendix_run, appendix_check))

    json_path = out_dir / "cli-analyze-2-1.json"
    argv = ["analyze", "--g", "2", "--h", "1", "--json", str(json_path)]

    def cli_run():
        json_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return mods.cli.run(argv)

    def cli_check(code) -> str | None:
        if code != 0:
            return f"cli analyze exited with {code}"
        return _digest_check(w, refs, "cli", "analyze --g 2 --h 1 --json", json_path.read_bytes())

    w.ops.append(Op("cli analyze --g 2 --h 1 --json", _default_bound(mods, 2, 1), cli_run, cli_check))
    return w


def wide_nq(mods, seed: int, refs: dict) -> Workload:
    """nq_compute and graded_center on 16 random presentations at the oracle's class."""
    w = Workload([])
    rng = random.Random(seed)
    presentations = [
        tuple(_random_word(mods, rng, n, distinct_head=True) for n in shape)
        for shape in WIDE_SHAPES
    ]
    oracle_dims: dict[int, tuple] = {}
    center_ranks: dict[int, tuple] = {}
    echelonize = mods.gf2.echelonize  # bound now, so the check stays out of the traced spans

    def prepare():
        for k, relators in enumerate(presentations):
            oracle_dims[k] = mods.oracle.free_nq_oracle(relators, WIDE_CLASS)

    def op(k: int, relators: tuple) -> Op:
        name = f"nq+center #{k} [{'; '.join(str(r) for r in relators)}]"

        def run():
            M = mods.nq.nq_compute(mods.nq.Presentation(relators), WIDE_CLASS)
            return M, mods.algebra.graded_center(M)

        def check(out) -> str | None:
            M, Z = out
            if M.dims != oracle_dims[k]:
                return f"#{k}: dims {M.dims} differ from the oracle's {oracle_dims[k]}"
            ranks = tuple(Z.dim(d) for d in range(1, Z.valid_up_to + 1))
            if k not in center_ranks:
                error = _center_error(echelonize, M, Z)
                if error:
                    return f"#{k}: {error}"
                center_ranks[k] = ranks
            elif ranks != center_ranks[k]:
                return f"#{k}: centre ranks {ranks} changed from {center_ranks[k]}"
            return _table_check(w, refs, f"wide #{k}@{WIDE_CLASS}", M)

        return Op(name, WIDE_CLASS, run, check)

    w.ops = [op(k, relators) for k, relators in enumerate(presentations)]
    w.prepare = prepare
    return w


def _center_error(echelonize, M, Z) -> str | None:
    """The centre is exactly the kernel of v -> ([v,x], [v,y]) in each valid degree."""
    for d in range(1, Z.valid_up_to + 1):
        for row in Z.at(d).row_bits():
            if M.act_mask(d, row, "x") or M.act_mask(d, row, "y"):
                return f"degree {d}: a centre vector does not commute with x and y"
        width = M.dim(d + 1)
        images = [M.act_index(d, i, 0) | M.act_index(d, i, 1) << width for i in range(M.dim(d))]
        rank = echelonize(images, 2 * width).rank
        if Z.dim(d) != M.dim(d) - rank:
            return f"degree {d}: centre rank {Z.dim(d)} is not dim - rank = {M.dim(d) - rank}"
    return None


NAMES = ("ladder", "desk-gate", "wide-nq")


def build(name: str, mods, seed: int, refs: dict, out_dir: Path) -> Workload:
    if name == "ladder":
        return ladder(mods, seed, refs)
    if name == "desk-gate":
        return desk_gate(mods, seed, refs, out_dir)
    if name == "wide-nq":
        return wide_nq(mods, seed, refs)
    raise ValueError(f"unknown workload {name!r}")
