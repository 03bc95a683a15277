"""Command-line front end for the loop-algebra verification toolkit.

Every report starts with the derived parameters (q, eta, d, m) so text
output is self-describing.  Exit codes: 0 when all requested checks pass
or plain output was produced, 1 when a verification check failed, 2 on
usage or parse errors, on input past the limits below, on a ``--json``
path that cannot be opened for writing (found before any work starts) and
on any internal error (reported as an ``error:`` line, never a traceback).
An analysis that refuses its input or fails leaves the ``--json`` path as
it found it: it creates no file, and an old file keeps its bytes.
JSON output is byte-deterministic: stable key order, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analyze import analyze
from .bl import bl_params, construct_bl, presentation_R
from .char2 import (
    binom_mod2,
    check_Q,
    identity_I_check,
    identity_I_expected,
    lucas_row,
    pascal_row,
    verify_appendix,
)
from .nq import nq_compute, nq_eval
from .words import parse_word


# Input limits, checked before any other work.  Each bounds the work one flag
# can ask for while keeping the stretch range g + h = 10 in reach: there the
# default class bound m + 2d is at most 6652 (at g = 2, h = 8), and `analyze`
# takes under 2 s and at most about 80 MB (at g = 9, h = 1) at each such pair.
# At the class limit, `nq --class 6652` on (2, 1) takes about 21 s and peaks
# near 70 MB (CPython 3.11, 2-core VM).  `eval` runs `nq_eval`, which cuts the
# quotient once, up to its word's weight, so MAX_CLASS bounds that weight too.
# It stops at the first zero prefix, so only a word with no zero prefix pays
# for the whole run: one of weight 6640 takes about 20 s on (2, 1), while
# `y x^6651` is 0 at once.
# The parity sweeps are sized so the largest allowed run takes a few
# seconds: binom is quadratic in --check-max, identity-i about
# s_max^2 * Q^2 / 2 binomials.
MAX_GH = 10  # largest g + h, for --g/--h and verify-appendix --gh-max
MIN_GH = 3  # least g + h (g >= 2, h >= 1), the least verify-appendix --gh-max
MAX_CLASS = 6652  # largest --class, and largest weight of an eval --word
MAX_BINOM_ROW = 4096  # largest binom --check-max
MAX_Q = 64  # largest identity-i --Q
MAX_S = 64  # largest identity-i --s-max


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bzloop",
        description="graded Lie algebra computations over GF(2): "
        "nilpotent quotients, loop-algebra construction, parity suites",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def with_gh(sp, class_flag: bool):
        sp.add_argument("--g", type=int, required=True)
        sp.add_argument("--h", type=int, required=True)
        if class_flag:
            sp.add_argument(
                "--class",
                dest="class_bound",
                type=int,
                default=None,
                help="class bound (default: m + 2d)",
            )

    with_gh(sub.add_parser("present", help="print the defining relators"), False)
    with_gh(sub.add_parser("nq", help="nilpotent quotient dims and basis"), True)
    sp = sub.add_parser("analyze", help="full structural verification")
    with_gh(sp, True)
    sp.add_argument("--json", dest="json_path", default=None, metavar="PATH")
    with_gh(sub.add_parser("construct", help="direct loop-algebra table"), True)
    sp = sub.add_parser("eval", help="evaluate a word in the presented algebra")
    with_gh(sp, False)
    sp.add_argument("--word", required=True)
    sp = sub.add_parser("verify-appendix", help="all binomial parity claims")
    sp.add_argument("--gh-max", type=int, default=6, dest="gh_max")
    sp = sub.add_parser("binom", help="binomial parity vs. the Pascal oracle")
    sp.add_argument("--check-max", type=int, default=1024, dest="check_max")
    sp = sub.add_parser("identity-i", help="sweep the telescoping identity")
    sp.add_argument("--Q", type=int, required=True)
    sp.add_argument("--s-max", type=int, default=4, dest="s_max")
    return parser


def _check_limits(ns: argparse.Namespace) -> None:
    """Raise ValueError if a flag asks for more than the input limits allow.

    A --Q that is not a power of two >= 2, a negative count and a --gh-max
    below 3 are refused too: the sweeps would run no instance and still
    report a pass.
    """
    g, h = getattr(ns, "g", None), getattr(ns, "h", None)
    if g is not None and h is not None and g + h > MAX_GH:
        raise ValueError(f"g + h = {g + h} is above the limit {MAX_GH}")
    gh_max = getattr(ns, "gh_max", None)
    if gh_max is not None:
        if gh_max < MIN_GH:
            raise ValueError(f"--gh-max {gh_max} is below {MIN_GH}, the least g + h")
        if gh_max > MAX_GH:
            raise ValueError(f"--gh-max {gh_max} is above the limit {MAX_GH}")
    class_bound = getattr(ns, "class_bound", None)
    if class_bound is not None and class_bound > MAX_CLASS:
        raise ValueError(f"--class {class_bound} is above the limit {MAX_CLASS}")
    if getattr(ns, "word", None) is not None:
        # eval cuts the quotient up to the word's weight; the message leaves the
        # weight out, since it can have more digits than `str` may print
        if parse_word(ns.word).weight > MAX_CLASS:
            raise ValueError(f"word weight is above the limit {MAX_CLASS}")
    if getattr(ns, "Q", None) is not None:
        check_Q(ns.Q)
        if ns.Q > MAX_Q:
            raise ValueError(f"--Q {ns.Q} is above the limit {MAX_Q}")
    for flag, value, limit in (
        ("--s-max", getattr(ns, "s_max", None), MAX_S),
        ("--check-max", getattr(ns, "check_max", None), MAX_BINOM_ROW),
    ):
        if value is None:
            continue
        if value < 0:
            raise ValueError(f"{flag} {value} is negative")
        if value > limit:
            raise ValueError(f"{flag} {value} is above the limit {limit}")


def _header(p) -> str:
    return f"g={p.g} h={p.h}: q={p.q} eta={p.eta} d={p.d} m={p.m}"


def _bound(ns: argparse.Namespace, p) -> int:
    return ns.class_bound if ns.class_bound is not None else p.default_bound


def _cmd_present(ns: argparse.Namespace) -> int:
    p = bl_params(ns.g, ns.h)
    print(_header(p))
    for rel in presentation_R(ns.g, ns.h).relators:
        print(rel)
    return 0


def _cmd_nq(ns: argparse.Namespace) -> int:
    p = bl_params(ns.g, ns.h)
    bound = _bound(ns, p)
    M = nq_compute(presentation_R(ns.g, ns.h), bound)
    print(_header(p))
    print(f"class bound {bound}")
    print("dims:", " ".join(str(M.dim(d)) for d in range(1, bound + 1)))
    for d in range(1, bound + 1):
        print(f"{d}: " + ", ".join(M.labels[d]))
    return 0


def _cmd_analyze(ns: argparse.Namespace) -> int:
    p = bl_params(ns.g, ns.h)
    path = ns.json_path
    created = bool(path) and not os.path.lexists(path)
    if path:
        # opened for appending, which writes nothing, so a path that cannot be written costs no work
        open(path, "a", encoding="utf-8").close()
    try:
        report = analyze(ns.g, ns.h, _bound(ns, p))
    except BaseException:
        if created:  # a run that fails leaves no file behind, and an old file as it was
            os.remove(path)
        raise
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    print(report.render_text())
    return 0 if report.ok else 1


def _cmd_construct(ns: argparse.Namespace) -> int:
    p = bl_params(ns.g, ns.h)
    bound = _bound(ns, p)
    B = construct_bl(ns.g, ns.h, bound)
    print(_header(p))
    print(f"class bound {bound}")
    for d in range(1, bound + 1):
        for k, label in enumerate(B.labels[d]):
            bx, by = (B.element(d + 1, B.act_index(d, k, gi)) for gi in (0, 1))
            print(f"{d}: {label} | [.,x] = {bx} | [.,y] = {by}")
    return 0


def _cmd_eval(ns: argparse.Namespace) -> int:
    print(nq_eval(presentation_R(ns.g, ns.h), parse_word(ns.word)))
    return 0


def _cmd_verify_appendix(ns: argparse.Namespace) -> int:
    pairs = [
        (g, h)
        for total in range(MIN_GH, ns.gh_max + 1)
        for g in range(2, total)
        for h in (total - g,)
        if h >= 1
    ]
    grand_total = 0
    grand_failed = 0
    for g, h in pairs:
        claims = verify_appendix(g, h)
        failed = [c for c in claims if not c.ok]
        grand_total += len(claims)
        grand_failed += len(failed)
        print(f"g={g} h={h}: {len(claims) - len(failed)}/{len(claims)} claims pass")
        shown = claims if ns.verbose else failed
        for c in shown:
            print(f"  {c}")
    print(f"total: {grand_total - grand_failed}/{grand_total} claims pass")
    if grand_failed:
        print(f"FAILED: {grand_failed} claims")
        return 1
    print("ALL CLAIMS PASS")
    return 0


def _cmd_binom(ns: argparse.Namespace) -> int:
    n_max = ns.check_max
    bad = []
    for n in range(n_max + 1):
        row = pascal_row(n)
        if lucas_row(n) != row:
            bad.append(("lucas_row", n))
        for k in range(n + 1):
            if binom_mod2(n, k) != (row >> k) & 1:
                bad.append(("binom_mod2", n, k))
    print(f"rows 0..{n_max}: per-entry Lucas and submask rows vs. Pascal recurrence")
    if bad:
        print(f"FAILED: {len(bad)} mismatches, first: {bad[0]}")
        return 1
    print("ALL ENTRIES AGREE")
    return 0


def _cmd_identity_i(ns: argparse.Namespace) -> int:
    Q, s_max = ns.Q, ns.s_max
    mismatches = 0
    corner = 0
    total = 0
    for s in range(s_max + 1):
        for r in range(Q - 1):
            for k in range(Q - 1):
                total += 1
                lhs, classical = identity_I_check(Q, s, r, k)
                if lhs != identity_I_expected(Q, s, r, k):
                    mismatches += 1
                if lhs != classical:
                    corner += 1
    print(f"Q={Q}, s<=s_max={s_max}, 0<=r,k<=Q-2: {total} instances")
    print(f"corner deviations from the uncorrected law (r=0, s>=1): {corner}")
    if mismatches:
        print(f"FAILED: {mismatches} instances disagree with the corrected law")
        return 1
    print("ALL INSTANCES MATCH THE CORRECTED LAW")
    return 0


_COMMANDS = {
    "present": _cmd_present,
    "nq": _cmd_nq,
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "eval": _cmd_eval,
    "verify-appendix": _cmd_verify_appendix,
    "binom": _cmd_binom,
    "identity-i": _cmd_identity_i,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_limits(ns)
        return _COMMANDS[ns.subcommand](ns)
    except (ValueError, OSError) as exc:  # bad input, or a path the user named
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal fault: reported, never a traceback
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
