"""Command-line front end for the loop-algebra verification toolkit.

Every report starts with the derived parameters (q, eta, d, m) so text
output is self-describing.  Exit codes: 0 when all requested checks pass
or plain output was produced, 1 when a verification check failed, 2 on
usage or parse errors.  JSON output is byte-deterministic: stable key
order, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .analyze import analyze
from .bl import bl_params, construct_bl, presentation_R
from .char2 import (
    binom_mod2,
    identity_I_check,
    identity_I_expected,
    lucas_row,
    pascal_row,
    verify_appendix,
)
from .nq import nq_compute
from .words import WordSyntaxError, parse_word


@dataclass
class CliConfig:
    """Parsed invocation: one subcommand plus its knobs."""

    subcommand: str
    g: int | None = None
    h: int | None = None
    class_bound: int | None = None
    json_path: str | None = None
    word: str | None = None
    gh_max: int = 6
    check_max: int = 1024
    Q: int = 4
    s_max: int = 4
    verbosity: int = 0


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


def _config(ns: argparse.Namespace) -> CliConfig:
    cfg = CliConfig(subcommand=ns.subcommand, verbosity=ns.verbose)
    for name in ("g", "h", "class_bound", "json_path", "word", "gh_max", "check_max", "s_max", "Q"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    return cfg


def _header(p) -> str:
    return f"g={p.g} h={p.h}: q={p.q} eta={p.eta} d={p.d} m={p.m}"


def _bound(cfg: CliConfig, p) -> int:
    return cfg.class_bound if cfg.class_bound is not None else p.m + 2 * p.d


def _element_text(v) -> str:
    return " + ".join(v.labels()) if v.bits else "0"


def _cmd_present(cfg: CliConfig) -> int:
    p = bl_params(cfg.g, cfg.h)
    print(_header(p))
    for rel in presentation_R(p).relators:
        print(rel)
    return 0


def _cmd_nq(cfg: CliConfig) -> int:
    p = bl_params(cfg.g, cfg.h)
    bound = _bound(cfg, p)
    M = nq_compute(presentation_R(p), bound)
    print(_header(p))
    print(f"class bound {bound}")
    print("dims:", " ".join(str(M.dim(d)) for d in range(1, bound + 1)))
    for d in range(1, bound + 1):
        print(f"{d}: " + ", ".join(e.label for e in M.basis_at(d)))
    return 0


def _cmd_analyze(cfg: CliConfig) -> int:
    p = bl_params(cfg.g, cfg.h)
    report = analyze(p, class_bound=_bound(cfg, p))
    if cfg.json_path:
        payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
        with open(cfg.json_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    print(report.render_text())
    return 0 if report.ok else 1


def _cmd_construct(cfg: CliConfig) -> int:
    p = bl_params(cfg.g, cfg.h)
    bound = _bound(cfg, p)
    B = construct_bl(p, class_bound=bound)
    print(_header(p))
    print(f"class bound {bound}")
    for d in range(1, bound + 1):
        for e in B.basis_at(d):
            bx = _element_text(B.bracket_gen(B.element(d, 1 << e.index), "x"))
            by = _element_text(B.bracket_gen(B.element(d, 1 << e.index), "y"))
            print(f"{d}: {e.label} | [.,x] = {bx} | [.,y] = {by}")
    return 0


def _cmd_eval(cfg: CliConfig) -> int:
    p = bl_params(cfg.g, cfg.h)
    word = parse_word(cfg.word)
    bound = max(2, word.weight)
    M = nq_compute(presentation_R(p), bound)
    print(_element_text(M.eval_word(word)))
    return 0


def _cmd_verify_appendix(cfg: CliConfig) -> int:
    pairs = [
        (g, h)
        for total in range(3, cfg.gh_max + 1)
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
        shown = claims if cfg.verbosity else failed
        for c in shown:
            print(f"  {c}")
    print(f"total: {grand_total - grand_failed}/{grand_total} claims pass")
    if grand_failed:
        print(f"FAILED: {grand_failed} claims")
        return 1
    print("ALL CLAIMS PASS")
    return 0


def _cmd_binom(cfg: CliConfig) -> int:
    n_max = cfg.check_max
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


def _cmd_identity_i(cfg: CliConfig) -> int:
    Q, s_max = cfg.Q, cfg.s_max
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
    cfg = _config(ns)
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except (ValueError, WordSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
