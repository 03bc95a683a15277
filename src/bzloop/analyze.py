"""End-to-end structural verification of the presented algebra M(g, h).

The pipeline computes the graded nilpotent quotient M of the finite
presentation R(g, h), censuses its homogeneous dimensions and central
elements against the predicted theta words, forms M / Z_2(M) and compares
it degree-by-degree with the directly constructed loop algebra, and then
evaluates every expansion-conclusion identity (the semantic counterparts
of the binomial-parity claims) inside M.

Every census, theta and vanishing word is v_n followed by a short suffix,
so M evaluates the v_n chain once: `bl.v_word` gives the head v_0 and the
block that takes v_n to v_{n+1}, and the walk over M's action rows records
the (weight, mask) of each v_n and of each tail
v_n y x^{2q-2} (y x^{2q-1})^i.  Each word is then one short walk from a
recorded state (`eval_runs` continued from a prefix).  A family keeps an
instance exactly when its walked weight is within the class bound, so no
family restates its word weight.  Each theta word and its partner are
walked once, from v_start by the suffixes `bl.theta_specs` spells, and
count only if they land in the spec's weight.

Any mismatch becomes a failed check entry in the report, never an
exception.  A table that is no Lie algebra can make `quotient` or the
centralizer sequence refuse its input; the quotient-stage checks then fail
with the refusal as their detail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import eval_runs, graded_center, quotient, second_center
from .bl import (
    BlParams,
    bl_centralizer_sequence,
    bl_constituent_lengths,
    bl_params,
    centralizer_sequence,
    check_CL,
    constituent_lengths,
    construct_bl,
    lambda_admissible,
    presentation_R,
    theta_specs,
    v_word,
)
from .gf2 import echelonize
from .nq import nq_compute
from .words import X, Y


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: a name, a verdict and a short human detail."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


@dataclass(frozen=True)
class CenterEntry:
    """A nonzero central (or second-central) component and its predicted spans."""

    degree: int
    basis_labels: tuple[str, ...]
    matched_theta: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "basis_labels": list(self.basis_labels),
            "matched_theta": [dict(t) for t in self.matched_theta],
        }


@dataclass(frozen=True)
class AnalysisReport:
    params: BlParams
    class_bound: int
    dims: tuple[int, ...]  # degree-indexed; [0] == 0
    centers: tuple[CenterEntry, ...]
    second_center_extras: tuple[CenterEntry, ...]
    quotient_dims: tuple[int, ...]  # degree-indexed; [0] == 0
    quotient_centralizers: tuple[str, ...]  # degrees 2..quotient bound - 1
    quotient_constituents: tuple[int, ...]
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        p = self.params
        return {
            "format": "bl-analysis/1",
            "params": {
                "g": p.g,
                "h": p.h,
                "q": p.q,
                "eta": p.eta,
                "d": p.d,
                "m": p.m,
            },
            "class_bound": self.class_bound,
            "ok": self.ok,
            "dims": list(self.dims[1:]),
            "centers": [e.to_json_dict() for e in self.centers],
            "second_center_extras": [e.to_json_dict() for e in self.second_center_extras],
            "quotient": {
                "class_bound": len(self.quotient_dims) - 1,
                "dims": list(self.quotient_dims[1:]),
                "centralizers": list(self.quotient_centralizers),
                "constituents": list(self.quotient_constituents),
            },
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        p = self.params
        lines = [
            f"analysis of the presented algebra: g={p.g} h={p.h}"
            f" (q={p.q} eta={p.eta} d={p.d} m={p.m})",
            f"class bound {self.class_bound}",
            "dims[1..{}]: {}".format(
                self.class_bound, " ".join(str(v) for v in self.dims[1:])
            ),
            "center weights: " + (
                " ".join(str(e.degree) for e in self.centers) or "(none)"
            ),
            "second-center extra weights: " + (
                " ".join(str(e.degree) for e in self.second_center_extras) or "(none)"
            ),
            "quotient class bound {}; constituents: {}".format(
                len(self.quotient_dims) - 1,
                " ".join(str(v) for v in self.quotient_constituents) or "(none)",
            ),
            f"checks ({len(self.checks)}):",
        ]
        lines.extend(f"  {c}" for c in self.checks)
        if self.ok:
            lines.append("ALL CHECKS PASS")
        else:
            lines.append(f"FAILED: {len(self.failures())} of {len(self.checks)} checks")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render_text()


# -- the analysis pipeline ------------------------------------------------------


def _center_entries(A, rows_by_degree, specs) -> tuple[CenterEntry, ...]:
    """One entry per degree with rows, matched with the specs of that weight."""
    matched: dict[int, list] = {}
    for s in specs:
        matched.setdefault(s.weight, []).append(
            {"kind": s.kind, "n": s.n, "word": str(s.word)}
        )
    return tuple(
        CenterEntry(
            d,
            tuple(str(A.element(d, row)) for row in rows),
            tuple(matched.get(d, ())),
        )
        for d, rows in rows_by_degree
        if rows
    )


def _theta_weight_formula(p: BlParams, kind, n: int) -> int:
    twoq = 2 * p.q
    if kind == "omega":
        return twoq + 2 + p.d * (2 * n + 1)
    if kind == 1:
        return twoq + 1 + p.d * n
    if 2 <= kind <= p.h + 1:
        return twoq + 1 + (twoq - 2 ** (p.h + 2 - kind)) + p.d * n
    i = p.eta - 2 ** (p.g + p.h + 1 - kind)
    return 2 * twoq + twoq * i + twoq - 1 + p.d * n


def _yx(k: int) -> tuple:
    """The runs of y x^k."""
    return ((Y, 1), (X, k))


_X, _Y = ((X, 1),), ((Y, 1),)
_EMPTY = (0, 0)  # the empty word, as (weight, mask)

_QUOTIENT_CHECKS = (
    "quotient-maximal-class",
    "quotient-equals-construction",
    "quotient-centralizer-sequence",
    "quotient-constituents",
)


def _attempt(stage, *args):
    """(stage(*args), "") or, if it refuses its input, (None, the ValueError's text)."""
    try:
        return stage(*args), ""
    except ValueError as exc:
        return None, str(exc)


def analyze(g: int, h: int, class_bound: int | None = None) -> AnalysisReport:
    """Run the full verification pipeline for the pair (g, h).

    The default class bound m + 2d covers the complete defining quotient
    plus two full periods, so every theta family appears at least twice.
    Results are collected as check entries; nothing raises on a mismatch.
    """
    p = bl_params(g, h)
    if class_bound is None:
        class_bound = p.default_bound
    if class_bound < p.m + 2:
        raise ValueError(f"class bound must be at least m + 2 = {p.m + 2}")
    bound = class_bound
    twoq = 2 * p.q

    pres = presentation_R(g, h)
    M = nq_compute(pres, bound)
    specs = theta_specs(g, h, bound)
    central_specs = [s for s in specs if not (s.kind == 1 and s.n % 2 == 1)]
    odd1_specs = [s for s in specs if s.kind == 1 and s.n % 2 == 1]

    checks: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    def family(name: str, instances) -> None:
        """instances: iterable of (label, passed) pairs."""
        fails = []
        total = 0
        for label, passed in instances:
            total += 1
            if not passed:
                fails.append(label)
        if not total:
            check(name, True, "no instances in range")
        elif fails:
            shown = ", ".join(fails[:4]) + (", ..." if len(fails) > 4 else "")
            check(name, False, f"{len(fails)}/{total} failed: {shown}")
        else:
            check(name, True, f"{total} instances")

    action = M.action

    def walk(state, runs):
        """The word `state`, a (weight, mask), continued by the letters of `runs`."""
        weight, mask = state
        weight_after = weight + sum(count for _, count in runs)
        return weight_after, eval_runs(action, runs, bound, mask, weight)

    def words(name: str, instances, nonzero: bool = False) -> None:
        """A family of (label, walked word) pairs.

        An instance is kept iff its word's weight is within the bound; a
        kept word passes iff it is zero (nonzero=True: iff it is not).
        """
        family(
            name,
            ((label, bool(mask) == nonzero) for label, (weight, mask) in instances if weight <= bound),
        )

    # The v_n chain, walked once: v[n] is v_n and tails[n][i] is
    # v_n y x^{2q-2} (y x^{2q-1})^i.  The block that takes v_n to v_{n+1} is
    # a run of (y, x^k) pairs; tail i ends pair i and v_{n+1} ends the last.
    head = v_word(g, h, 0).runs()
    block = v_word(g, h, 1).runs()[len(head):]
    v, tails = [], []
    state = walk(_EMPTY, head)
    while state[0] <= bound:
        v.append(state)
        steps = []
        for j in range(0, len(block), 2):
            state = walk(state, block[j:j + 2])
            steps.append(state)
        tails.append(steps[:-1])

    # (1) relators impose zero, and dims follow the 1 + theta-multiplicity law.
    words("relators-vanish", ((str(r), walk(_EMPTY, r.runs())) for r in pres.relators))

    spec_count = Counter(s.weight for s in specs)
    dims_ok = M.dim(1) == 2 and all(
        M.dim(w) == 1 + spec_count[w] for w in range(2, bound + 1)
    )
    check(
        "dims-pattern",
        dims_ok,
        f"dims[2..{bound}] equal 1 + theta multiplicity, dims[1] = 2",
    )

    # First constituent: y kills every component below weight 2q.
    family(
        "first-constituent",
        (
            (
                f"[y x^{j} y] != 0" if j == twoq - 1 else f"[y x^{j} y] = 0",
                bool(walk(_EMPTY, _yx(j) + _Y)[1]) == (j == twoq - 1),
            )
            for j in range(1, twoq)
        ),
    )

    words("v-words-nonzero", ((f"v_{n}", s) for n, s in enumerate(v)), nonzero=True)

    # (2)-(3) theta words: weights, non-vanishing, centrality, exact census.
    def at_weight(s, suffix):
        """The mask of v_{s.start} then `suffix`, or None unless it has weight s.weight."""
        weight, mask = walk(v[s.start], suffix.runs())
        return mask if weight == s.weight else None

    theta = {(s.kind, s.n): at_weight(s, s.suffix) for s in specs}

    family(
        "theta-weight-formulas",
        (
            (
                f"theta^{s.kind}_{s.n}",
                s.weight == s.word.weight == _theta_weight_formula(p, s.kind, s.n),
            )
            for s in specs
        ),
    )

    family(
        "theta-words-nonzero",
        ((f"theta^{s.kind}_{s.n}", bool(theta[s.kind, s.n])) for s in specs),
    )

    Z = graded_center(M)
    Z2 = second_center(M, Z)

    def central_instances():
        for s in central_specs:
            if s.weight > Z.valid_up_to:
                continue
            mask = theta[s.kind, s.n]
            ok = (
                mask is not None
                and Z.at(s.weight).contains(mask)
                and not M.act_mask(s.weight, mask, X)
                and not M.act_mask(s.weight, mask, Y)
            )
            yield f"theta^{s.kind}_{s.n}", ok

    family("theta-words-central", central_instances())

    predicted_central = Counter(s.weight for s in central_specs)
    check(
        "center-census",
        all(
            Z.dim(w) == predicted_central[w]
            for w in range(1, Z.valid_up_to + 1)
        ),
        f"center ranks match predictions for degrees 1..{Z.valid_up_to}",
    )

    check(
        "second-center-census",
        all(
            Z2.dim(w) == spec_count[w]
            for w in range(1, Z2.valid_up_to + 1)
        ),
        f"second-center ranks match predictions for degrees 1..{Z2.valid_up_to}",
    )

    def odd1_instances():
        for s in odd1_specs:
            if s.weight > Z2.valid_up_to:
                continue
            mask = theta[1, s.n]
            ok = (
                mask is not None
                and Z2.at(s.weight).contains(mask)
                and not Z.at(s.weight).contains(mask)
                and not M.act_mask(s.weight, mask, X)
                and M.act_mask(s.weight, mask, Y) == theta["omega", (s.n - 1) // 2] != 0
            )
            yield f"theta^1_{s.n}", ok

    family("theta1-odd-second-central", odd1_instances())

    # (4) the quotient by the second center is the loop algebra on the nose.
    # On a table that is no Lie algebra, quotient or the centralizer sequence
    # may refuse its input; the checks of this stage still to come then fail
    # with the refusal as their detail.
    first = len(checks)
    Q, error = _attempt(quotient, M, Z2)
    cents = None
    if Q is not None:
        B = construct_bl(g, h, Q.class_bound)
        check(
            "quotient-maximal-class",
            Q.dim(1) == 2
            and all(Q.dim(d) == 1 for d in range(2, Q.class_bound + 1)),
            f"quotient dims are 1 in degrees 2..{Q.class_bound}",
        )
        check(
            "quotient-equals-construction",
            Q == B,
            "basis chain and action tables agree degree-wise",
        )
        cents, error = _attempt(centralizer_sequence, Q)
    consts = ()
    if cents is not None:
        expected_cents = bl_centralizer_sequence(g, h, Q.class_bound - 1)
        check(
            "quotient-centralizer-sequence",
            cents == expected_cents,
            f"degrees 2..{Q.class_bound - 1}",
        )
        consts = constituent_lengths(cents)
        expected_consts = bl_constituent_lengths(g, h, len(consts))
        check(
            "quotient-constituents",
            consts == expected_consts and check_CL(consts, g, h),
            " ".join(str(v) for v in consts),
        )
    for name in _QUOTIENT_CHECKS[len(checks) - first:]:
        check(name, False, error)

    # Two-dimensional components are spanned by the theta word and its partner.
    def spanned_instances():
        for s in specs:
            pair = [at_weight(s, s.partner), theta[s.kind, s.n]]
            yield (
                f"weight {s.weight}",
                None not in pair and echelonize(pair, M.dim(s.weight)).rank == 2 == M.dim(s.weight),
            )

    family("two-dim-components-spanned", spanned_instances())

    # Census chain generators of the one- and two-dimensional slots all survive.
    def census_words():
        for n, start in enumerate(v):
            for k in range(twoq - 1):
                yield f"[v_{n} y x^{k}]", walk(start, _yx(k))
            for i, tail in enumerate(tails[n]):
                for k in range(twoq):
                    if i == p.eta - 1 and k >= twoq - 2:
                        continue  # the period boundary: v_{n+1} and theta^1
                    label = f"[v_{n} y x^{twoq - 2} (y x^{twoq - 1})^{i} y x^{k}]"
                    yield label, walk(tail, _yx(k))

    words("census-chain-nonzero", census_words(), nonzero=True)

    # (5) expansion conclusions: the vanishing families.
    def v_then(name: str, text: str, suffix, step: int = 1) -> None:
        words(name, ((f"[v_{n} {text}]", walk(v[n], suffix)) for n in range(0, len(v), step)))

    v_then("v-yy-vanishes", "y y", ((Y, 2),))
    v_then("v-xx-vanishes", "x x", ((X, 2),))
    v_then("v-xy-even-vanishes", "x y", _X + _Y, step=2)
    if p.q > 2:
        v_then("v-yxy-vanishes", "y x y", _yx(1) + _Y)

    words(
        "xi-family-vanishes",
        (
            (f"[v_{n} y x^{twoq - 2} (y x^{twoq - 1})^{i} x]", walk(tail, _X))
            for n, row in enumerate(tails)
            for i, tail in enumerate(row)
        ),
    )
    words(
        "short-k-family-vanishes",
        (
            (
                f"[v_{n} y x^{twoq - 2} y x^{twoq - 2 ** s - 1} y]",
                walk(start, _yx(twoq - 2) + _yx(twoq - 2 ** s - 1) + _Y),
            )
            for n, start in enumerate(v)
            for s in range(1, p.h + 1)
        ),
    )
    words(
        "long-k-family-vanishes",
        (
            (
                f"[v_{n} ... (y x^{twoq - 1})^{i} y x^{twoq - 2 ** s - 1} y]",
                walk(row[i], _yx(twoq - 2 ** s - 1) + _Y),
            )
            for n, row in enumerate(tails)
            for i in range(1, p.eta)
            for s in range(1, p.h + 1)
            if not (i == p.eta - 1 and s == 1)
        ),
    )
    words(
        "mu-lambda-family-vanishes",
        (
            (
                f"[v_{n} ... (y x^{twoq - 1})^{i} y x^{twoq - 2} y]",
                walk(row[i], _yx(twoq - 2) + _Y),
            )
            for n, row in enumerate(tails)
            for i in lambda_admissible(p)
        ),
    )

    # Assemble the report.
    centers = _center_entries(
        M, ((d, Z.at(d).row_bits()) for d in range(1, Z.valid_up_to + 1)), central_specs
    )
    extras = _center_entries(
        M,
        (
            (d, [r for r in Z2.at(d).row_bits() if not Z.at(d).contains(r)])
            for d in range(1, Z2.valid_up_to + 1)
        ),
        odd1_specs,
    )
    return AnalysisReport(
        params=p,
        class_bound=bound,
        dims=M.dims,
        centers=centers,
        second_center_extras=extras,
        quotient_dims=Q.dims if Q is not None else (0,),
        quotient_centralizers=cents if cents is not None else (),
        quotient_constituents=consts,
        checks=tuple(checks),
    )
