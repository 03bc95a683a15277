"""End-to-end structural verification of the presented algebra M(g, h).

The pipeline computes the graded nilpotent quotient M of the finite
presentation R(g, h), censuses its homogeneous dimensions and central
elements against the predicted theta words, forms M / Z_2(M) and compares
it degree-by-degree with the directly constructed loop algebra, and then
evaluates every expansion-conclusion identity (the semantic counterparts
of the binomial-parity claims) inside M.  Any mismatch becomes a failed
check entry in the report, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedAlgebra, graded_center, quotient, second_center
from .bl import (
    BlParams,
    _params,
    _v_parts,
    bl_centralizer_sequence,
    bl_constituent_lengths,
    centralizer_sequence,
    check_CL,
    constituent_lengths,
    construct_bl,
    lambda_admissible,
    presentation_R,
    theta_specs,
    theta_word,
    v_word,
)
from .gf2 import echelonize, iter_bits
from .nq import nq_compute
from .words import GenPower, GroupPower, X, Y, make_word


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


# -- word builders for the census families -------------------------------------


def _tail_parts(p: BlParams, n: int, i: int) -> tuple:
    """Prefix [v_n y x^{2q-2} (y x^{2q-1})^i] shared by the tail-census words."""
    parts = _v_parts(p, n) + (Y, GenPower(X, 2 * p.q - 2))
    if i:
        parts += (GroupPower((Y, GenPower(X, 2 * p.q - 1)), i),)
    return parts


def _tail_gen_word(p: BlParams, n: int, i: int, k: int):
    """Census generator [v_n y x^{2q-2} (y x^{2q-1})^i y x^k]."""
    parts = _tail_parts(p, n, i) + (Y,)
    if k:
        parts += (GenPower(X, k),)
    return make_word(*parts)


def _window_gen_word(p: BlParams, n: int, k: int):
    """Census generator [v_n y x^k] of the first window past v_n."""
    parts = _v_parts(p, n) + (Y,)
    if k:
        parts += (GenPower(X, k),)
    return make_word(*parts)


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


def _chain_word_for_spec(p: BlParams, spec):
    """The non-theta generator of the two-dimensional component at spec.weight."""
    twoq = 2 * p.q
    if spec.kind == "omega":
        return _window_gen_word(p, 2 * spec.n + 1, 1)
    if spec.kind == 1:
        return _window_gen_word(p, spec.n, 0)
    if 2 <= spec.kind <= p.h + 1:
        return _window_gen_word(p, spec.n, twoq - 2 ** (p.h + 2 - spec.kind))
    i = p.eta - 2 ** (p.g + p.h + 1 - spec.kind)
    return _tail_gen_word(p, spec.n, i, twoq - 1)


# -- the analysis pipeline ------------------------------------------------------


def _mask_labels(A: GradedAlgebra, degree: int, mask: int) -> str:
    layer = A.basis_at(degree)
    return " + ".join(layer[i].label for i in iter_bits(mask))


def _center_entries(A, family, matched_by_degree) -> tuple[CenterEntry, ...]:
    entries = []
    for d in range(1, family.valid_up_to + 1):
        basis = family.per_degree[d]
        if not basis.rank:
            continue
        entries.append(
            CenterEntry(
                d,
                tuple(_mask_labels(A, d, row) for row in basis.row_bits()),
                tuple(matched_by_degree.get(d, ())),
            )
        )
    return tuple(entries)


def _spec_json(spec) -> dict:
    return {"kind": spec.kind, "n": spec.n, "word": str(spec.word)}


def analyze(g, h=None, class_bound: int | None = None) -> AnalysisReport:
    """Run the full verification pipeline for the pair (g, h).

    The default class bound m + 2d covers the complete defining quotient
    plus two full periods, so every theta family appears at least twice.
    Results are collected as check entries; nothing raises on a mismatch.
    """
    p = _params(g, h)
    if class_bound is None:
        class_bound = p.m + 2 * p.d
    if class_bound < p.m + 2:
        raise ValueError(f"class bound must be at least m + 2 = {p.m + 2}")
    bound = class_bound
    twoq = 2 * p.q

    pres = presentation_R(p)
    M = nq_compute(pres, bound)
    specs = theta_specs(p, max_weight=bound)
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

    def vanishes(word) -> bool:
        return M.eval_word(word).bits == 0

    def periods(offset: int, top: int | None = None) -> range:
        top = bound if top is None else top
        if offset > top:
            return range(0)
        return range((top - offset) // p.d + 1)

    # (1) relators impose zero, and dims follow the 1 + theta-multiplicity law.
    family(
        "relators-vanish",
        ((str(r), vanishes(r)) for r in pres.relators),
    )

    spec_count = {}
    for s in specs:
        spec_count[s.weight] = spec_count.get(s.weight, 0) + 1
    dims_ok = M.dim(1) == 2 and all(
        M.dim(w) == 1 + spec_count.get(w, 0) for w in range(2, bound + 1)
    )
    check(
        "dims-pattern",
        dims_ok,
        f"dims[2..{bound}] equal 1 + theta multiplicity, dims[1] = 2",
    )

    # First constituent: y kills every component below weight 2q.
    family(
        "first-constituent",
        [
            (f"[y x^{j} y] = 0", vanishes(make_word(Y, GenPower(X, j), Y)))
            for j in range(1, twoq - 1)
        ]
        + [
            (
                f"[y x^{twoq - 1} y] != 0",
                M.eval_word(make_word(Y, GenPower(X, twoq - 1), Y)).bits != 0,
            )
        ],
    )

    family(
        "v-words-nonzero",
        (
            (f"v_{n}", M.eval_word(v_word(p, n=n)).bits != 0)
            for n in periods(twoq)
        ),
    )

    # (2)-(3) theta words: weights, non-vanishing, centrality, exact census.
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
        (
            (f"theta^{s.kind}_{s.n}", M.eval_word(s.word).bits != 0)
            for s in specs
        ),
    )

    Z = graded_center(M)
    Z2 = second_center(M)

    def central_instances():
        for s in central_specs:
            if s.weight > Z.valid_up_to:
                continue
            v = M.eval_word(s.word)
            ok = (
                Z.contains(v)
                and M.bracket_gen(v, X).bits == 0
                and M.bracket_gen(v, Y).bits == 0
            )
            yield f"theta^{s.kind}_{s.n}", ok

    family("theta-words-central", central_instances())

    predicted_central = {}
    for s in central_specs:
        predicted_central[s.weight] = predicted_central.get(s.weight, 0) + 1
    check(
        "center-census",
        all(
            Z.dim(w) == predicted_central.get(w, 0)
            for w in range(1, Z.valid_up_to + 1)
        ),
        f"center ranks match predictions for degrees 1..{Z.valid_up_to}",
    )

    check(
        "second-center-census",
        all(
            Z2.dim(w) == spec_count.get(w, 0)
            for w in range(1, Z2.valid_up_to + 1)
        ),
        f"second-center ranks match predictions for degrees 1..{Z2.valid_up_to}",
    )

    def odd1_instances():
        for s in odd1_specs:
            if s.weight > Z2.valid_up_to:
                continue
            v = M.eval_word(s.word)
            omega = M.eval_word(theta_word(p, kind="omega", n=(s.n - 1) // 2))
            by = M.bracket_gen(v, Y)
            ok = (
                Z2.contains(v)
                and not Z.contains(v)
                and M.bracket_gen(v, X).bits == 0
                and by.bits != 0
                and by.bits == omega.bits
            )
            yield f"theta^1_{s.n}", ok

    family("theta1-odd-second-central", odd1_instances())

    # (4) the quotient by the second center is the loop algebra on the nose.
    Q = quotient(M, Z2)
    B = construct_bl(p, class_bound=Q.class_bound)
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

    cents = centralizer_sequence(Q)
    expected_cents = bl_centralizer_sequence(p, up_to=Q.class_bound - 1)
    check(
        "quotient-centralizer-sequence",
        cents == expected_cents,
        f"degrees 2..{Q.class_bound - 1}",
    )

    consts = constituent_lengths(cents)
    expected_consts = bl_constituent_lengths(p, count=len(consts))
    check(
        "quotient-constituents",
        consts == expected_consts and check_CL(consts, p),
        " ".join(str(v) for v in consts),
    )

    # Two-dimensional components are spanned by the chain word and the theta word.
    def spanned_instances():
        for s in specs:
            chain = _chain_word_for_spec(p, s)
            rows = [M.eval_word(chain).bits, M.eval_word(s.word).bits]
            yield (
                f"weight {s.weight}",
                echelonize(rows, M.dim(s.weight)).rank == 2 == M.dim(s.weight),
            )

    family("two-dim-components-spanned", spanned_instances())

    # Census chain generators of the one- and two-dimensional slots all survive.
    def census_instances():
        for n in periods(twoq):
            for k in range(twoq - 1):
                w = _window_gen_word(p, n, k)
                if w.weight > bound:
                    break
                yield f"[v_{n} y x^{k}]", M.eval_word(w).bits != 0
            for i in range(p.eta):
                for k in range(twoq):
                    if i == p.eta - 1 and k >= twoq - 2:
                        continue  # the period boundary: v_{n+1} and theta^1
                    w = _tail_gen_word(p, n, i, k)
                    if w.weight > bound:
                        break
                    yield f"[v_{n} y x^{twoq - 2} (y x^{twoq - 1})^{i} y x^{k}]", (
                        M.eval_word(w).bits != 0
                    )

    family("census-chain-nonzero", census_instances())

    # (5) expansion conclusions: the vanishing families.
    family(
        "v-yy-vanishes",
        (
            (f"[v_{n} y y]", vanishes(make_word(*_v_parts(p, n), Y, Y)))
            for n in periods(twoq + 2)
        ),
    )

    family(
        "v-xx-vanishes",
        (
            (f"[v_{n} x x]", vanishes(make_word(*_v_parts(p, n), X, X)))
            for n in periods(twoq + 2)
        ),
    )

    family(
        "v-xy-even-vanishes",
        (
            (f"[v_{n} x y]", vanishes(make_word(*_v_parts(p, n), X, Y)))
            for n in periods(twoq + 2)
            if n % 2 == 0
        ),
    )

    if p.q > 2:
        family(
            "v-yxy-vanishes",
            (
                (f"[v_{n} y x y]", vanishes(make_word(*_v_parts(p, n), Y, X, Y)))
                for n in periods(twoq + 3)
            ),
        )

    family(
        "xi-family-vanishes",
        (
            (
                f"[v_{n} y x^{twoq - 2} (y x^{twoq - 1})^{i} x]",
                vanishes(make_word(*_tail_parts(p, n, i), X)),
            )
            for n in periods(2 * twoq)
            for i in range(p.eta)
            if 2 * twoq + twoq * i + p.d * n <= bound
        ),
    )

    family(
        "short-k-family-vanishes",
        (
            (
                f"[v_{n} y x^{twoq - 2} y x^{twoq - 2 ** s - 1} y]",
                vanishes(
                    make_word(
                        *_v_parts(p, n),
                        Y,
                        GenPower(X, twoq - 2),
                        Y,
                        GenPower(X, twoq - 2 ** s - 1),
                        Y,
                    )
                ),
            )
            for n in periods(2 * twoq)
            for s in range(1, p.h + 1)
            if 2 * twoq + (twoq - 2 ** s) + p.d * n <= bound
        ),
    )

    family(
        "long-k-family-vanishes",
        (
            (
                f"[v_{n} ... (y x^{twoq - 1})^{i} y x^{twoq - 2 ** s - 1} y]",
                vanishes(
                    make_word(
                        *_tail_parts(p, n, i),
                        Y,
                        GenPower(X, twoq - 2 ** s - 1),
                        Y,
                    )
                ),
            )
            for n in periods(2 * twoq)
            for i in range(1, p.eta)
            for s in range(1, p.h + 1)
            if not (i == p.eta - 1 and s == 1)
            and 2 * twoq + twoq * i + (twoq - 2 ** s) + p.d * n <= bound
        ),
    )

    family(
        "mu-lambda-family-vanishes",
        (
            (
                f"[v_{n} ... (y x^{twoq - 1})^{i} y x^{twoq - 2} y]",
                vanishes(
                    make_word(
                        *_tail_parts(p, n, i),
                        Y,
                        GenPower(X, twoq - 2),
                        Y,
                    )
                ),
            )
            for n in periods(2 * twoq)
            for i in lambda_admissible(p)
            if 2 * twoq + twoq * i + (twoq - 1) + p.d * n <= bound
        ),
    )

    # Assemble the report.
    matched_central: dict[int, list] = {}
    for s in central_specs:
        matched_central.setdefault(s.weight, []).append(_spec_json(s))
    matched_odd1: dict[int, list] = {}
    for s in odd1_specs:
        matched_odd1.setdefault(s.weight, []).append(_spec_json(s))

    centers = _center_entries(M, Z, matched_central)
    extras = []
    for d in range(1, Z2.valid_up_to + 1):
        extra_rank = Z2.dim(d) - (Z.dim(d) if d <= Z.valid_up_to else 0)
        if not extra_rank:
            continue
        rows = [r for r in Z2.per_degree[d].row_bits() if not Z.at(d).contains(r)]
        extras.append(
            CenterEntry(
                d,
                tuple(_mask_labels(M, d, r) for r in rows),
                tuple(matched_odd1.get(d, ())),
            )
        )

    return AnalysisReport(
        params=p,
        class_bound=bound,
        dims=(0,) + tuple(M.dim(d) for d in range(1, bound + 1)),
        centers=centers,
        second_center_extras=tuple(extras),
        quotient_dims=(0,) + tuple(Q.dim(d) for d in range(1, Q.class_bound + 1)),
        quotient_centralizers=cents.entries,
        quotient_constituents=consts,
        checks=tuple(checks),
    )
