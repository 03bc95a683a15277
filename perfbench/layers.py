"""Layer spans for the traced benchmark run.

The package is not edited: `Tracer.install` replaces the module-level
functions (and a few methods) named in SPANS with timing wrappers, in every
bzloop module namespace that holds them, so ``bzloop.nq.echelonize`` and
``bzloop.nq.make_word`` are traced as well as ``bzloop.gf2.echelonize``.
`uninstall` puts the originals back, so untraced passes run the package as
it is.  Spans are aggregated in memory: per group the call count, the
inclusive time of the outermost spans and the self time (a span's time
minus its child spans), plus caller -> callee call counts.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (group, module, attribute); "Class.method" names a method.
SPANS = (
    ("nq.compute", "nq", "nq_compute"),
    ("gf2.echelonize", "gf2", "echelonize"),
    ("gf2.kernel", "gf2", "kernel"),
    ("gf2.span", "gf2", "SpanSolver.__init__"),
    ("gf2.span", "gf2", "SpanSolver.express"),
    ("words.make_word", "words", "make_word"),
    ("algebra.quotient", "algebra", "quotient"),
    ("algebra.center", "algebra", "graded_center"),
    ("algebra.center", "algebra", "second_center"),
    ("algebra.eq", "algebra", "GradedAlgebra.__eq__"),
    ("algebra.eval_word", "algebra", "GradedAlgebra.eval_word"),
    ("algebra.jacobi", "algebra", "jacobi_check"),
    ("bl.construct", "bl", "construct_bl"),
    ("oracle.free_nq", "oracle", "free_nq_oracle"),
    ("char2", "char2", "lucas_row"),
    ("char2", "char2", "pascal_row"),
    ("char2", "char2", "verify_appendix"),
    ("analyze", "analyze", "analyze"),
    ("cli", "cli", "run"),
)

# Per-layer metrics of one traced pass, with their units.
METRICS = (
    ("nq.compute_s", "s"),
    ("nq.self_s", "s"),
    ("nq.rows", "count"),
    ("nq.rank", "count"),
    ("nq.row_yield", "frac"),
    ("gf2.echelonize_s", "s"),
    ("gf2.echelonize_calls", "count"),
    ("gf2.echelonize_bits", "count"),
    ("gf2.kernel_s", "s"),
    ("gf2.span_s", "s"),
    ("words.make_word_s", "s"),
    ("words.make_word_calls", "count"),
    ("algebra.quotient_s", "s"),
    ("algebra.center_s", "s"),
    ("algebra.eq_s", "s"),
    ("bl.construct_s", "s"),
    ("algebra.eval_word_s", "s"),
    ("algebra.eval_word_calls", "count"),
    ("analyze.self_s", "s"),
    ("algebra.jacobi_s", "s"),
    ("algebra.jacobi_triples", "count"),
    ("oracle.free_nq_s", "s"),
    ("char2.s", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # open spans: [group, time of finished children]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.nq_pending: list[tuple[int, int, int]] = []
        self.nq_tables: list[dict] = []

    # -- installing -------------------------------------------------------

    def install(self, mods) -> None:
        modules = [m for name, m in sys.modules.items() if name == "bzloop" or name.startswith("bzloop.")]
        for group, module, attr in SPANS:
            owner = getattr(mods, module)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._span(group, cls.__dict__[method]))
                continue
            fn = getattr(owner, attr)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, name, self._wrap(group, fn, m.__name__))

    def uninstall(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)

    def _patch(self, obj, name: str, wrapper) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, wrapper)

    # -- spans --------------------------------------------------------------

    def _span(self, group: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [group, 0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter() - t0)

        return traced

    def _close(self, frame: list, dt: float) -> None:
        self.stack.pop()
        group, child_s = frame
        self.calls[group] += 1
        self.self_s[group] += dt - child_s
        parent = self.stack[-1][0] if self.stack else ""
        self.edges[parent, group] += 1
        if self.stack:
            self.stack[-1][1] += dt
        if all(f[0] != group for f in self.stack):
            self.total_s[group] += dt

    def _wrap(self, group: str, fn, site: str):
        """A span around fn, plus the counters some groups record."""
        traced = self._span(group, fn)
        if group == "gf2.echelonize":
            from_nq = site == "bzloop.nq"

            @functools.wraps(fn)
            def echelonize(rows, dim_ambient):
                rows = list(rows)
                basis = traced(rows, dim_ambient)
                self.counts["gf2.echelonize_bits"] += len(rows) * dim_ambient
                if from_nq:
                    self.nq_pending.append((len(rows), dim_ambient, basis.rank))
                    self.counts["nq.rows"] += len(rows)
                    self.counts["nq.rank"] += basis.rank
                return basis

            return echelonize
        if group == "algebra.jacobi":

            @functools.wraps(fn)
            def jacobi_check(*args, **kwargs):
                report = traced(*args, **kwargs)
                self.counts["algebra.jacobi_triples"] += report.checked
                return report

            return jacobi_check
        if group == "nq.compute":

            @functools.wraps(fn)
            def nq_compute(*args, **kwargs):
                self.nq_pending = []
                table = traced(*args, **kwargs)
                # nq_compute cuts degree n + 1 with one echelonize call for
                # every n < class_bound whose degree n is nonzero.
                degrees = [n + 1 for n in range(1, table.class_bound) if table.dim(n)]
                self.nq_tables.append({
                    "class_bound": table.class_bound,
                    "degrees": [[d, *rec] for d, rec in zip(degrees, self.nq_pending)],
                })
                return table

            return nq_compute
        return traced

    # -- results --------------------------------------------------------------

    def metrics(self, scale: float) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset, times multiplied by scale."""
        t, s, calls, n = self.total_s, self.self_s, self.calls, self.counts
        values = {
            "nq.compute_s": t["nq.compute"],
            "nq.self_s": s["nq.compute"],
            "nq.rows": n["nq.rows"],
            "nq.rank": n["nq.rank"],
            "nq.row_yield": n["nq.rank"] / n["nq.rows"] if n["nq.rows"] else 0.0,
            "gf2.echelonize_s": t["gf2.echelonize"],
            "gf2.echelonize_calls": calls["gf2.echelonize"],
            "gf2.echelonize_bits": n["gf2.echelonize_bits"],
            "gf2.kernel_s": t["gf2.kernel"],
            "gf2.span_s": t["gf2.span"],
            "words.make_word_s": t["words.make_word"],
            "words.make_word_calls": calls["words.make_word"],
            "algebra.quotient_s": t["algebra.quotient"],
            "algebra.center_s": t["algebra.center"],
            "algebra.eq_s": t["algebra.eq"],
            "bl.construct_s": t["bl.construct"],
            "algebra.eval_word_s": t["algebra.eval_word"],
            "algebra.eval_word_calls": calls["algebra.eval_word"],
            "analyze.self_s": s["analyze"],
            "algebra.jacobi_s": t["algebra.jacobi"],
            "algebra.jacobi_triples": n["algebra.jacobi_triples"],
            "oracle.free_nq_s": t["oracle.free_nq"],
            "char2.s": t["char2"],
            "cli.self_s": s["cli"],
        }
        units = dict(METRICS)
        return {name: v * scale if units[name] == "s" else v for name, v in values.items()}

    def dump(self) -> dict:
        """The aggregated spans and the nq per-degree echelon records, for a trace file."""
        groups = sorted(self.calls)
        return {
            "spans": {
                g: {"calls": self.calls[g], "total_s": self.total_s[g], "self_s": self.self_s[g]}
                for g in groups
            },
            "edges": [[p, c, k] for (p, c), k in sorted(self.edges.items())],
            "nq_echelonize": self.nq_tables,
        }
