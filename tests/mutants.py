"""Mutation gate: each listed mutant of the package must fail a named test.

An entry names a file under ``src/``, an exact old text, the new text that
replaces it and the tests that must catch the change.  For each entry the
checkout is copied to a temporary directory, the edit is applied there and
the named tests run with ``-x`` in a child process.  A mutant is caught
when a test fails; it survives when every test passes.  Any other outcome
(an old text that does not occur exactly once, a test id that collects
nothing, a timeout) is an error.  The run exits 1 unless every mutant is
caught.

Run it from anywhere, with pytest installed::

    python tests/mutants.py

pytest does not collect this file; `tests/test_mutants.py` checks that
each old text still occurs once and that a no-op entry survives.  A change
that adds a shortcut adds the mutants its tests are meant to catch.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# An under-cut table can grow past 1.7 GB, so each child's address space is
# capped; a test that runs out of memory under a mutant then fails instead.
CHILD_ADDRESS_SPACE = 1 << 30
CHILD_TIMEOUT_S = 300

_COPY_IGNORE = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_out", "__pycache__", "*.egg-info"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "frontier shift by D - 1",
        "bzloop/algebra.py",
        "out = m << g * split",
        "out = m << g * (split - 1)",
        ("tests/test_engine.py::test_frontier_shift_equals_the_generic_loop",),
    ),
    Mutant(
        "interleave halves swapped",
        "bzloop/nq.py",
        'return int(format(lo, "b"), 4) | int(format(hi, "b"), 4) << 1',
        'return int(format(hi, "b"), 4) | int(format(lo, "b"), 4) << 1',
        ("tests/test_engine.py::test_interleave_matches_the_bitwise_reference",),
    ),
    Mutant(
        "Jacobi certificate skips the generator triples",
        "bzloop/algebra.py",
        "for d in range(1, A.class_bound - 1):\n        defining = set(A.basis[d + 1])",
        "for d in range(1, 1):\n        defining = set(A.basis[d + 1])",
        ("tests/test_kernels.py::test_jacobi_check_catches_jacobi_only_corruptions",),
    ),
    Mutant(
        "closed form counts 3-sets for 3-multisets",
        "bzloop/algebra.py",
        "+ 3 * (s1 * s2 & keep)",
        "- 3 * (s1 * s2 & keep)",
        ("tests/test_kernels.py::test_instances_counts_the_squares_pairs_and_triples_one_by_one",),
    ),
    Mutant(
        "generator triples skipped after a failed square or pair",
        "bzloop/algebra.py",
        "elems = every if d1 > 1 or failures else opened[a]",
        "elems = every if d1 > 1 else opened[a]",
        ("tests/test_kernels.py::test_jacobi_check_sums_more_triples_once_a_check_fails",),
    ),
    Mutant(
        "closed form sums the coefficients of one degree too few",
        "bzloop/algebra.py",
        ">> 8 * size * bound &",
        ">> 8 * size * (bound - 1) &",
        ("tests/test_kernels.py::test_jacobi_check_matches_reference_on_sound_tables",),
    ),
    Mutant(
        "pair comparison ends one degree early",
        "bzloop/algebra.py",
        "hi = offset[bound - d1 + 1]",
        "hi = offset[bound - d1]",
        ("tests/test_kernels.py::test_jacobi_check_matches_reference_on_table_entry_flips",),
    ),
    Mutant(
        "generator walk starts past v",
        "bzloop/algebra.py",
        "for d3, c in elems[i : bisect_left(elems, (bound - d1 - d2 + 1,))]:",
        "for d3, c in elems[i + 1 : bisect_left(elems, (bound - d1 - d2 + 1,))]:",
        ("tests/test_kernels.py::test_jacobi_check_sums_only_open_generator_triples_on_a_sound_table",),
    ),
    Mutant(
        "Jacobi walk stops at d1 = 2 after a failed generator triple",
        "bzloop/algebra.py",
        "if d1 > 1 and not (failures or triples):",
        "if d1 > 1 and not failures:",
        ("tests/test_kernels.py::test_jacobi_check_sums_more_triples_once_a_check_fails",),
    ),
    Mutant(
        "Jacobi walk starts past u",
        "bzloop/algebra.py",
        "start = bisect_left(elems, (d1, a))",
        "start = bisect_left(elems, (d1, a + 1))",
        ("tests/test_kernels.py::test_jacobi_check_sums_only_open_generator_triples_on_a_sound_table",),
    ),
    Mutant(
        "packed path skips the generator pairs",
        "bzloop/algebra.py",
        "if (q0 >> 1 & 1 | q1 & 2, q2 >> 1 & 1 | q3 & 2) != action[j][b]:",
        "if False:",
        ("tests/test_kernels.py::test_every_single_bit_flip_of_M48_gets_the_report_of_its_built_table",),
    ),
    Mutant(
        "packed generator pairs read row 2 of the column",
        "bzloop/algebra.py",
        "if (q0 >> 1 & 1 | q1 & 2, q2 >> 1 & 1 | q3 & 2) != action[j][b]:",
        "if (q0 >> 2 & 1 | q1 >> 1 & 2, q2 >> 2 & 1 | q3 >> 1 & 2) != action[j][b]:",
        ("tests/test_kernels.py::test_fresh_sound_narrow_tables_take_the_packed_path",),
    ),
    Mutant(
        "packed path leaves the last column degree unchecked",
        "bzloop/algebra.py",
        "    for j in range(1, bound):\n        for b, (q0, q1, q2, q3) in enumerate(col):",
        "    for j in range(1, bound - 1):\n        for b, (q0, q1, q2, q3) in enumerate(col):",
        ("tests/test_kernels.py::test_jacobi_check_matches_reference_on_every_single_bit_flip",),
    ),
    Mutant(
        "packed fill reads [[u, g], p] at position i, not i + 1",
        "bzloop/algebra.py",
        "u0, u1, u2, u3 = q0 >> 1, q1 >> 1, q2 >> 1, q3 >> 1",
        "u0, u1, u2, u3 = q0, q1, q2, q3",
        ("tests/test_kernels.py::test_fresh_sound_narrow_tables_take_the_packed_path",),
    ),
    Mutant(
        "packed triples read [[w, g], v] without its one-row shift",
        "bzloop/algebra.py",
        "images = [(0, 0, 0, 0), *nxt]",
        "images = [(0, 0, 0, 0), *col]",
        ("tests/test_kernels.py::test_fresh_sound_narrow_tables_take_the_packed_path",),
    ),
    Mutant(
        "packed path runs on an already-built table",
        "bzloop/algebra.py",
        "if A._table is None and max(dims) <= 2 and _packed_jacobi(A):",
        "if max(dims) <= 2 and _packed_jacobi(A):",
        ("tests/test_kernels.py::test_jacobi_check_matches_reference_on_table_entry_flips",),
    ),
    Mutant(
        "pair failures left unsorted",
        "bzloop/algebra.py",
        "for (d1, d2, a, b), diff in sorted(pairs):",
        "for (d1, d2, a, b), diff in pairs:",
        ("tests/test_kernels.py::test_jacobi_check_matches_reference_on_corrupted_tables",),
    ),
    Mutant(
        "cut-symbol row without its [[v, g], u] sum",
        "bzloop/nq.py",
        "m = vrows[b][g]  # [[v, g], u], over the cut image",
        "m = 0  # [[v, g], u], over the cut image",
        ("tests/test_refs.py::test_nq_echelon_rows_are_frozen",),
    ),
    Mutant(
        "cut-symbol row shifted by (1 - g) * D",
        "bzloop/nq.py",
        "out = urow[c] << g * D  # [[u, v], g]",
        "out = urow[c] << (1 - g) * D  # [[u, v], g]",
        ("tests/test_engine.py::test_nq_default_rows_are_the_jacobi_sums",),
    ),
    Mutant(
        "cut-symbol row reads [u, 1 - g] for [u, g]",
        "bzloop/nq.py",
        "m = urow[g]  # [[u, g], v]",
        "m = urow[1 - g]  # [[u, g], v]",
        ("tests/test_engine.py::test_nq_default_rows_are_the_jacobi_sums",),
    ),
    Mutant(
        "Jacobi loop skips the rows of a defining [u, g] at the last split too, d1 = (n - 1) / 2",
        "bzloop/nq.py",
        "defines = survivors[d1 + 1] if 2 * d1 + 2 <= n else None",
        "defines = survivors[d1 + 1] if 2 * d1 + 1 <= n else None",
        ("tests/test_engine.py::test_the_packed_the_table_and_the_default_loop_agree",),
    ),
    Mutant(
        "Jacobi loop skips the rows of a defining [u, g] at every split",
        "bzloop/nq.py",
        "defines = survivors[d1 + 1] if 2 * d1 + 2 <= n else None",
        "defines = survivors[d1 + 1]",
        ("tests/test_engine.py::test_the_packed_the_table_and_the_default_loop_agree",),
    ),
    Mutant(
        "packed fill drops its last doubling round",
        "bzloop/nq.py",
        "    while C:\n        for k, m in enumerate(T):",
        "    while C & C >> step:\n        for k, m in enumerate(T):",
        ("tests/test_engine.py::test_the_packed_planes_hold_the_table_loops_frontier_entries",),
    ),
    Mutant(
        "packed fill doubles with a lane stride of 1, not 4",
        "bzloop/nq.py",
        "C, step = gate, 4",
        "C, step = gate, 1",
        ("tests/test_engine.py::test_the_packed_planes_hold_the_table_loops_frontier_entries",),
    ),
    Mutant(
        "packed fill puts an event's sum at its position only, not down its chain of gates",
        "bzloop/nq.py",
        "chain = (2 << e) - (8 << (~gate & lane & (1 << e) - 1).bit_length()) & lane",
        "chain = 1 << e",
        ("tests/test_engine.py::test_the_packed_planes_hold_the_table_loops_frontier_entries",),
    ),
    Mutant(
        "packed Jacobi rows read position j from the unmirrored plane",
        "bzloop/nq.py",
        "w = plane >> shift and _mirror(plane >> shift, half)",
        "w = plane >> shift",
        ("tests/test_engine.py::test_the_packed_rows_span_the_table_loops_rows",),
    ),
    Mutant(
        "packed mirror keeps lanes 1 and 2 in place",
        "bzloop/nq.py",
        "_SWAP12 = [v & 9 | (v & 2) << 1 | (v & 4) >> 1 for v in range(16)]",
        "_SWAP12 = list(range(16))",
        ("tests/test_engine.py::test_the_packed_rows_span_the_table_loops_rows",),
    ),
    Mutant(
        "packed loop hands over one cut after its first wide cut",
        "bzloop/nq.py",
        "        if len(new) > 2:  # hand over to the table loop",
        "        if D > 2:  # hand over to the table loop",
        ("tests/test_refs.py::test_wide_nq_table_bytes_are_frozen",),
    ),
    Mutant(
        "hand-over unpacks the frontier planes, not the true ones",
        "bzloop/nq.py",
        "_unpack(table, held, n)",
        "_unpack(table, planes, n)",
        ("tests/test_engine.py::test_the_hand_over_leaves_the_table_loop_a_true_slice",),
    ),
    Mutant(
        "packed loop starts with degree 2 left out of its masks",
        "bzloop/nq.py",
        "masks.add_row(1, len(defs[2]), R[1])",
        "masks.add_row(1, 0, R[1])",
        ("tests/test_engine.py::test_the_packed_rows_span_the_table_loops_rows",),
    ),
    Mutant(
        "narrow table closes a span under r alone, not under every translate v ^ r",
        "bzloop/nq.py",
        "closed |= 1 << (v ^ r)",
        "closed |= 1 << r",
        ("tests/test_engine.py::test_the_narrow_table_has_the_67_subspaces_of_gf2_4",),
    ),
    Mutant(
        "narrow cut of a 1-wide degree read from the 4-symbol cuts",
        "bzloop/nq.py",
        "defs, action = cuts[2 * len(table.rows[n])][state]",
        "defs, action = cuts[min(4 * len(table.rows[n]), 4)][state]",
        # test_engine.py builds quotients at collection, which this mutant breaks
        ("tests/test_refs.py::test_packed_echelon_rows_are_frozen",),
    ),
    Mutant(
        "annihilator without its modulo",
        "bzloop/algebra.py",
        "rows = [(z.reduce(mx), z.reduce(my)) for mx, my in rows]",
        "rows = [(mx, my) for mx, my in rows]",
        ("tests/test_engine.py::test_centers_match_the_act_index_construction",),
    ),
    Mutant(
        "z evaluated as x",
        "bzloop/algebra.py",
        "out ^= row[0] ^ row[1] if gi == 2 else row[gi]",
        "out ^= row[0] if gi == 2 else row[gi]",
        ("tests/test_engine.py::test_act_mask_and_generator_match_a_bit_loop",),
    ),
    Mutant(
        "settle skips the lowest pivot",
        "bzloop/gf2.py",
        "for p in reversed(pivots):",
        "for p in reversed(pivots[1:]):",
        ("tests/test_kernels.py::test_lazy_echelon_basis_matches_rref_between_adds",),
    ),
    Mutant(
        "extended label adds 2 to the exponent",
        "bzloop/words.py",
        "exp = int(last[2:]) + 1 if len(last) > 1 else 2",
        "exp = int(last[2:]) + 2 if len(last) > 1 else 2",
        ("tests/test_words.py::test_extended_label_is_the_word_label",),
    ),
    Mutant(
        "define_layer action pairs swapped",
        "bzloop/algebra.py",
        "return defs, list(zip(img[0::2], img[1::2]))",
        "return defs, list(zip(img[1::2], img[0::2]))",
        ("tests/test_refs.py",),
    ),
    Mutant(
        "upper theta partners one letter too long",
        "bzloop/bl.py",
        "return parts, (*parts[:-1], _SWAP[parts[-1]])",
        "return parts, (*parts[:-1], _SWAP[parts[-1]], *(Y,) * (t > p.h + 1))",
        ("tests/test_analyze.py::test_a_partner_of_another_weight_fails_the_span_check",),
    ),
    Mutant(
        "a failed analyze keeps the --json file it created",
        "bzloop/cli.py",
        "if created:",
        "if False:",
        ("tests/test_cli.py::test_analyze_that_exits_2_leaves_the_json_path_as_it_was",),
    ),
    Mutant(
        "eval never stops at a zero prefix",
        "bzloop/nq.py",
        "        if not mask:\n            break",
        "        if not mask:\n            pass",
        ("tests/test_cli.py::test_eval_stops_at_the_first_zero_prefix",),
    ),
    Mutant(
        "eval's last run stops short of the word's weight",
        "bzloop/nq.py",
        "zip(letters, _cuts(",
        "zip(islice(letters, word.weight - 1), _cuts(",
        ("tests/test_cli.py::test_eval_output_bytes_are_frozen",),
    ),
    Mutant(
        "eval steps letter d + 1 after the cut of degree d",
        "bzloop/nq.py",
        "zip(letters, _cuts(",
        "zip(islice(letters, 1, None), _cuts(",
        ("tests/test_cli.py::test_eval_output_bytes_are_frozen",),
    ),
    Mutant(
        "the oracle expands relators past its class bound",
        "bzloop/oracle.py",
        "        if weight <= class_bound:\n",
        "        if True:\n",
        ("tests/test_oracle.py::test_oracle_never_expands_a_relator_past_its_class_bound",),
    ),
    Mutant(
        "a word built directly is not normalized",
        "bzloop/words.py",
        "items = _normalize(self.items)",
        "items = tuple(self.items)",
        ("tests/test_words.py::test_a_word_built_directly_is_normalized",),
    ),
    Mutant(
        "the cut loop holds or refills its slice before it yields",
        "bzloop/nq.py",
        "        yield table\n\n        # the caller asks for degree n + 2, whose cut reads slice n + 1\n"
        "        if full_jacobi:\n            table.fill(n + 1)\n"
        "        else:  # the cut slice is antisymmetric: fill the blocks i >= j, mirror the rest\n"
        "            table.fill(n + 1, (n + 2) // 2)\n"
        "            table.mirror(n + 1)\n",
        "        # the caller asks for degree n + 2, whose cut reads slice n + 1\n"
        "        if full_jacobi:\n            table.fill(n + 1)\n"
        "        else:  # the cut slice is antisymmetric: fill the blocks i >= j, mirror the rest\n"
        "            table.fill(n + 1, (n + 2) // 2)\n"
        "            table.mirror(n + 1)\n"
        "        yield table\n",
        ("tests/test_engine.py::test_nq_prepares_no_slice_of_its_top_degree",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Edit the copy of the package under `src`; the old text must occur exactly once."""
    file = src / mutant.path
    text = file.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    file.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _cap_address_space() -> None:
    import resource  # POSIX only, as is the preexec_fn that calls this

    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_mutant(mutant: Mutant) -> str:
    """'caught', 'survived' or 'error: ...' for one entry, run in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="bzloop-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_COPY_IGNORE)
        try:
            apply(mutant, copy / "src")
        except ValueError as exc:
            return f"error: {exc}"
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(
                argv,
                cwd=copy,
                env=env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                preexec_fn=_cap_address_space if os.name == "posix" else None,
            )
        except subprocess.TimeoutExpired:
            return f"error: no verdict within {CHILD_TIMEOUT_S} s"
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # pytest: some test failed
        return "caught"
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return f"error: pytest exit {proc.returncode}: {last}"


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        verdict = run_mutant(mutant)
        bad += verdict != "caught"
        print(f"{verdict:8s} {time.perf_counter() - t0:5.1f} s  {mutant.name} ({mutant.path})", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught in {total:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
