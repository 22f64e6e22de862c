"""Named mutants of the library, and a runner that checks the tests kill them.

A mutant replaces one exact source text in a file under src/ and names the
pytest node ids that must fail once it does. Run

    python tests/mutants.py [NAME...]

to apply each named mutant (every one by default) to a copy of src/ in a
temporary directory, and to run only its node ids against that copy. Each
mutant prints one line: killed or survived, with the seconds it took. The
run exits 1 when a mutant that is not marked equivalent survives. An
equivalent mutant carries the reason no test can tell it from the library;
it runs all the same. tests/test_mutants.py checks, without running any,
that each source text occurs exactly once in its file, so the list cannot
rot. See DeMillo, Lipton & Sayward, "Hints on test data selection", IEEE
Computer 1978, and Jia & Harman, "An analysis and survey of the development
of mutation testing", IEEE TSE 2011.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# pytest's exit code when tests ran and some failed; any other nonzero code
# (a node id that is not found, a usage error) means the mutant did not run
TESTS_FAILED = 1


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    equivalent: Optional[str] = None  # why no test can kill it

    def source(self) -> str:
        return (SRC / self.path).read_text()


ALLOCATION = "fairalloc/allocation.py"

MUTANTS = (
    Mutant(
        "water-fill-drops-the-final-sum-hi-check", ALLOCATION,
        "            if s_hi == 1.0 and sum_hi <= budget + tol:\n                v_low = hi\n",
        "",
        ("tests/test_allocation.py::test_knot_water_fill_stop_at_an_end_matches_full_loop"
         "[hi-within-tol-above]",),
    ),
    Mutant(
        "water-fill-dust-by-index-only", ALLOCATION,
        "order = [*moving, *range(len(v))]",
        "order = list(range(len(v)))",
        ("tests/test_allocation.py::test_slope_search_does_as_well_as_golden_section_with_fewer_floors",),
    ),
    Mutant(
        "water-fill-dust-oversteps-boxes-first", ALLOCATION,
        "for slack in (0.0, tol):",
        "for slack in (tol,):",
        ("tests/test_allocation.py::test_slope_search_scores_no_more_floors_than_golden_section_next_to_a_kink"
         "[two-points-191-2-exponential]",),
    ),
    Mutant(
        "water-fill-high-move-without-nextafter", ALLOCATION,
        "min(s_mid, math.nextafter(max(starts), 1.0))",
        "min(s_mid, max(starts))",
        ("tests/test_allocation.py::test_knot_water_fill_stop_at_an_end_matches_full_loop",
         "tests/test_allocation.py::test_water_fill_within_tol_prices_the_level_where_the_fills_cross"),
        equivalent="s_hi then lies one double below the stretch on which v_high is the fill, "
                   "so the final bracket can end an ulp lower: the price moves by an ulp at "
                   "most, and the allocation stays where the fills met the budget",
    ),
    Mutant(
        "water-fill-prices-the-wrong-end-of-the-stretch", ALLOCATION,
        "level = max(starts) if total > budget else min(ends)",
        "level = min(ends) if total > budget else max(starts)",
        ("tests/test_allocation.py::test_water_fill_within_tol_prices_the_level_where_the_fills_cross",),
    ),
    Mutant(
        "water-fill-price-is-the-level", ALLOCATION,
        "return v, 1.0 - 0.5 * (s_lo + s_hi)",
        "return v, 0.5 * (s_lo + s_hi)",
        ("tests/test_allocation.py::test_water_fill_price_is_a_max_utilization_supergradient",),
    ),
    Mutant(
        "slope-search-returns-after-the-ends", ALLOCATION,
        "    ua, ub = score(a), score(b)\n",
        "    ua, ub = score(a), score(b)\n    return\n",
        ("tests/test_allocation.py::test_alpha_fair_u_is_concave_and_nondecreasing_in_alpha_and_pof_falls",),
    ),
    Mutant(
        "smooth-curve-keeps-its-last-crossing-as-cap", ALLOCATION,
        "        return _crossing(gap, self.sf, strict, 0.0, self.cap, self.em0 - t)[0 if strict else 1]\n",
        "        self.cap = _crossing(gap, self.sf, strict, 0.0, self.cap, self.em0 - t)[0 if strict else 1]\n"
        "        return self.cap\n",
        ("tests/test_allocation.py::test_box_inverses_do_not_depend_on_earlier_targets",
         "tests/test_allocation.py::test_pof_leaves_every_curve_as_it_was_built"),
    ),
    Mutant(
        "crossing-returns-the-unfinished-newton-bracket", ALLOCATION,
        "        if m == a or m == b:\n            break\n",
        "        if m == a or m == b or step == BISECTION_STEPS:\n            break\n",
        ("tests/test_allocation.py::test_crossing_ends_on_adjacent_doubles",),
    ),
    Mutant(
        "pof-row-bounds-swapped", ALLOCATION,
        '"bound_1_over_1_minus_alpha": self.bound_1_over_1_minus_alpha,\n'
        '            "bound_1_plus_2alpha": self.bound_1_plus_2alpha,',
        '"bound_1_over_1_minus_alpha": self.bound_1_plus_2alpha,\n'
        '            "bound_1_plus_2alpha": self.bound_1_over_1_minus_alpha,',
        ("tests/test_cli.py::test_pof_with_certificate_bounds",),
    ),
    Mutant(
        "chunk-sums-in-completion-order", "fairalloc/montecarlo.py",
        "results[j] = job(j)",
        "results[results.index(None)] = job(j)",
        ("tests/test_montecarlo.py::test_every_worker_count_gives_the_plain_chunk_loop_bits",),
    ),
    Mutant(
        "chunks-go-on-after-a-failure", "fairalloc/montecarlo.py",
        "while not failed.is_set():",
        "while True:",
        ("tests/test_montecarlo.py::test_a_failing_chunk_raises_in_the_caller_and_no_chunk_starts_after_it",),
    ),
    Mutant(
        "chunk-sums-in-reverse-order", "fairalloc/montecarlo.py",
        "for s, sq in _run_chunks(chunk_sums, -(-samples // CHUNK_SIZE)):",
        "for s, sq in reversed(_run_chunks(chunk_sums, -(-samples // CHUNK_SIZE))):",
        ("tests/test_montecarlo.py::test_report_over_several_chunks_matches_a_plain_chunk_loop",),
    ),
    Mutant(
        "scipy-special-imported-at-load", "fairalloc/distributions.py",
        "import numpy as np\n",
        "import numpy as np\nimport scipy.special\n",
        ("tests/test_cold_start.py::test_importing_and_parsing_every_golden_scenario_loads_no_scipy",),
    ),
    Mutant(
        "normal-draws-by-ndtri", "fairalloc/distributions.py",
        "draws = rng.normal(self.mu, self.sigma, size)",
        "draws = self.mu + self.sigma * special.ndtri(rng.random(size))",
        ("tests/test_distributions.py::test_sampling_calls_no_cdf_formula",),
    ),
    Mutant(
        "atom-lookups-bisect-left", "fairalloc/distributions.py",
        "idx = bisect.bisect_right(self._points, x)",
        "idx = bisect.bisect_left(self._points, x)",
        ("tests/test_distributions.py::test_atom_law_lookups_equal_numpy_searchsorted",),
    ),
    Mutant(
        "atom-knots-without-the-atom-at-0-offset", "fairalloc/distributions.py",
        "lo = int(self._vals[0] == 0.0)",
        "lo = 0",
        ("tests/test_distributions.py::test_empirical_knot_tables_equal_per_atom_lookups",),
    ),
    Mutant(
        "lattice-knots-cut-one-knot-early", "fairalloc/distributions.py",
        "ks, sfs = ks[: zeros[0] + 1], sfs[: zeros[0] + 1]",
        "ks, sfs = ks[: zeros[0]], sfs[: zeros[0]]",
        ("tests/test_distributions.py::test_lattice_knot_tables_end_at_the_tail",),
    ),
    Mutant(
        "guide-table-search-side-left", "fairalloc/distributions.py",
        'k[many] = self.cdf.searchsorted(u[many], side="right")',
        'k[many] = self.cdf.searchsorted(u[many], side="left")',
        ("tests/test_distributions.py::test_empirical_draws_next_to_cdf_points_follow_choice_inverse",),
    ),
    Mutant(
        "guide-table-one-point-step-strict", "fairalloc/distributions.py",
        "k += u >= self.cdf[k]",
        "k += u > self.cdf[k]",
        ("tests/test_distributions.py::test_guide_table_draws_at_bucket_edges_and_cdf_points_invert_the_cdf",),
    ),
    Mutant(
        "guide-table-edge-points-counted-one-bucket-late", "fairalloc/distributions.py",
        "np.bincount(low + ~on_edge, minlength=buckets + 1)",
        "np.bincount(low + 1, minlength=buckets + 1)",
        ("tests/test_distributions.py::test_guide_tables_equal_the_search_over_bucket_edges",),
    ),
    Mutant(
        "guide-table-inside-counts-edge-points", "fairalloc/distributions.py",
        "inside = np.bincount(low[~on_edge], minlength=buckets)",
        "inside = np.bincount(low, minlength=buckets + 1)[:buckets]",
        ("tests/test_distributions.py::test_guide_tables_equal_the_search_over_bucket_edges",),
    ),
    Mutant(
        "lattice-quantile-skips-the-upward-walk", "fairalloc/distributions.py",
        "        while m < upper and self._cdf_at(m) < p:\n            m += 1\n",
        "",
        ("tests/test_distributions.py::test_lattice_quantile_walks_from_any_guess_to_the_smallest_k",),
    ),
    Mutant(
        "distinct-doubles-by-value-not-bits", "fairalloc/scenario_io.py",
        "np.unique(values.view(np.int64), return_inverse=True)",
        "np.unique(values, return_inverse=True)",
        ("tests/test_scenario_io.py::test_dumps_report_is_json_dumps_with_indent",),
    ),
    Mutant(
        "report-splices-arrays-without-the-marker-count-check", "fairalloc/scenario_io.py",
        "    if len(pieces) != len(arrays) + 1:\n        return json.dumps(obj, indent=2, default=np.ndarray.tolist)\n",
        "",
        ("tests/test_scenario_io.py::test_dumps_report_is_json_dumps_with_indent",),
    ),
)


def run(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a copy of src/ with it applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its source text does not occur exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        # the ini's pythonpath would put the repository's src/ first; the
        # example database stays in the temporary directory
        env = dict(os.environ, PYTHONPATH=str(copy),
                   HYPOTHESIS_STORAGE_DIRECTORY=str(pathlib.Path(tmp) / ".hypothesis"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "-o", f"pythonpath={copy}", *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    if result.returncode not in (0, TESTS_FAILED):
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}")
    return result.returncode == TESTS_FAILED


def main(names) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    survivors = 0
    for name in names or by_name:
        mutant = by_name[name]
        start = time.perf_counter()
        killed = run(mutant)
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{name}: {'killed' if killed else 'survived'} in "
              f"{time.perf_counter() - start:.1f} s{note}", flush=True)
        survivors += not killed and mutant.equivalent is None
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
