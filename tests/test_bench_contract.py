"""What the benchmark's tracer needs of the package.

``bench/tracing.py`` patches each name in ``SPAN_FUNCTIONS`` by getattr, so a
renamed function would crash every ``--trace 1`` run, and its byte counters
read ``len`` of a curve and ``encode`` of a CSV text.
"""

import importlib
import pathlib
import types

from fairalloc import scenario_io
from fairalloc.distributions import Poisson

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def _tracing():
    """bench/tracing.py's globals, run from its text so that no bytecode is written beside it."""
    namespace = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return types.SimpleNamespace(**namespace)


def test_every_traced_function_is_an_attribute_of_its_module():
    for module, names in _tracing().SPAN_FUNCTIONS.items():
        package_module = importlib.import_module(f"fairalloc.{module}")
        for name in names:
            assert callable(getattr(package_module, name, None)), f"{module}.{name}"


def test_curve_and_csv_results_have_the_sizes_the_tracer_reads():
    tracing = _tracing()
    curve = scenario_io.emit_availability_curve(Poisson(5.0), 10.0, 21)
    assert len(curve) == 21
    assert tracing.AMOUNTS["scenario_io.emit_availability_curve"]((), {}, curve) == 24 * 21
    text = scenario_io.rows_to_csv({"v": curve[:, 0], "group": ["a"] * 21})
    assert type(text) is str
    assert tracing.AMOUNTS["scenario_io.rows_to_csv"]((), {}, text) == len(text.encode("utf-8"))
