"""scipy loads only when a lattice or Normal formula first needs it.

Each test runs a fresh interpreter on the fairalloc package under test, so
what an earlier test imported cannot hide an import at start-up.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fairalloc
from fairalloc import Binomial, Normal, Poisson
# the flags of the golden reports, so mc-check stays small
from test_golden_reports import COMMANDS

SRC = pathlib.Path(fairalloc.__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).parent / "golden"
# the goldens whose laws are atoms or Exponential, which read no scipy formula
NO_SCIPY_SCENARIOS = ("constant", "two_point", "empirical", "exponential")


def run_fresh(code: str, cwd=None) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_and_parsing_every_golden_scenario_loads_no_scipy():
    out = run_fresh(
        "import pathlib, sys\n"
        "import fairalloc, fairalloc.cli\n"
        "from fairalloc.scenario_io import load_scenario_path\n"
        f"paths = sorted(pathlib.Path({str(GOLDEN / 'scenarios')!r}).glob('*.json'))\n"
        "files = [load_scenario_path(str(path)) for path in paths]\n"
        "print(len(files), 'scipy' in sys.modules)\n"
    )
    assert out.split() == [str(len(list((GOLDEN / "scenarios").glob("*.json")))), "False"]


def test_help_and_every_command_on_atom_and_exponential_laws_load_no_scipy(tmp_path):
    runs = [[command, "--scenario", f"scenarios/{scenario}.json",
             "--output", str(tmp_path / f"{command}__{scenario}"), *flags]
            for command, flags in COMMANDS.items() for scenario in NO_SCIPY_SCENARIOS]
    out = run_fresh(
        "import contextlib, io, sys\n"
        "from fairalloc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(sum(codes), len(codes), 'scipy' in sys.modules)\n",
        cwd=GOLDEN,
    )
    assert out.split() == ["0", str(len(runs)), "False"]


HOOK_CALLS = [
    "Binomial(200, 0.3).cdf(55.5)",
    "Binomial(200, 0.3).survival(55.5)",
    "Binomial(200, 0.3).quantile(0.3)",
    "Binomial(200, 0.3).expected_min(61.25)",
    "Poisson(40.0).cdf(37.5)",
    "Poisson(40.0).survival(37.5)",
    "Poisson(40.0).quantile(0.7)",
    "Poisson(40.0).expected_min(42.25)",
    "Normal(100.0, 10.0).quantile(0.05)",
    "Normal(100.0, 10.0).shortfall_bound(95.0)",
]


@pytest.mark.parametrize("call", HOOK_CALLS)
def test_first_scipy_call_in_a_fresh_interpreter_gives_the_same_bits(call):
    out = run_fresh(
        "import sys\n"
        "from fairalloc import Binomial, Normal, Poisson\n"
        "before = 'scipy' in sys.modules\n"
        f"value = {call}\n"
        "print(before, 'scipy' in sys.modules, float(value).hex())\n"
    )
    expected = float(eval(call, {"Binomial": Binomial, "Normal": Normal, "Poisson": Poisson}))
    assert out.split() == ["False", "True", expected.hex()]
