"""Seeded input generator for the fairalloc benchmark.

Every workload is a fixed list of tasks over scenario JSON files. The seed
only moves the distribution parameters inside the ranges below; the task
list's shape (families, group counts, budgets R/Z, tolerances, commands) is
the same for every seed, so the amount of work per run stays steady while
the inputs change.

Seeds are taken modulo SEED_POOL, the number of seeds whose reference
values are recorded in references.json: every seed's optimizations are
then checked against a recorded value, and a scenario with no reference is
a wrong output.

Draws are never filtered or redrawn. A draw the library cannot handle is a
task that fails, and the benchmark counts it as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

FAMILIES = ("constant", "two_point", "binomial", "poisson", "normal", "exponential", "empirical")

WHY = {
    "pof_narrow": (
        "many 3-8 group pof solves plus exact certificates: per-solve overhead of the "
        "floor sweep and water-fill, where vectorizing across groups barely helps"
    ),
    "cli_reports": (
        "over 100 in-process CLI calls of all seven commands in json and csv: parsing, "
        "sampling, curves, certificates and report output, with the optimizer a small share"
    ),
}

# Parameter ranges, in the style of the README examples. Integer ranges are
# inclusive; "cv" is sigma / mu for the normal model and "atoms" the number
# of distinct values drawn for an empirical law (integers in [0, "values"]).
README_RANGES = {
    "constant": {"c": (5, 200)},
    "two_point": {"k": (2.0, 20.0)},
    "binomial": {"n": (50, 1000), "p": (0.1, 0.9)},
    "poisson": {"lambda": (20.0, 400.0)},
    "normal": {"mu": (20.0, 400.0), "cv": (0.05, 0.25)},
    "exponential": {"mean": (5.0, 200.0)},
    "empirical": {"atoms": (5, 40), "values": 400},
}


def _large_empirical(atoms: int) -> dict:
    return {"empirical": {"atoms": (atoms, atoms), "values": 5 * atoms}}


SEED_POOL = 40
EPSILON = 0.1
NARROW_RATIOS = (0.5, 0.9, 1.2)
NARROW_ALPHAS = (0.05, 0.25)
CLI_ALPHA = 0.1
CLI_DELTA = 0.05
CLI_CURVE_STEPS = 2001
CLI_MC_SAMPLES = 1_000_000
LARGE_EMPIRICAL_ATOMS = 4000


@dataclass
class Task:
    """One unit of timed work.

    kind is "pof" (load, pof, then an exact scenario_certificate) or "cli"
    (one in-process ``fairalloc.cli.main(argv)`` call writing ``output``).
    """

    id: str
    kind: str
    file: str
    alpha: Optional[float] = None
    argv: list = field(default_factory=list)
    command: Optional[str] = None
    fmt: Optional[str] = None
    output: Optional[str] = None


@dataclass
class Workload:
    name: str
    why: str
    files: dict  # relative file name -> scenario JSON text
    tasks: list
    # Share of the --seconds budget given to one pass. A run makes
    # max(1, seconds // pass_seconds) passes, a count fixed by --seconds
    # rather than by how fast this run's passes happen to go.
    pass_seconds: float


def _draw(rng: np.random.Generator, kind: str, ranges: dict) -> dict:
    r = ranges[kind]
    if kind == "constant":
        return {"kind": kind, "c": int(rng.integers(r["c"][0], r["c"][1] + 1))}
    if kind == "two_point":
        return {"kind": kind, "k": float(rng.uniform(*r["k"]))}
    if kind == "binomial":
        return {"kind": kind, "n": int(rng.integers(r["n"][0], r["n"][1] + 1)),
                "p": float(rng.uniform(*r["p"]))}
    if kind == "poisson":
        return {"kind": kind, "lambda": float(rng.uniform(*r["lambda"]))}
    if kind == "normal":
        mu = float(rng.uniform(*r["mu"]))
        return {"kind": kind, "mu": mu, "sigma": mu * float(rng.uniform(*r["cv"]))}
    if kind == "exponential":
        return {"kind": kind, "mean": float(rng.uniform(*r["mean"]))}
    if kind == "empirical":
        count = int(rng.integers(r["atoms"][0], r["atoms"][1] + 1))
        values = rng.choice(r["values"] + 1, size=count, replace=False)
        weights = rng.dirichlet(np.ones(count))
        weights = weights / weights.sum()
        return {"kind": kind, "values": sorted(int(v) for v in values),
                "probabilities": [float(w) for w in weights]}
    raise ValueError(f"unknown family {kind!r}")


def spec_mean(spec: dict) -> float:
    """Mean of a distribution spec, for setting budgets as R/Z.

    Computed here rather than by fairalloc, so the inputs do not depend on
    the code under test.
    """
    kind = spec["kind"]
    if kind == "constant":
        return float(spec["c"])
    if kind == "two_point":
        return 1.0
    if kind == "binomial":
        return spec["n"] * spec["p"]
    if kind == "poisson":
        return spec["lambda"]
    if kind == "normal":
        return spec["mu"]
    if kind == "exponential":
        return spec["mean"]
    return float(np.dot(spec["values"], spec["probabilities"]))


def _scenario_text(specs, ratio: float) -> str:
    total = sum(spec_mean(s) for s in specs)
    doc = {
        "resource": ratio * total,
        "groups": [{"name": f"g{i}", "distribution": s} for i, s in enumerate(specs)],
    }
    return json.dumps(doc)


def _cycle(offset: int, count: int):
    return [FAMILIES[(offset + i) % len(FAMILIES)] for i in range(count)]


def build_pof_narrow(seed: int, tiny: bool = False) -> Workload:
    """17 group sets x 3 budgets x 2 alphas = 102 pof tasks.

    Two 3-group sets per family, and mixed-family sets of 4, 6 and 8 groups.
    """
    rng = np.random.default_rng([seed, 1])
    sets = [[fam] * 3 for fam in FAMILIES for _ in range(2)]
    sets += [_cycle(int(rng.integers(len(FAMILIES))), size) for size in (4, 6, 8)]
    ratios, alphas = NARROW_RATIOS, NARROW_ALPHAS
    if tiny:
        sets, ratios, alphas = [["poisson"] * 3, ["normal", "empirical", "binomial"]], (0.9,), (0.25,)
    files, tasks = {}, []
    for s, families in enumerate(sets):
        specs = [_draw(rng, fam, README_RANGES) for fam in families]
        for ratio in ratios:
            name = f"narrow_s{s:02d}_rz{ratio}.json"
            files[name] = _scenario_text(specs, ratio)
            for alpha in alphas:
                tasks.append(Task(id=f"{name[:-5]}_a{alpha}", kind="pof", file=name, alpha=alpha))
    return Workload("pof_narrow", WHY["pof_narrow"], files, tasks, pass_seconds=25.0)


# One 3-group optimize/pof file keeps the optimizer a small share of
# cli_reports. Its solve time varies least from seed to seed of the 3-group
# sets tried (0.22-0.47 s for optimize plus pof over seeds 0-19, against
# 0.25-0.60 s for Poisson, Normal and constant laws).
_CLI_OPT_FAMILIES = ("binomial", "empirical", "two_point")


def build_cli_reports(seed: int, tiny: bool = False) -> Workload:
    """112 CLI calls: each command below in json and csv.

    allocate, evaluate and certify on 12 seven-family files and 2 large
    empirical files (84 calls); curve on 4 of the seven-family files and
    both large ones (12 calls); mc-check on 4 seven-family files and both
    large ones (12 calls); optimize and pof on one 3-group file (4 calls).
    Quick report commands are three quarters of the calls, and mc-check,
    optimize and pof, the slowest at 0.1-0.3 s each, one seventh, so
    task_p50_ms falls among the quick commands and task_p90_ms among the
    slow ones, neither on the edge between two kinds of call.
    """
    rng = np.random.default_rng([seed, 3])
    files = {}
    n_mix, n_curve_mix, n_mc_mix, n_large = (12, 4, 4, 2) if not tiny else (1, 1, 1, 1)
    mix_files, large_files = [], []
    for i in range(n_mix):
        specs = [_draw(rng, fam, README_RANGES) for fam in FAMILIES]
        name = f"cli_mix7_{i}.json"
        files[name] = _scenario_text(specs, NARROW_RATIOS[i % len(NARROW_RATIOS)])
        mix_files.append(name)
    large = _large_empirical(LARGE_EMPIRICAL_ATOMS if not tiny else 200)
    for i in range(n_large):
        specs = [_draw(rng, "empirical", large), _draw(rng, "empirical", large),
                 _draw(rng, "poisson", README_RANGES)]
        name = f"cli_large_empirical_{i}.json"
        files[name] = _scenario_text(specs, 0.9)
        large_files.append(name)
    opt_file = "cli_opt3_0.json"
    files[opt_file] = _scenario_text([_draw(rng, fam, README_RANGES) for fam in _CLI_OPT_FAMILIES],
                                     NARROW_RATIOS[0])
    mc_seed = str(int(rng.integers(1, 2**31)))
    samples = str(CLI_MC_SAMPLES if not tiny else 1000)
    steps = str(CLI_CURVE_STEPS if not tiny else 21)
    quick_commands = {
        "allocate": [],
        "evaluate": ["--epsilon", str(EPSILON), "--alpha", "0.25"],
        "certify": ["--epsilon", str(EPSILON), "--delta", str(CLI_DELTA)],
    }
    curve_command = {"curve": ["--steps", steps]}
    mc_command = {"mc-check": ["--samples", samples, "--seed", mc_seed]}
    opt_commands = {
        "optimize": ["--alpha", str(CLI_ALPHA)],
        "pof": ["--alpha", str(CLI_ALPHA), "--epsilon", str(EPSILON)],
    }
    plan = (
        (mix_files + large_files, quick_commands),
        (mix_files[:n_curve_mix] + large_files, curve_command),
        (mix_files[:n_mc_mix] + large_files, mc_command),
        ([opt_file], opt_commands),
    )
    tasks = []
    for fmt in ("json", "csv"):
        for names, commands in plan:
            for name in names:
                for command, extra in commands.items():
                    task_id = f"{command}_{name[:-5]}_{fmt}"
                    output = f"out/{task_id}.{fmt}"
                    argv = [command, "--scenario", name, "--format", fmt, "--output", output] + extra
                    alpha = CLI_ALPHA if command in opt_commands else None
                    tasks.append(Task(id=task_id, kind="cli", file=name, alpha=alpha, argv=argv,
                                      command=command, fmt=fmt, output=output))
    return Workload("cli_reports", WHY["cli_reports"], files, tasks, pass_seconds=5.0)


GENERATORS = {
    "pof_narrow": build_pof_narrow,
    "cli_reports": build_cli_reports,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's inputs and task list for one seed, taken modulo SEED_POOL.

    Tasks run in a seeded shuffled order: the machine's speed drifts over
    seconds, and a slow spell that hits a block of similar tasks (all the
    8-group solves, say) would move the task-time percentiles far more than
    one spread over a mix of cheap and costly tasks.
    """
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(GENERATORS)}")
    seed %= SEED_POOL
    workload = GENERATORS[name](seed, tiny)
    order = np.random.default_rng([seed, 0]).permutation(len(workload.tasks))
    workload.tasks = [workload.tasks[i] for i in order]
    return workload
