"""The benchmark's four workloads.

Each workload's set-up builds everything an operation needs (spaces,
victims, baselines, memory, configuration files) from the workload seed and
returns the list of operations that make up one pass. An operation is one
call into the public API of `attacksearch`, plus an output check that the
runner executes outside the timed region. Sizes are fixed per scale, so a
pass does the same work on every run with the same seed.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# Sizes per scale. "full" is what the benchmark command runs; "smoke" is the
# reduced size the smoke test runs.
SIZES = {
    "surface-search": {"full": {"tasks": 60, "seeds": 2},
                       "smoke": {"tasks": 2, "seeds": 1}},
    "linear-search": {"full": {"searches_per_victim": 24},
                      "smoke": {"searches_per_victim": 1}},
    "bench-cli": {"full": {"memory_tasks": 10, "bench_tasks": 6, "families": 5},
                  "smoke": {"memory_tasks": 2, "bench_tasks": 1, "families": 2}},
    "theory-oracle": {"full": {"population_victims": 320, "brute_victims": 4, "theory": {}},
                      "smoke": {"population_victims": 2, "brute_victims": 1,
                                "theory": {"identity_tuples": 20, "hitting_trials": 200,
                                           "random_pairs": 2, "pair_trials": 100,
                                           "coverage_trials": 3, "coverage_episodes": 10}}},
}

BUDGET = 16
BATCH = 4
SURFACE_NOISE = 0.3
THRESHOLD_FRACTION = 0.9      # efficiency.csv's hit threshold
ORACLE_TOLERANCE = 1e-12


@dataclass
class Outcome:
    """What the benchmark keeps from one operation."""

    searches: int = 0                    # searches (or exhaustive sweeps) the operation ran
    utilities: list = field(default_factory=list)          # final best utility per search
    virtual_s: list = field(default_factory=list)          # virtual seconds per search
    trials_to_threshold: list = field(default_factory=list)  # per search; None = no hit
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)
    output: bytes = b""                  # serialized output; passes compare its digest


@dataclass
class Operation:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # untimed; removes earlier outputs so a check never reads a stale file
    prepare: Callable[[], None] | None = None


def failure(message: str) -> Outcome:
    return Outcome(failed=1, problems=[message])


def _records_bytes(records) -> bytes:
    from attacksearch import serial
    return "".join(serial.dump_record(r) + "\n" for r in records).encode()


def expected_episodes(params, budget: int) -> int:
    """Episodes `scout_confirm` documents for a search of `budget` configs."""
    total, remaining = 0, budget
    while remaining > 0:
        batch = min(params.batch_size, remaining)
        total += (batch * params.scout_episodes
                  + min(params.confirm_top_k, batch) * params.confirm_episodes)
        remaining -= batch
    return total


def check_search(result, space, params) -> Outcome:
    """Budget and episode accounting, plus the serialized trial records."""
    from attacksearch import logs
    history = result.history
    budget = min(params.budget, space.size)
    problems = []
    if len(history.evaluated) != budget:
        problems.append(f"evaluated {len(history.evaluated)} configs, expected {budget}")
    episodes = expected_episodes(params, budget)
    charged = sum(e.report.episodes for e in history.entries)
    if history.episodes_used != episodes or charged != episodes:
        problems.append(f"used {history.episodes_used} episodes ({charged} in entries), "
                        f"expected {episodes}")
    records = logs.trial_records(history, space)
    hit = logs.threshold_outcome(records, THRESHOLD_FRACTION)
    return Outcome(searches=1, utilities=[history.best_per_round[-1][1]],
                   virtual_s=[history.virtual_seconds],
                   trials_to_threshold=[hit.trials_to_threshold],
                   failed=1 if problems else 0, problems=problems,
                   output=_records_bytes(records))


def _search_op(label, victim, space, params, q0, baseline, refine=True) -> Operation:
    from attacksearch import search

    def run():
        # looked up at call time so the traced run sees the traced name
        return search.run_search(victim, space, params, q0, baseline, refine=refine)

    return Operation(label, run, lambda result: check_search(result, space, params))


def _ready_space():
    """The default space with its lazy enumeration and index built."""
    from attacksearch.configspace import default_config_space
    space = default_config_space()
    space.index_of(space.configs[-1])
    return space


# ----------------------------------------------------------------------
# surface-search
# ----------------------------------------------------------------------


def build_surface_search(seed: int, sizes: dict, workdir: Path,
                         victim_wrapper=None) -> list[Operation]:
    """Warm-started, feedback-only and random search on noisy surface tasks."""
    from attacksearch import proposal, theory
    from attacksearch.evaluation import make_baseline
    from attacksearch.memory import AttackMemory, MemoryRecord, summarize, warm_start
    from attacksearch.rngutil import Stream
    from attacksearch.runconfig import METHOD_FEEDBACK_ONLY, METHOD_FULL, METHOD_RANDOM
    from attacksearch.search import SearchParams
    from attacksearch.victims import surface_task_family

    space = _ready_space()
    n_tasks = sizes["tasks"]
    family_seed = Stream(seed, (1,)).state_u64()
    # One cluster per evaluation task: the memory holds one clean prior task
    # per cluster, with its exact best config from the closed-form oracle,
    # and each noisy evaluation task shares its cluster centre with one of
    # them. Many clusters keep the mean utility a property of the search
    # rather than of a few task parameters drawn from the seed.
    clean = surface_task_family(family_seed, 2 * n_tasks, n_clusters=n_tasks)
    noisy = surface_task_family(family_seed, 2 * n_tasks, noise_scale=SURFACE_NOISE,
                                n_clusters=n_tasks)
    memory = AttackMemory()
    for i, victim in enumerate(clean[:n_tasks]):
        baseline = make_baseline(victim, 3, Stream(seed, (2, i)).generator())
        umap = theory.population_utility_map(victim, space)
        best = umap.best_index
        memory.insert(MemoryRecord(
            victim.task_id, summarize(baseline.batch, victim.task_id, victim.horizon).features,
            space.configs[best], float(umap.utilities[best]), float(umap.drops[best]),
            float(umap.flips[best]), memory.next_timestamp()))
    memory = AttackMemory(records=memory.records)   # freeze normalization
    q_uniform = proposal.uniform(space.size)

    ops = []
    for t, victim in enumerate(noisy[n_tasks:]):
        if victim_wrapper is not None:
            victim = victim_wrapper(victim)
        baseline = make_baseline(victim, 3, Stream(seed, (3, t)).generator())
        summary = summarize(baseline.batch, victim.task_id, victim.horizon)
        q_warm = warm_start(q_uniform, memory.retrieve(summary, 3), 0.6, space).distribution
        for j in range(sizes["seeds"]):
            params = SearchParams(budget=BUDGET, batch_size=BATCH,
                                  seed=Stream(seed, (4, t, j)).state_u64())
            tag = f"{victim.task_id}/s{j}"
            ops.append(_search_op(f"{METHOD_FULL}:{tag}", victim, space, params,
                                  q_warm, baseline))
            ops.append(_search_op(f"{METHOD_FEEDBACK_ONLY}:{tag}", victim, space, params,
                                  q_uniform, baseline))
            ops.append(_search_op(f"{METHOD_RANDOM}:{tag}", victim, space, params,
                                  q_uniform, baseline, refine=False))
    return ops


# ----------------------------------------------------------------------
# linear-search
# ----------------------------------------------------------------------


LINEAR_WEIGHT_SEEDS = (0, 1)


def build_linear_search(seed: int, sizes: dict, workdir: Path,
                        victim_wrapper=None) -> list[Operation]:
    """Feedback search against two linear world-model victims.

    The victims and their clean baselines are fixed tasks; the workload
    seed draws the search seeds. Utilities scale with the clean return, so
    drawing baselines from the seed would make the mean utility a property
    of the seed rather than of the search.
    """
    from attacksearch import proposal
    from attacksearch.evaluation import make_baseline
    from attacksearch.rngutil import Stream
    from attacksearch.search import SearchParams
    from attacksearch.victims import LinearWorldModelVictim

    space = _ready_space()
    q_uniform = proposal.uniform(space.size)
    ops = []
    for w in LINEAR_WEIGHT_SEEDS:
        victim = LinearWorldModelVictim(f"linear-w{w}", obs_dim=64, latent_dim=12,
                                        horizon=12, weight_seed=w)
        if victim_wrapper is not None:
            victim = victim_wrapper(victim)
        baseline = make_baseline(victim, 3, Stream(w, (2,)).generator())
        for j in range(sizes["searches_per_victim"]):
            params = SearchParams(budget=BUDGET, batch_size=BATCH,
                                  seed=Stream(seed, (5, w, j)).state_u64())
            ops.append(_search_op(f"linear-w{w}/s{j}", victim, space, params,
                                  q_uniform, baseline))
    return ops


# ----------------------------------------------------------------------
# bench-cli
# ----------------------------------------------------------------------


REPORT_FILES = ("summary.csv", "efficiency.csv", "parity.csv", "curves.csv")


def build_bench_cli(seed: int, sizes: dict, workdir: Path,
                    victim_wrapper=None) -> list[Operation]:
    """`memory`, `bench` and `report` through `attacksearch.cli.main`, in-process.

    The bench and memory task families are fixed; the workload seed is the
    run seed, which draws every baseline and search seed. `bench` always
    draws five cluster centres, so drawing the families from the seed would
    make the mean utility a property of five task parameters, not of the
    searches.
    """
    from attacksearch import cli
    from attacksearch.configspace import AttackFamily
    from attacksearch.runconfig import METHODS

    root = workdir / "bench-cli"
    bench_dir, report_dir = root / "bench", root / "report"
    memory_path = root / "memory.jsonl"
    families = [f.value for f in AttackFamily][:sizes["families"]]
    root.mkdir(parents=True, exist_ok=True)
    config = root / "run.yaml"
    config.write_text(f"""\
seed: {seed}
out_dir: '{bench_dir}'
space:
  families: [{', '.join(families)}]
search:
  budget: {BUDGET}
  batch: {BATCH}
bench:
  tasks: {sizes['bench_tasks']}
  family_seed: 0
  noise: {SURFACE_NOISE}
retrieval:
  memory_path: '{memory_path}'
memory:
  tasks: {sizes['memory_tasks']}
  family_seed: 1
""", encoding="utf-8")
    task_ids = [f"task-{i:03d}" for i in range(sizes["bench_tasks"])]
    pairs = [(t, f, m) for t in task_ids for f in families for m in METHODS]

    def mode(name: str, *extra: str):
        return lambda: cli.main([name, "--config", str(config), *extra])

    def clear_outputs() -> None:
        shutil.rmtree(bench_dir, ignore_errors=True)
        shutil.rmtree(report_dir, ignore_errors=True)
        memory_path.unlink(missing_ok=True)

    def check_memory(rc) -> Outcome:
        from attacksearch.serial import read_records
        if rc != 0:
            return failure(f"memory mode exited {rc}")
        rows = read_records(memory_path)
        problems = ([] if len(rows) == sizes["memory_tasks"]
                    else [f"memory holds {len(rows)} records"])
        return Outcome(searches=sizes["memory_tasks"], failed=1 if problems else 0,
                       problems=problems, output=memory_path.read_bytes())

    def check_bench(rc) -> Outcome:
        from attacksearch import logs
        if rc != 0:
            return failure(f"bench mode exited {rc}")
        problems, output = [], []
        out = Outcome(searches=len(pairs))
        for task, family, method in pairs:
            path = bench_dir / f"trials__{task}__{family}__{method}.jsonl"
            if not path.is_file():
                problems.append(f"missing log {path.name}")
                continue
            data = path.read_bytes()
            output.append(data)
            records = logs.read_trial_log(path)
            out.utilities.append(logs.best_so_far_curve(records).final_best)
            out.virtual_s.append(sum(r["T"] * r["episodes"] for r in records))
            out.trials_to_threshold.append(
                logs.threshold_outcome(records, THRESHOLD_FRACTION).trials_to_threshold)
        configs: dict[tuple, set] = {}
        for line in (bench_dir / "parity.csv").read_text().splitlines()[1:]:
            task, family, _, count = line.split(",")
            configs.setdefault((task, family), set()).add(count)
        if len(configs) != len(task_ids) * len(families):
            problems.append(f"parity.csv covers {len(configs)} (task, family) pairs")
        problems += [f"budget parity broken for {k}: {sorted(v)}"
                     for k, v in configs.items() if len(v) != 1]
        output += [(bench_dir / name).read_bytes() for name in REPORT_FILES]
        out.output = b"".join(output)
        out.problems, out.failed = problems, 1 if problems else 0
        return out

    def check_report(rc) -> Outcome:
        if rc != 0:
            return failure(f"report mode exited {rc}")
        problems = [f"report {name} differs from bench's" for name in REPORT_FILES
                    if (report_dir / name).read_bytes() != (bench_dir / name).read_bytes()]
        return Outcome(failed=1 if problems else 0, problems=problems,
                       output=b"".join((report_dir / n).read_bytes() for n in REPORT_FILES))

    return [Operation("cli:memory", mode("memory"), check_memory, clear_outputs),
            Operation("cli:bench", mode("bench"), check_bench),
            Operation("cli:report", mode("report", "--out", str(report_dir)), check_report)]


# ----------------------------------------------------------------------
# theory-oracle
# ----------------------------------------------------------------------


def build_theory_oracle(seed: int, sizes: dict, workdir: Path,
                        victim_wrapper=None) -> list[Operation]:
    """`attacksearch theory` plus exhaustive oracles on deterministic surfaces.

    The oracle victims are drawn from the seed. Their count is set so the
    mean optimal utility and the mean sweep cost are steady across seeds,
    and so the sweeps take about as long as the `theory` call. Half of them
    run before that call and half after it, so the sweep timings sample the
    whole pass rather than one burst of it.
    """
    from attacksearch import cli, theory
    from attacksearch.evaluation import make_baseline
    from attacksearch.rngutil import Stream
    from attacksearch.victims import surface_task

    root = workdir / "theory-oracle"
    root.mkdir(parents=True, exist_ok=True)
    config = root / "theory.yaml"
    overrides = "".join(f"  {k}: {v}\n" for k, v in sizes["theory"].items())
    config.write_text(f"seed: {seed}\n" + (f"theory:\n{overrides}" if overrides else ""),
                      encoding="utf-8")
    space = _ready_space()
    victims = [surface_task(f"oracle-{i:03d}", Stream(seed, (6, i)).state_u64())
               for i in range(sizes["population_victims"])]
    if victim_wrapper is not None:
        victims = [victim_wrapper(v) for v in victims]
    baselines = [make_baseline(v, 3, Stream(seed, (7, i)).generator())
                 for i, v in enumerate(victims[:sizes["brute_victims"]])]
    population: dict[int, Any] = {}

    def run_theory():
        return cli.main(["theory", "--config", str(config), "--out", str(root)])

    verdicts = root / "theory_verdicts.csv"

    def check_theory(rc) -> Outcome:
        """One operation per verdict."""
        if not verdicts.is_file():
            return failure(f"theory mode exited {rc} without verdicts")
        rows = [line.split(",") for line in verdicts.read_text().splitlines()[1:]]
        if not rows:
            return failure("theory mode wrote no verdicts")
        failed = [row[0] for row in rows if row[-1] != "PASS"]
        problems = [f"theory verdict {name} is not PASS" for name in failed]
        if rc != 0 and not failed:
            problems.append(f"theory mode exited {rc}")
        return Outcome(attempted=len(rows), failed=len(failed) or int(bool(problems)),
                       problems=problems, output=verdicts.read_bytes())

    def population_op(i: int) -> Operation:
        def run():
            return theory.population_utility_map(victims[i], space)

        def check(umap) -> Outcome:
            if i < len(baselines):
                population[i] = umap
            problems = [] if bool(umap.utilities.size == space.size
                                  and all(map(math.isfinite, umap.utilities))) \
                else ["population utility map is not finite over the space"]
            return Outcome(searches=1, utilities=[umap.u_star],
                           virtual_s=[float(umap.runtimes.sum())],
                           failed=1 if problems else 0, problems=problems,
                           output=umap.utilities.tobytes() + umap.runtimes.tobytes())
        return Operation(f"population:{victims[i].task_id}", run, check)

    def brute_op(i: int) -> Operation:
        def run():
            return theory.brute_force_utility(victims[i], space, baselines[i], seed=seed)

        def check(umap) -> Outcome:
            reference = theory.brute_force_utility_reference(victims[i], space, baselines[i])
            problems = []
            gap_ref = float(abs(umap.utilities - reference).max())
            if not gap_ref <= ORACLE_TOLERANCE:
                problems.append(f"brute force vs reference differ by {gap_ref:.3g}")
            if i not in population:
                problems.append("no population map to compare against")
            else:
                gap_pop = float(abs(umap.utilities - population[i].utilities).max())
                if not gap_pop <= ORACLE_TOLERANCE:
                    problems.append(f"brute force vs population differ by {gap_pop:.3g}")
            return Outcome(searches=1, failed=1 if problems else 0, problems=problems,
                           output=umap.utilities.tobytes())
        return Operation(f"brute-force:{victims[i].task_id}", run, check)

    half = len(victims) // 2
    return ([population_op(i) for i in range(half)]
            + [Operation("cli:theory", run_theory, check_theory,
                         lambda: verdicts.unlink(missing_ok=True))]
            + [population_op(i) for i in range(half, len(victims))]
            + [brute_op(i) for i in range(len(baselines))])


WORKLOADS = {
    "surface-search": build_surface_search,
    "linear-search": build_linear_search,
    "bench-cli": build_bench_cli,
    "theory-oracle": build_theory_oracle,
}
