"""Mode implementations behind the CLI: search runs, exhaustive oracles,
theory verdicts, method benchmarks, memory building, and report
aggregation.

The theory mode only prints, writes and exits on the verdicts that
`theory.theory_checks` builds and judges.

Benchmarks run every configured method on every (task, attack-family)
pair under identical budgets and write line-delimited trial logs; the
summary CSVs are always rebuilt from those logs, so `report` over the
same logs is byte-identical to what `bench` produced.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import proposal, theory
from .configspace import AttackFamily, ConfigSpace
from .evaluation import CleanBaseline, make_baseline
from .logs import (THRESHOLD_FRACTION, best_so_far_curve, read_trial_log,
                   search_summary_record, trial_records)
from .memory import AttackMemory, MemoryRecord, TaskSummary, summarize, warm_start
from .proposal import ProposalDistribution
from .rngutil import Stream
from .runconfig import (METHOD_FULL, METHOD_RANDOM, RunConfig, RunConfigError,
                        build_search_params, build_space, build_victim,
                        build_weights)
from .search import SearchResult, run_search
from .serial import write_records, write_text
from .theory import theory_checks
from .victims import surface_task_family

logger = logging.getLogger(__name__)

SUMMARY_HEADER = "Task,Method,Drop,Flip,Utility,Time"
EFFICIENCY_HEADER = "Method,Pairs,Hit Rate,Trials,Time"
PARITY_HEADER = "Task,Family,Method,Configs"

_LOG_NAME = re.compile(r"^trials__(?P<task>.+)__(?P<family>[a-z-]+)__(?P<method>[a-z-]+)\.jsonl$")


def _fmt(value: float | None, spec: str = ".3f") -> str:
    return "--" if value is None else format(value, spec)


# ----------------------------------------------------------------------
# search mode
# ----------------------------------------------------------------------


def _task_summary(victim, baseline: CleanBaseline) -> TaskSummary:
    return summarize(baseline.batch, victim.task_id, victim.horizon)


def _initial_proposal(space: ConfigSpace, retrieved, strength: float) -> ProposalDistribution:
    """Uniform proposal, warm-started from the `retrieved` memory records unless None."""
    q0 = proposal.uniform(space.size)
    return q0 if retrieved is None else warm_start(q0, retrieved, strength, space).distribution


def _memory_record(summary: TaskSummary, result: SearchResult,
                   memory: AttackMemory) -> MemoryRecord:
    """The record of a finished search, timestamped to go next into `memory`."""
    return MemoryRecord(task_id=summary.task_id, features=summary.features,
                        config=result.best_config, utility=result.best_report.utility,
                        drop=result.best_report.drop, flip=result.best_report.flip,
                        timestamp=memory.next_timestamp())


def run_search_mode(config: RunConfig, out_dir: Path) -> int:
    path = config.retrieval.memory_path
    memory = AttackMemory.load(path) if path else None
    victim = build_victim(config)
    space = build_space(config)
    weights = build_weights(config)
    params = build_search_params(config)
    baseline = make_baseline(victim, config.victim.baseline_episodes,
                             Stream(config.seed, (1,)).generator())
    q0 = proposal.uniform(space.size)
    if memory is not None:
        summary = _task_summary(victim, baseline)
        retrieved = memory.retrieve(summary, config.retrieval.top_k)
        warm = warm_start(q0, retrieved, config.retrieval.strength, space)
        if warm.skipped:
            logger.warning(f"warm start skipped {warm.skipped} of {len(retrieved)} retrieved "
                           "records: their configs lie outside the space")
        q0 = warm.distribution
    result = run_search(victim, space, params, q0, baseline, weights)
    write_records(out_dir / "trial_log.jsonl", trial_records(result.history, space))
    write_records(out_dir / "result.json",
                  [search_summary_record(result.history, space, result.best_index)])
    if config.search.dump_proposals:
        write_records(out_dir / "proposals.jsonl",
                      [{"round": i, "q": snap}
                       for i, snap in enumerate(result.history.proposal_snapshots)])
    if config.victim.dump_trajectories:
        rows = []
        for episode, trace in enumerate(baseline.batch.trajectories):
            for t in range(trace.rewards.size):
                rows.append({"episode": episode, "step": t,
                             "z": trace.latents[t], "z_hat_next": trace.predicted_next[t],
                             "u": int(trace.actions[t]), "r": float(trace.rewards[t]),
                             "margin": float(trace.margins[t])})
        write_records(out_dir / "trajectories.jsonl", rows)
    if config.search.update_memory:
        memory.insert(_memory_record(summary, result, memory))
        memory.save(path)
    print(f"best {result.best_config.encode()}  U={result.best_report.utility:.6f}  "
          f"configs={len(result.history.evaluated)}  episodes={result.history.episodes_used}")
    return 0


# ----------------------------------------------------------------------
# oracle mode
# ----------------------------------------------------------------------


def run_oracle_mode(config: RunConfig, out_dir: Path) -> int:
    victim = build_victim(config)
    episodes = config.oracle.episodes
    space = build_space(config)
    weights = build_weights(config)
    baseline = make_baseline(victim, config.victim.baseline_episodes,
                             Stream(config.seed, (1,)).generator())
    umap = theory.brute_force_utility(victim, space, baseline, weights,
                                      episodes=episodes or None, seed=config.seed)
    rows = ["Config,D,F,T,V,U"]
    records = []
    for i, cfg in enumerate(space.configs):
        rows.append(",".join([f'"{cfg.encode()}"', _fmt(umap.drops[i]), _fmt(umap.flips[i]),
                              _fmt(umap.runtimes[i]), _fmt(umap.variabilities[i]),
                              _fmt(umap.utilities[i])]))
        records.append({"config": cfg.encode(), "D": umap.drops[i], "F": umap.flips[i],
                        "T": umap.runtimes[i], "V": umap.variabilities[i],
                        "U": umap.utilities[i]})
    write_text(out_dir / "utility_map.csv", "\n".join(rows) + "\n")
    write_records(out_dir / "utility_map.jsonl", records)
    print(f"U* = {umap.u_star:.6f} at {umap.best_config.encode()}")
    return 0


# ----------------------------------------------------------------------
# theory mode
# ----------------------------------------------------------------------


def run_theory_mode(config: RunConfig, out_dir: Path) -> int:
    rows = theory_checks(config.seed, config.theory, build_weights(config))
    lines = ["Check,Value,Bound,Empirical,SE,Verdict"]
    width = max(len(r.name) for r in rows)
    for row in rows:
        verdict = "PASS" if row.passed else "FAIL"
        value, bound, empirical, se = (_fmt(v, ".6g") for v in (
            row.value, row.bound, row.empirical, row.standard_error))
        lines.append(",".join([row.name, value, bound, empirical, se, verdict]))
        print(f"{row.name:<{width}}  value={value:>12}  bound={bound:>12}  "
              f"empirical={empirical:>12}  se={se:>10}  {verdict}")
    write_text(out_dir / "theory_verdicts.csv", "\n".join(lines) + "\n")
    failed = sum(not r.passed for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# memory mode
# ----------------------------------------------------------------------


def run_memory_mode(config: RunConfig, out_dir: Path) -> int:
    path = config.retrieval.memory_path
    tasks = surface_task_family(config.memory.family_seed, config.memory.tasks,
                                noise_scale=config.victim.noise, task_prefix="mem",
                                horizon=config.victim.horizon,
                                action_count=config.victim.action_count)
    space = build_space(config)
    weights = build_weights(config)
    memory = AttackMemory()
    for i, victim in enumerate(tasks):
        baseline = make_baseline(victim, config.victim.baseline_episodes,
                                 Stream(config.seed, (2, i)).generator())
        params = build_search_params(config, seed=Stream(config.seed, (3, i)).state_u64())
        result = run_search(victim, space, params, proposal.uniform(space.size),
                            baseline, weights)
        memory.insert(_memory_record(_task_summary(victim, baseline), result, memory))
    memory.save(path)
    print(f"memory written: {path} ({len(memory)} records)")
    return 0


# ----------------------------------------------------------------------
# bench mode
# ----------------------------------------------------------------------


def _trial_log_name(task_id: str, family: AttackFamily, method: str) -> str:
    return f"trials__{task_id}__{family.value}__{method}.jsonl"


def run_bench_mode(config: RunConfig, out_dir: Path) -> int:
    tasks = surface_task_family(config.bench.family_seed, config.bench.tasks,
                                noise_scale=config.bench.noise, horizon=config.victim.horizon,
                                action_count=config.victim.action_count)
    weights = build_weights(config)
    path = config.retrieval.memory_path
    memory = AttackMemory.load(path) if path else None
    families = tuple(AttackFamily(f) for f in config.space.families)
    methods = config.bench.methods
    # the report averages every log in out_dir, this run's or not
    names = {_trial_log_name(v.task_id, f, m) for v in tasks for f in families for m in methods}
    stale = sorted(p for p in out_dir.glob("trials__*.jsonl") if p.name not in names)
    if stale:
        raise RunConfigError(f"{stale[0]} is a trial log this bench run would not rewrite")
    grids = build_space(config).grids
    spaces = {f: ConfigSpace({f: grids[f]}) for f in families}
    for i, victim in enumerate(tasks):
        baseline = make_baseline(victim, config.victim.baseline_episodes,
                                 Stream(config.seed, (4, i)).generator())
        retrieved = (memory.retrieve(_task_summary(victim, baseline), config.retrieval.top_k)
                     if memory is not None and METHOD_FULL in methods else None)
        for family in families:
            space = spaces[family]
            scouts = set()
            for method in methods:
                seed = Stream(config.seed, (5, i, family.rank, methods.index(method))).state_u64()
                q0 = _initial_proposal(space, retrieved if method == METHOD_FULL else None,
                                       config.retrieval.strength)
                result = run_search(victim, space, build_search_params(config, seed=seed), q0,
                                    baseline, weights, refine=method != METHOD_RANDOM)
                records = trial_records(result.history, space)
                write_records(out_dir / _trial_log_name(victim.task_id, family, method), records)
                scouts.add(sum(1 for r in records if r["phase"] == "scout"))
            if len(scouts) > 1:
                raise RuntimeError(f"budget parity violated for {victim.task_id}/"
                                   f"{family.value}: {sorted(scouts)}")

    write_report_files(out_dir, out_dir)
    print(f"bench complete: {len(tasks) * len(families) * len(methods)} searches over "
          f"{len(tasks)} tasks, {len(families)} families, {len(methods)} methods")
    return 0


# ----------------------------------------------------------------------
# report mode
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _PairStats:
    task: str
    family: str
    method: str
    best_utility: float
    best_drop: float
    best_flip: float
    total_seconds: float
    hit: bool
    trials_to_threshold: int | None
    curve: tuple[float, ...]


def _pair_stats(task: str, family: str, method: str, records) -> _PairStats:
    newest = {rec["config"]: rec for rec in records}
    best = max(newest.values(), key=lambda r: r["U"])
    curve = best_so_far_curve(records)
    outcome = curve.threshold(THRESHOLD_FRACTION)
    total_seconds = sum(r["T"] * r["episodes"] for r in records)
    return _PairStats(task, family, method, best["U"], best["D"], best["F"], total_seconds,
                      outcome.hit, outcome.trials_to_threshold, curve.best_after_trial)


def collect_pair_stats(log_dir: Path) -> list[_PairStats]:
    paths = sorted(log_dir.glob("trials__*.jsonl"))
    stats = [_pair_stats(*match.groups(), read_trial_log(path))
             for path in paths if (match := _LOG_NAME.match(path.name))]
    if not stats:
        raise RunConfigError(f"no trial logs found under {log_dir}")
    return stats


def write_report_files(log_dir: Path, out_dir: Path) -> None:
    stats = collect_pair_stats(log_dir)
    methods = sorted({s.method for s in stats})
    tasks = sorted({s.task for s in stats})

    summary = ["# Time: total virtual evaluation seconds charged to the search",
               "# aggregate rows are unweighted means over tasks",
               SUMMARY_HEADER]
    aggregates: dict[str, list[tuple[float, float, float, float]]] = {m: [] for m in methods}
    for task in tasks:
        for method in methods:
            pairs = [s for s in stats if s.task == task and s.method == method]
            if not pairs:
                continue
            best = max(pairs, key=lambda s: s.best_utility)
            time_total = sum(s.total_seconds for s in pairs)
            aggregates[method].append((best.best_drop, best.best_flip,
                                       best.best_utility, time_total))
            summary.append(",".join([task, method, _fmt(best.best_drop),
                                     _fmt(best.best_flip), _fmt(best.best_utility),
                                     _fmt(time_total)]))
    for method in methods:
        arr = np.array(aggregates[method])
        summary.append(",".join(["aggregate", method] + [_fmt(v) for v in arr.mean(axis=0)]))
    write_text(out_dir / "summary.csv", "\n".join(summary) + "\n")

    efficiency = [
        "# Hit Rate: fraction of task-attack pairs whose best-so-far utility reaches "
        f"{int(THRESHOLD_FRACTION * 100)}% of its final best; pairs with final best <= 0 "
        "never count as hits",
        "# Trials: mean 1-based trial index among hitting pairs only",
        "# Time: mean per-pair total virtual seconds",
        EFFICIENCY_HEADER,
    ]
    for method in methods:
        pairs = [s for s in stats if s.method == method]
        hits = [s for s in pairs if s.hit]
        hit_rate = len(hits) / len(pairs)
        trials = (sum(s.trials_to_threshold for s in hits) / len(hits)) if hits else None
        mean_time = sum(s.total_seconds for s in pairs) / len(pairs)
        efficiency.append(",".join([method, str(len(pairs)), _fmt(hit_rate),
                                    _fmt(trials), _fmt(mean_time)]))
    write_text(out_dir / "efficiency.csv", "\n".join(efficiency) + "\n")

    parity = [PARITY_HEADER]
    for s in sorted(stats, key=lambda s: (s.task, s.family, s.method)):
        # the curve has one value per scouted config
        parity.append(",".join([s.task, s.family, s.method, str(len(s.curve))]))
    write_text(out_dir / "parity.csv", "\n".join(parity) + "\n")

    # plot data: mean best-so-far utility after 1, 2, 4, 8, ... trials
    curves = ["# mean best-so-far utility across pairs; curves shorter than a",
              "# checkpoint carry their final value forward",
              "Method,Trial,MeanBestUtility"]
    max_trials = max(len(s.curve) for s in stats)
    checkpoints = [t for t in (1, 2, 4, 8, 16, 32, 64) if t <= max_trials]
    if max_trials not in checkpoints:
        checkpoints.append(max_trials)
    for method in methods:
        pairs = [s for s in stats if s.method == method]
        for trial in checkpoints:
            values = [s.curve[min(trial, len(s.curve)) - 1] for s in pairs]
            curves.append(f"{method},{trial},{_fmt(float(np.mean(values)))}")
    write_text(out_dir / "curves.csv", "\n".join(curves) + "\n")


def run_report_mode(config: RunConfig, out_dir: Path) -> int:
    write_report_files(Path(config.out_dir), out_dir)
    print(f"report written to {out_dir}")
    return 0
