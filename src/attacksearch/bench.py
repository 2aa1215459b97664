"""Mode implementations behind the CLI: search runs, exhaustive oracles,
theory verdicts, method benchmarks, memory building, and report
aggregation.

Benchmarks run every configured method on every (task, attack-family)
pair under identical budgets and write line-delimited trial logs; the
summary CSVs are always rebuilt from those logs, so `report` over the
same logs is byte-identical to what `bench` produced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import proposal, theory
from .configspace import AttackFamily, ConfigSpace
from .evaluation import CleanBaseline, make_baseline
from .logs import (best_so_far_curve, read_trial_log, search_summary_record,
                   threshold_outcome, trial_records, write_trial_log)
from .memory import AttackMemory, MemoryRecord, summarize, warm_start
from .proposal import ProposalDistribution
from .rngutil import Stream
from .runconfig import (METHOD_FULL, METHOD_RANDOM, RunConfig, RunConfigError,
                        build_search_params, build_space, build_victim,
                        build_weights)
from .search import SearchResult, run_search
from .serial import write_records
from .victims import surface_task_family

THRESHOLD_FRACTION = 0.9

SUMMARY_HEADER = "Task,Method,Drop,Flip,Utility,Time"
EFFICIENCY_HEADER = "Method,Pairs,Hit Rate,Trials,Time"
PARITY_HEADER = "Task,Family,Method,Configs"

_LOG_NAME = re.compile(r"^trials__(?P<task>.+)__(?P<family>[a-z-]+)__(?P<method>[a-z-]+)\.jsonl$")


def _fmt(value: float | None) -> str:
    return "--" if value is None else f"{value:.3f}"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ----------------------------------------------------------------------
# search mode
# ----------------------------------------------------------------------


def _load_memory(config: RunConfig) -> AttackMemory | None:
    """The configured attack memory, or None when retrieval is disabled."""
    path = config.retrieval.memory_path
    if not path:
        return None
    if not Path(path).exists():
        raise RunConfigError(f"memory file not found: {path}", key="retrieval.memory_path")
    return AttackMemory.load(path)


def _initial_proposal(victim, space: ConfigSpace, baseline: CleanBaseline,
                      memory: AttackMemory | None, config: RunConfig) -> ProposalDistribution:
    """Uniform proposal, warm-started from `memory` when there is one and the
    clean baseline recorded trajectories to summarize."""
    q0 = proposal.uniform(space.size)
    if memory is None or baseline.batch is None or not baseline.batch.trajectories:
        return q0
    summary = summarize(baseline.batch, victim.task_id, victim.horizon)
    retrieved = memory.retrieve(summary, config.retrieval.top_k)
    return warm_start(q0, retrieved, config.retrieval.strength, space).distribution


def _memory_record(victim, baseline: CleanBaseline, result: SearchResult,
                   memory: AttackMemory) -> MemoryRecord:
    """The record of a finished search, timestamped to go next into `memory`."""
    summary = summarize(baseline.batch, victim.task_id, victim.horizon)
    return MemoryRecord(task_id=victim.task_id, features=summary.features,
                        config=result.best_config, utility=result.best_report.utility,
                        drop=result.best_report.drop, flip=result.best_report.flip,
                        timestamp=memory.next_timestamp())


def run_search_mode(config: RunConfig, out_dir: Path) -> int:
    victim = build_victim(config)
    space = build_space(config)
    weights = build_weights(config)
    params = build_search_params(config)
    baseline = make_baseline(victim, config.victim.baseline_episodes,
                             Stream(config.seed, (1,)).generator())
    memory = _load_memory(config)
    q0 = _initial_proposal(victim, space, baseline, memory, config)
    result = run_search(victim, space, params, q0, baseline, weights,
                        record_proposals=config.search.dump_proposals)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trial_log(out_dir / "trial_log.jsonl", result.history, space)
    write_records(out_dir / "result.json",
                  [search_summary_record(result.history, space, result.best_index)])
    if config.search.dump_proposals:
        write_records(out_dir / "proposals.jsonl",
                      [{"round": i, "q": snap}
                       for i, snap in enumerate(result.history.proposal_snapshots)])
    if config.victim.dump_trajectories and baseline.batch is not None:
        rows = []
        for episode, trace in enumerate(baseline.batch.trajectories):
            for t in range(trace.rewards.size):
                rows.append({"episode": episode, "step": t,
                             "z": trace.latents[t], "z_hat_next": trace.predicted_next[t],
                             "u": int(trace.actions[t]), "r": float(trace.rewards[t]),
                             "margin": float(trace.margins[t])})
        write_records(out_dir / "trajectories.jsonl", rows)
    if config.search.update_memory:
        if memory is None:
            raise RunConfigError("update_memory requires retrieval.memory_path",
                                 key="retrieval.memory_path")
        memory.insert(_memory_record(victim, baseline, result, memory))
        memory.save(config.retrieval.memory_path)
    print(f"best {result.best_config.encode()}  U={result.best_report.utility:.6f}  "
          f"configs={len(result.history.evaluated)}  episodes={result.history.episodes_used}")
    return 0


# ----------------------------------------------------------------------
# oracle mode
# ----------------------------------------------------------------------


def run_oracle_mode(config: RunConfig, out_dir: Path) -> int:
    victim = build_victim(config)
    space = build_space(config)
    weights = build_weights(config)
    baseline = make_baseline(victim, config.victim.baseline_episodes,
                             Stream(config.seed, (1,)).generator())
    episodes = config.oracle.episodes if config.oracle.episodes > 0 else None
    umap = theory.brute_force_utility(victim, space, baseline, weights,
                                      episodes=episodes, seed=config.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["Config,D,F,T,V,U"]
    records = []
    for i, cfg in enumerate(space.configs):
        rows.append(",".join([f'"{cfg.encode()}"', _fmt(umap.drops[i]), _fmt(umap.flips[i]),
                              _fmt(umap.runtimes[i]), _fmt(umap.variabilities[i]),
                              _fmt(umap.utilities[i])]))
        records.append({"config": cfg.encode(), "D": umap.drops[i], "F": umap.flips[i],
                        "T": umap.runtimes[i], "V": umap.variabilities[i],
                        "U": umap.utilities[i]})
    _write_text(out_dir / "utility_map.csv", "\n".join(rows) + "\n")
    write_records(out_dir / "utility_map.jsonl", records)
    print(f"U* = {umap.u_star:.6f} at {umap.best_config.encode()}")
    return 0


# ----------------------------------------------------------------------
# theory mode
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float | None
    bound: float | None
    empirical: float | None
    standard_error: float | None
    passed: bool


def _random_distribution(rng: np.random.Generator, size: int) -> ProposalDistribution:
    return ProposalDistribution(rng.dirichlet(np.ones(size)))


def _identity_checks(rng: np.random.Generator, tuples: int) -> list[CheckRow]:
    rows = []
    dev_mass = dev_dual = dev_update = dev_noisy = dev_gap = 0.0
    for _ in range(tuples):
        size = int(rng.integers(2, 25))
        q = _random_distribution(rng, size)
        q_star = _random_distribution(rng, size)
        members = rng.random(size) < 0.5
        if not members.any():
            members[int(rng.integers(size))] = True
        gamma = float(rng.uniform(0.0, 5.0))
        indices = np.flatnonzero(members)
        corrected = proposal.correction_operator(q, q_star, gamma)
        lhs = corrected.mass(indices) - q.mass(indices)
        rhs = gamma / (1.0 + gamma) * (q_star.mass(indices) - q.mass(indices))
        dev_mass = max(dev_mass, abs(lhs - rhs))
        via_update = proposal.update(q, q_star, gamma / (1.0 + gamma))
        dev_update = max(dev_update, float(np.abs(corrected.probs - via_update.probs).max()))
        p = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.0, 1.0))
        xi = float(rng.uniform(0.0, 0.5))
        verdict = theory.noisy_correction_check(p, r, gamma, xi)
        two_atom = ProposalDistribution(np.array([p, 1.0 - p]))
        two_star = ProposalDistribution(np.array([r, 1.0 - r]))
        direct = proposal.correction_operator(two_atom, two_star, gamma).probs[0] - p
        dev_noisy = max(dev_noisy, abs(verdict.threshold - direct))
        g2 = float(rng.uniform(0.0, 5.0))
        dev_gap = max(dev_gap, abs(theory.baseline_gap(p, r, gamma, g2)
                                   - theory.baseline_gap_direct(p, r, gamma, g2)))
        # oracle case: all reference mass inside the member set
        star_in = np.where(members, q_star.probs, 0.0)
        star_in = ProposalDistribution(star_in / star_in.sum()) if star_in.sum() > 0 else None
        if star_in is not None:
            res = proposal.correction_operator(q, star_in, 1.0)
            residual = 1.0 - res.mass(indices)
            dev_dual = max(dev_dual, abs(residual - (1.0 - q.mass(indices)) / 2.0))
    rows.append(CheckRow("correction-mass-identity", dev_mass, 1e-12, None, None,
                         dev_mass <= 1e-12))
    rows.append(CheckRow("correction-residual-halving", dev_dual, 1e-12, None, None,
                         dev_dual <= 1e-12))
    rows.append(CheckRow("correction-equals-update", dev_update, 1e-15, None, None,
                         dev_update <= 1e-15))
    rows.append(CheckRow("noisy-correction-dual-path", dev_noisy, 1e-12, None, None,
                         dev_noisy <= 1e-12))
    rows.append(CheckRow("baseline-gap-dual-path", dev_gap, 1e-12, None, None,
                         dev_gap <= 1e-12))
    return rows


def _gibbs_checks(rng: np.random.Generator, space: ConfigSpace) -> list[CheckRow]:
    baselineless = theory.UtilityMap(
        space, rng.normal(size=space.size), np.zeros(space.size), np.zeros(space.size),
        np.zeros(space.size), np.zeros(space.size))
    uniform_dev = float(np.abs(theory.gibbs_reference(baselineless, 0.0).probs
                               - 1.0 / space.size).max())
    shifted = theory.UtilityMap(
        space, baselineless.utilities + 7.5, np.zeros(space.size), np.zeros(space.size),
        np.zeros(space.size), np.zeros(space.size))
    shift_dev = float(np.abs(theory.gibbs_reference(baselineless, 2.0).probs
                             - theory.gibbs_reference(shifted, 2.0).probs).max())
    etas = np.sort(rng.uniform(0.0, 2.0, size=8))
    sets = [theory.effective_set(baselineless, float(e)) for e in etas]
    monotone = all(set(a.indices) <= set(b.indices) for a, b in zip(sets, sets[1:]))
    grid = np.linspace(0.0, 1.0, 101)
    hit_dev = max(abs(theory.hit_probability(p, 1) - p) for p in grid)
    recip_dev = max(abs(theory.hitting_time_bound(p, 4)
                        * theory.hit_probability(p, 4) - 1.0)
                    for p in grid if p > 0)
    return [
        CheckRow("gibbs-uniform-at-beta-0", uniform_dev, 1e-12, None, None,
                 uniform_dev <= 1e-12),
        CheckRow("gibbs-shift-invariance", shift_dev, 1e-12, None, None,
                 shift_dev <= 1e-12),
        CheckRow("effective-set-monotone", 0.0 if monotone else 1.0, 0.0, None, None,
                 monotone),
        CheckRow("hit-probability-b1-identity", hit_dev, 1e-15, None, None,
                 hit_dev <= 1e-15),
        CheckRow("hitting-bound-reciprocal", recip_dev, 1e-12, None, None,
                 recip_dev <= 1e-12),
    ]


def _hitting_checks(config: RunConfig, rng_seed: int) -> list[CheckRow]:
    rows = []
    stream = Stream(rng_seed, (31,))
    q = ProposalDistribution(np.array([0.1, 0.9]))
    mask = np.array([True, False])
    report = theory.monte_carlo_hitting_time(q, mask, 8, config.theory.hitting_trials,
                                             stream.child(0).generator())
    rows.append(CheckRow("hitting-time-p0.1-b8", report.bound, report.bound,
                         report.empirical, report.standard_error, report.passed))
    pair_rng = stream.child(1).generator()
    for i in range(config.theory.random_pairs):
        p = float(pair_rng.uniform(0.05, 0.6))
        b = int(pair_rng.integers(1, 13))
        q_i = ProposalDistribution(np.array([p, 1.0 - p]))
        rep = theory.monte_carlo_hitting_time(q_i, mask, b, config.theory.pair_trials,
                                              stream.child(2, i).generator())
        rows.append(CheckRow(f"hitting-time-pair-{i}", rep.bound, rep.bound,
                             rep.empirical, rep.standard_error, rep.passed))
    # rising member mass via repeated correction toward an in-set reference
    p0, gamma = 0.05, 0.5
    q_seq = [ProposalDistribution(np.array([p0, 1.0 - p0]))]
    star = ProposalDistribution(np.array([1.0, 0.0]))
    for _ in range(60):
        q_seq.append(proposal.correction_operator(q_seq[-1], star, gamma))
    rep = theory.monte_carlo_hitting_time(q_seq, mask, 4, config.theory.pair_trials,
                                          stream.child(3).generator())
    rows.append(CheckRow("hitting-time-corrected-sequence", rep.bound, rep.bound,
                         rep.empirical, rep.standard_error, rep.passed))
    return rows


def _coverage_space() -> ConfigSpace:
    from .configspace import default_config_space
    return default_config_space(
        families=(AttackFamily.APGD_CE, AttackFamily.APGD_DLR),
        epsilon_overrides={AttackFamily.APGD_CE: (2, 4, 6, 8, 10, 12),
                           AttackFamily.APGD_DLR: (2, 4, 6, 8, 10, 12)},
        steps_overrides={AttackFamily.APGD_CE: (4, 8, 12, 16),
                         AttackFamily.APGD_DLR: (4, 8, 12, 16)})


def _coverage_check(config: RunConfig) -> list[CheckRow]:
    from .victims import surface_task
    space = _coverage_space()
    victim = surface_task("coverage-task", config.seed + 17, noise_scale=1.0)
    report = theory.coverage_experiment(
        victim, space, config.theory.coverage_episodes, config.theory.delta,
        config.theory.coverage_trials, config.seed, config.theory.eta,
        build_weights(config))
    return [
        CheckRow("hoeffding-uniform-coverage", report.zeta, report.required,
                 report.deviation_frequency, None, report.passed),
        CheckRow("hoeffding-eta-optimal-implication",
                 float(report.implication_violations), 0.0,
                 report.implication_frequency, None,
                 report.implication_violations == 0),
    ]


def theory_checks(config: RunConfig) -> list[CheckRow]:
    rng = Stream(config.seed, (23,)).generator()
    rows = _identity_checks(rng, config.theory.identity_tuples)
    rows += _gibbs_checks(rng, _coverage_space())
    rows += _hitting_checks(config, config.seed)
    rows += _coverage_check(config)
    return rows


def run_theory_mode(config: RunConfig, out_dir: Path) -> int:
    rows = theory_checks(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["Check,Value,Bound,Empirical,SE,Verdict"]
    width = max(len(r.name) for r in rows)
    for row in rows:
        verdict = "PASS" if row.passed else "FAIL"
        lines.append(",".join([row.name, _fmt_g(row.value), _fmt_g(row.bound),
                               _fmt_g(row.empirical), _fmt_g(row.standard_error), verdict]))
        print(f"{row.name:<{width}}  value={_fmt_g(row.value):>12}  "
              f"bound={_fmt_g(row.bound):>12}  empirical={_fmt_g(row.empirical):>12}  "
              f"se={_fmt_g(row.standard_error):>10}  {verdict}")
    _write_text(out_dir / "theory_verdicts.csv", "\n".join(lines) + "\n")
    failed = sum(not r.passed for r in rows)
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 1 if failed else 0


def _fmt_g(value: float | None) -> str:
    if value is None:
        return "--"
    return f"{value:.6g}"


# ----------------------------------------------------------------------
# memory mode
# ----------------------------------------------------------------------


def run_memory_mode(config: RunConfig, out_dir: Path) -> int:
    path = config.retrieval.memory_path
    if not path:
        raise RunConfigError("memory mode requires retrieval.memory_path",
                             key="retrieval.memory_path")
    space = build_space(config)
    weights = build_weights(config)
    tasks = surface_task_family(config.memory.family_seed, config.memory.tasks,
                                noise_scale=config.victim.noise,
                                horizon=config.victim.horizon,
                                task_prefix="mem", action_count=config.victim.action_count)
    memory = AttackMemory()
    for i, victim in enumerate(tasks):
        baseline = make_baseline(victim, config.victim.baseline_episodes,
                                 Stream(config.seed, (2, i)).generator())
        params = build_search_params(config, seed=Stream(config.seed, (3, i)).state_u64())
        result = run_search(victim, space, params, proposal.uniform(space.size),
                            baseline, weights)
        memory.insert(_memory_record(victim, baseline, result, memory))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    memory.save(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"memory written: {path} ({len(memory)} records)")
    return 0


# ----------------------------------------------------------------------
# bench mode
# ----------------------------------------------------------------------


def run_bench_mode(config: RunConfig, out_dir: Path) -> int:
    if config.victim.kind != "surface":
        raise RunConfigError("bench mode generates response-surface task families",
                             key="victim.kind")
    weights = build_weights(config)
    tasks = surface_task_family(config.bench.family_seed, config.bench.tasks,
                                noise_scale=config.bench.noise,
                                horizon=config.victim.horizon,
                                action_count=config.victim.action_count)
    memory = _load_memory(config)
    families = tuple(AttackFamily(f) for f in config.space.families)
    spaces = {f: build_space(replace(config, space=replace(config.space, families=(f.value,))))
              for f in families}
    methods = config.bench.methods
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, victim in enumerate(tasks):
        baseline = make_baseline(victim, config.victim.baseline_episodes,
                                 Stream(config.seed, (4, i)).generator())
        for family in families:
            space = spaces[family]
            scouts = set()
            for method in methods:
                seed = Stream(config.seed, (5, i, family.rank, methods.index(method))).state_u64()
                q0 = _initial_proposal(victim, space, baseline,
                                       memory if method == METHOD_FULL else None, config)
                result = run_search(victim, space, build_search_params(config, seed=seed), q0,
                                    baseline, weights, refine=method != METHOD_RANDOM)
                records = trial_records(result.history, space)
                write_records(out_dir / f"trials__{victim.task_id}__{family.value}__{method}.jsonl",
                              records)
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
    configs: int
    hit: bool
    trials_to_threshold: int | None
    curve: tuple[float, ...]


def _pair_stats(task: str, family: str, method: str, records) -> _PairStats:
    current: dict[str, dict] = {}
    for rec in records:
        current[rec["config"]] = rec
    best = max(current.values(), key=lambda r: r["U"])
    outcome = threshold_outcome(records, THRESHOLD_FRACTION)
    total_seconds = sum(r["T"] * r["episodes"] for r in records)
    configs = sum(1 for r in records if r["phase"] == "scout")
    curve = best_so_far_curve(records).best_after_trial
    return _PairStats(task, family, method, best["U"], best["D"], best["F"],
                      total_seconds, configs, outcome.hit,
                      outcome.trials_to_threshold, curve)


def collect_pair_stats(log_dir: Path) -> list[_PairStats]:
    stats = []
    for path in sorted(log_dir.glob("trials__*.jsonl")):
        match = _LOG_NAME.match(path.name)
        if not match:
            continue
        records = read_trial_log(path)
        if not records:
            continue
        stats.append(_pair_stats(match["task"], match["family"], match["method"], records))
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
        if not aggregates[method]:
            continue
        arr = np.array(aggregates[method])
        summary.append(",".join(["aggregate", method] + [_fmt(v) for v in arr.mean(axis=0)]))
    _write_text(out_dir / "summary.csv", "\n".join(summary) + "\n")

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
    _write_text(out_dir / "efficiency.csv", "\n".join(efficiency) + "\n")

    parity = [PARITY_HEADER]
    for s in sorted(stats, key=lambda s: (s.task, s.family, s.method)):
        parity.append(",".join([s.task, s.family, s.method, str(s.configs)]))
    _write_text(out_dir / "parity.csv", "\n".join(parity) + "\n")

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
    _write_text(out_dir / "curves.csv", "\n".join(curves) + "\n")


def run_report_mode(config: RunConfig, out_dir: Path) -> int:
    log_dir = Path(config.out_dir)
    write_report_files(log_dir, out_dir)
    print(f"report written to {out_dir}")
    return 0
