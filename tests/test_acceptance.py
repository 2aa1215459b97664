"""Acceptance criteria, one test per criterion.

Each test enforces the stated tolerance and runtime budget and prints one
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see
them stream).
"""

import math
import time

import numpy as np
import pytest

from attacksearch import proposal
from attacksearch.attacks import (apply_perturbation, ce_grad, ce_loss,
                                  dlr_denominator, dlr_grad, dlr_loss)
from attacksearch.cli import main
from attacksearch.configspace import AttackFamily, default_config_space
from attacksearch.evaluation import DEFAULT_WEIGHTS, scalarize, make_baseline
from attacksearch.memory import AttackMemory, MemoryRecord, summarize, warm_start
from attacksearch.proposal import ProposalDistribution, correction_operator
from attacksearch.rngutil import Stream
from attacksearch.search import SearchParams, run_search
from attacksearch.theory import (brute_force_utility, coverage_experiment,
                                 hitting_time_bound, monte_carlo_hitting_time)
from attacksearch.victims import (LinearWorldModelVictim, surface_task,
                                  surface_task_family)

GEOMETRIC_MEAN_P01_B8 = 1.7558251562653666  # 1 / (1 - 0.9**8), independent script


def report_line(number, name, elapsed, limit, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS in {elapsed:.2f}s "
          f"(limit {limit:.0f}s){suffix}")
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def test_criterion_01_utility_arithmetic():
    start = time.perf_counter()
    rng = Stream(1, (1,)).generator()

    def independent(d, f, t, v):
        return (d + 0.25 * f - 0.15 * math.log(1.0 + t) - 0.05 * v)

    worst = 0.0
    for _ in range(10_000):
        d = float(rng.uniform(-2.0, 8.0))
        f = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 1e4))
        v = float(rng.uniform(0.0, 5.0))
        worst = max(worst, abs(scalarize(d, f, t, v, DEFAULT_WEIGHTS)
                               - independent(d, f, t, v)))
    assert worst <= 1e-12
    report_line(1, "utility-arithmetic", time.perf_counter() - start, 1.0,
                f"max deviation {worst:.2e}")


def test_criterion_02_threat_model_exactness():
    start = time.perf_counter()
    rng = Stream(2, (1,)).generator()
    ulp = np.finfo(float).eps
    for _ in range(10_000):
        d = int(rng.integers(1, 48))
        obs = rng.uniform(-0.5, 0.5, size=d)
        delta = rng.normal(0.0, 1.0, size=d) * rng.uniform(0.0, 4.0)
        epsilon = int(rng.integers(0, 256))
        out = apply_perturbation(obs, delta, epsilon)
        assert np.abs(out - obs).max() <= epsilon / 255.0 + ulp
        assert np.all(out >= -0.5) and np.all(out <= 0.5)
    report_line(2, "threat-model-exactness", time.perf_counter() - start, 5.0)


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    victim = LinearWorldModelVictim("grad-check")
    surface = victim.attack_surface
    rng = Stream(3, (1,)).generator()

    def central(fn, x, h=1e-6):
        grad = np.zeros_like(x)
        for i in range(x.size):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            grad[i] = (fn(up) - fn(down)) / (2.0 * h)
        return grad

    worst = 0.0
    for _ in range(100):
        obs = rng.uniform(-0.45, 0.45, size=victim.obs_dim)
        action = int(np.argmax(surface.logits(obs)))
        analytic = ce_grad(surface, obs, action)
        numeric = central(lambda x: ce_loss(surface, x, action), obs)
        worst = max(worst, np.linalg.norm(analytic - numeric)
                    / np.linalg.norm(numeric))
        denom = dlr_denominator(surface, obs)
        analytic = dlr_grad(surface, obs, action, denom)
        numeric = central(lambda x: dlr_loss(surface, x, action, denom), obs)
        worst = max(worst, np.linalg.norm(analytic - numeric)
                    / np.linalg.norm(numeric))
    assert worst < 1e-6
    report_line(3, "gradient-correctness", time.perf_counter() - start, 10.0,
                f"max relative error {worst:.2e}")


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    space = default_config_space(
        families=(AttackFamily.APGD_CE, AttackFamily.FAB),
        epsilon_overrides={AttackFamily.APGD_CE: (2, 6, 10, 14, 18),
                           AttackFamily.FAB: (2, 6, 10, 14, 18)},
        steps_overrides={AttackFamily.APGD_CE: (4, 12, 20),
                         AttackFamily.FAB: (8, 16, 24)})
    assert space.size <= 200
    matches = 0
    for i in range(20):
        victim = surface_task(f"oracle-{i:02d}", 900 + i)
        baseline = make_baseline(victim, 3, Stream(40, (i,)).generator())
        umap = brute_force_utility(victim, space, baseline)
        params = SearchParams(budget=space.size, batch_size=8, seed=i)
        result = run_search(victim, space, params, proposal.uniform(space.size),
                            baseline)
        matches += result.best_config == umap.best_config
        bests = [u for _, u in result.history.best_per_round]
        assert all(b >= a for a, b in zip(bests, bests[1:]))
        assert len(result.history.evaluated) == space.size
    assert matches == 20
    report_line(4, "oracle-equivalence", time.perf_counter() - start, 30.0,
                f"20/20 argmax matches over |C|={space.size}")


def test_criterion_05_correction_mass_identity():
    start = time.perf_counter()
    rng = Stream(5, (1,)).generator()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        q = ProposalDistribution(rng.dirichlet(np.ones(n)))
        q_star = ProposalDistribution(rng.dirichlet(np.ones(n)))
        members = rng.random(n) < 0.5
        if not members.any():
            members[int(rng.integers(n))] = True
        gamma = float(rng.uniform(0.0, 8.0))
        idx = np.flatnonzero(members)
        lhs = correction_operator(q, q_star, gamma).mass(idx) - q.mass(idx)
        rhs = gamma / (1.0 + gamma) * (q_star.mass(idx) - q.mass(idx))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    # residual halving: q*(G) = 1 at gamma = 1
    q = ProposalDistribution(np.array([0.15, 0.25, 0.6]))
    q_star = ProposalDistribution(np.array([0.5, 0.5, 0.0]))
    corrected = correction_operator(q, q_star, 1.0)
    residual = 1.0 - corrected.mass([0, 1])
    assert abs(residual - (1.0 - q.mass([0, 1])) / 2.0) <= 1e-15
    report_line(5, "correction-mass-identity", time.perf_counter() - start, 5.0,
                f"max deviation {worst:.2e}")


def test_criterion_06_hitting_time_bound():
    start = time.perf_counter()
    mask = np.array([True, False])
    q = ProposalDistribution(np.array([0.1, 0.9]))
    report = monte_carlo_hitting_time(q, mask, 8, 20_000, Stream(6, (0,)).generator())
    assert abs(report.empirical - GEOMETRIC_MEAN_P01_B8) <= 3 * report.standard_error
    assert report.empirical <= report.bound + 3 * report.standard_error
    pair_rng = Stream(6, (1,)).generator()
    for i in range(10):
        p = float(pair_rng.uniform(0.05, 0.7))
        b = int(pair_rng.integers(1, 13))
        rep = monte_carlo_hitting_time(
            ProposalDistribution(np.array([p, 1.0 - p])), mask, b, 20_000,
            Stream(6, (2, i)).generator())
        assert rep.empirical <= rep.bound + 3 * rep.standard_error
        assert abs(rep.empirical - hitting_time_bound(p, b)) <= 3 * rep.standard_error
    report_line(6, "hitting-time-bound", time.perf_counter() - start, 60.0,
                f"fixed-case mean {report.empirical:.4f} vs bound {report.bound:.4f}")


def test_criterion_07_noisy_correction_and_baseline_gap():
    start = time.perf_counter()
    from attacksearch.theory import (baseline_gap, baseline_gap_direct,
                                     noisy_correction_check)
    rng = Stream(7, (1,)).generator()
    worst = 0.0
    for _ in range(1000):
        p, r = (float(x) for x in rng.uniform(0.0, 1.0, size=2))
        gamma, gamma_base = (float(x) for x in rng.uniform(0.0, 6.0, size=2))
        q = ProposalDistribution(np.array([p, 1.0 - p]))
        q_star = ProposalDistribution(np.array([r, 1.0 - r]))
        threshold = noisy_correction_check(p, r, gamma, 0.0).threshold
        direct = correction_operator(q, q_star, gamma).probs[0] - p
        worst = max(worst, abs(threshold - direct))
        worst = max(worst, abs(baseline_gap(p, r, gamma, gamma_base)
                               - baseline_gap_direct(p, r, gamma, gamma_base)))
    assert worst <= 1e-12
    report_line(7, "noisy-correction-and-baseline-gap", time.perf_counter() - start,
                5.0, f"max deviation {worst:.2e}")


def test_criterion_08_hoeffding_coverage():
    start = time.perf_counter()
    space = default_config_space(
        families=(AttackFamily.APGD_CE, AttackFamily.APGD_DLR),
        epsilon_overrides={AttackFamily.APGD_CE: (2, 4, 6, 8, 10, 12),
                           AttackFamily.APGD_DLR: (2, 4, 6, 8, 10, 12)},
        steps_overrides={AttackFamily.APGD_CE: (4, 8, 12, 16),
                         AttackFamily.APGD_DLR: (4, 8, 12, 16)})
    assert space.size == 96
    victim = surface_task("coverage", 80, noise_scale=1.0)
    coverage, implication = coverage_experiment(victim, space, m=50, delta=0.1, trials=500,
                                                rng_seed=8, eta=0.05)
    assert coverage.empirical >= coverage.bound
    assert implication.value == 0.0
    report_line(8, "hoeffding-coverage", time.perf_counter() - start, 300.0,
                f"coverage {coverage.empirical:.3f} >= {coverage.bound:.3f}, "
                f"zeta {coverage.value:.4f}")


@pytest.fixture(scope="module")
def warm_start_family():
    """30 evaluation tasks plus a memory built from 20 prior tasks."""
    space = default_config_space()
    clean = surface_task_family(42, 50)
    noisy = surface_task_family(42, 50, noise_scale=0.5)
    memory = AttackMemory()
    for i, victim in enumerate(clean[:20]):
        baseline = make_baseline(victim, 3, Stream(90, (i,)).generator())
        summary = summarize(baseline.batch, victim.task_id, victim.horizon)
        umap = brute_force_utility(victim, space, baseline)
        best = umap.best_index
        memory.insert(MemoryRecord(
            victim.task_id, summary.features, space.configs[best],
            float(umap.utilities[best]), float(umap.drops[best]),
            float(umap.flips[best]), memory.next_timestamp()))
    memory = AttackMemory(records=memory.records)  # freeze normalization
    return space, memory, clean[20:], noisy[20:]


def _prepared(space, memory, tasks, seed_tag):
    out = []
    for i, victim in enumerate(tasks):
        baseline = make_baseline(victim, 3, Stream(seed_tag, (i,)).generator())
        summary = summarize(baseline.batch, victim.task_id, victim.horizon)
        retrieved = memory.retrieve(summary, 3)
        warm = warm_start(proposal.uniform(space.size), retrieved, 0.6, space)
        out.append((victim, baseline, warm.distribution))
    return out


def test_criterion_09_warm_start_ordering(warm_start_family):
    start = time.perf_counter()
    space, memory, clean_tasks, _ = warm_start_family
    prepared = _prepared(space, memory, clean_tasks, 91)
    q_uniform = proposal.uniform(space.size)
    wins = 0
    for seed in range(200):
        victim, baseline, q_warm = prepared[seed % 30]
        params = SearchParams(budget=4, batch_size=4, seed=seed)
        warm_first = run_search(victim, space, params, q_warm,
                                baseline).history.best_per_round[0][1]
        cold_first = run_search(victim, space, params, q_uniform,
                                baseline).history.best_per_round[0][1]
        wins += warm_first > cold_first
    assert wins >= 160  # 80% of 200
    report_line(9, "warm-start-ordering", time.perf_counter() - start, 300.0,
                f"{wins}/200 first-round wins")


def test_criterion_10_refinement_ordering(warm_start_family):
    start = time.perf_counter()
    space, memory, _, noisy_tasks = warm_start_family
    prepared = _prepared(space, memory, noisy_tasks, 92)
    q_uniform = proposal.uniform(space.size)
    wins = 0
    full_means, random_means, feedback_means = [], [], []
    for seed in range(200):
        full, rand, fb = [], [], []
        for ti, (victim, baseline, q_warm) in enumerate(prepared):
            params = SearchParams(budget=16, batch_size=4, seed=seed * 1000 + ti)
            full.append(run_search(victim, space, params, q_warm,
                                   baseline).history.best_per_round[-1][1])
            rand.append(run_search(victim, space, params, q_uniform, baseline,
                                   refine=False).history.best_per_round[-1][1])
            fb.append(run_search(victim, space, params, q_uniform,
                                 baseline).history.best_per_round[-1][1])
        full_means.append(np.mean(full))
        random_means.append(np.mean(rand))
        feedback_means.append(np.mean(fb))
        wins += full_means[-1] > random_means[-1]
    assert wins >= 180  # 90% of 200
    assert np.mean(full_means) > np.mean(feedback_means)
    report_line(10, "refinement-ordering", time.perf_counter() - start, 600.0,
                f"{wins}/200 seed wins; means full={np.mean(full_means):.3f} "
                f"random={np.mean(random_means):.3f} "
                f"feedback-only={np.mean(feedback_means):.3f}")


def test_criterion_11_determinism_and_parity(tmp_path):
    start = time.perf_counter()
    memory_path = tmp_path / "memory.jsonl"
    config = tmp_path / "run.yaml"
    config.write_text(f"""
seed: 5
out_dir: {tmp_path}/bench
space:
  families: [apgd-ce, fab]
search:
  budget: 6
  batch: 3
bench:
  tasks: 2
  noise: 0.3
retrieval:
  memory_path: '{memory_path}'
memory:
  tasks: 4
""")
    assert main(["memory", "--config", str(config)]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["search", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["search", "--config", str(config), "--out", str(out_b)]) == 0
    log_a = (out_a / "trial_log.jsonl").read_bytes()
    assert log_a == (out_b / "trial_log.jsonl").read_bytes()
    assert len(log_a) > 0

    assert main(["bench", "--config", str(config)]) == 0
    parity_rows = [line.split(",") for line in
                   (tmp_path / "bench" / "parity.csv").read_text().splitlines()[1:]]
    counts = {}
    for task, family, method, evaluated in parity_rows:
        counts.setdefault((task, family), set()).add(evaluated)
    assert counts and all(len(v) == 1 for v in counts.values())
    report_line(11, "determinism-and-parity", time.perf_counter() - start, 60.0,
                f"{len(parity_rows)} parity rows")
