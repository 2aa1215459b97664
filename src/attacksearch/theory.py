"""Exact quantities behind the search guarantees, validated by brute force
and Monte Carlo.

Covers the exhaustive utility map and its eta-effective sets, the Gibbs
reference distribution, the correction operator's mass identities, batch
hit probabilities and the hitting-time bound, the noisy-correction
sufficient condition, the gap between two correction strengths, and the
finite-episode uniform deviation bound with its coverage experiment.

`theory_checks` runs all of these as the `theory` mode's verdict table;
this module alone decides each verdict's tolerance and pass rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import AttackConfig, AttackFamily, ConfigSpace, default_config_space
from .evaluation import (DEFAULT_WEIGHTS, CleanBaseline, UtilityWeights,
                         estimate_utility)
from .proposal import ProposalDistribution, correction_operator, update
from .rngutil import Stream
from .victims import ResponseSurfaceVictim, surface_task


@dataclass(frozen=True)
class UtilityMap:
    """Per-configuration utility over a full enumerated space."""

    space: ConfigSpace
    utilities: np.ndarray
    drops: np.ndarray
    flips: np.ndarray
    runtimes: np.ndarray
    variabilities: np.ndarray

    def __post_init__(self) -> None:
        if self.utilities.shape != (self.space.size,):
            raise ValueError("utility map must cover the whole space")

    @property
    def u_star(self) -> float:
        return float(self.utilities.max())

    @property
    def best_index(self) -> int:
        """The lowest index of the maximal utility."""
        return int(np.argmax(self.utilities))

    @property
    def best_config(self) -> AttackConfig:
        return self.space.configs[self.best_index]


@dataclass(frozen=True)
class EffectiveSet:
    eta: float
    indices: tuple[int, ...]


# One-sided z of each Monte Carlo hitting-time verdict: NormalDist().inv_cdf(
# 1 - 1e-4), written out to keep `statistics` out of the import. Correct code
# fails such a verdict with probability 1e-4, and the dozen of them in a
# default theory run false-FAIL about 1e-3 of runs.
HITTING_TIME_Z = 3.7190164854557084


@dataclass(frozen=True)
class CheckRow:
    """One theory verdict: a value against its bound, plus the Monte Carlo
    estimate and its standard error where the verdict has them."""

    name: str
    value: float | None
    bound: float | None
    empirical: float | None
    standard_error: float | None
    passed: bool


def _within(name: str, deviation: float, tolerance: float) -> CheckRow:
    """An exact verdict: passes when `deviation` is at most `tolerance`."""
    return CheckRow(name, deviation, tolerance, None, None, deviation <= tolerance)


def _estimated_map(victim, space: ConfigSpace, baseline: CleanBaseline,
                   weights: UtilityWeights, episodes: int, stream: Stream) -> UtilityMap:
    """Every configuration estimated once from `episodes` episodes; config i
    draws from `stream.child(i)`."""
    n = space.size
    u = np.empty(n)
    d = np.empty(n)
    f = np.empty(n)
    t = np.empty(n)
    v = np.empty(n)
    for i, config in enumerate(space.configs):
        report = estimate_utility(victim, config, episodes, baseline,
                                  stream.child(i).generator(), weights)
        u[i], d[i], f[i] = report.utility, report.drop, report.flip
        t[i], v[i] = report.runtime, report.variability
    return UtilityMap(space, u, d, f, t, v)


def brute_force_utility(victim, space: ConfigSpace, baseline: CleanBaseline,
                        weights: UtilityWeights = DEFAULT_WEIGHTS,
                        episodes: int | None = None, seed: int = 0) -> UtilityMap:
    """Evaluate every configuration once through the standard estimator.

    Non-deterministic victims are refused unless an explicit episode count
    for averaging is supplied.
    """
    if episodes is None:
        if not victim.is_deterministic:
            raise ValueError("victim is not deterministic; supply episodes for averaging")
        episodes = 1
    return _estimated_map(victim, space, baseline, weights, episodes, Stream(seed, (7,)))


def brute_force_utility_reference(victim: ResponseSurfaceVictim, space: ConfigSpace,
                                  baseline: CleanBaseline,
                                  weights: UtilityWeights = DEFAULT_WEIGHTS) -> np.ndarray:
    """Independent nested-loop oracle for deterministic response surfaces.

    Shares no code with the estimator path: walks the grids directly and
    composes the utility inline from the victim's ground-truth surfaces.
    """
    if not victim.is_deterministic:
        raise ValueError("reference oracle requires a deterministic victim")
    out = []
    for family in space.families:
        grid = space.grids[family]
        for eps in grid.epsilons:
            for steps in grid.steps:
                for restarts in grid.restarts:
                    for rho in grid.rhos:
                        for sd in grid.seeds:
                            for alloc in grid.allocations:
                                cfg = AttackConfig(family, eps, steps, restarts,
                                                   rho, sd, alloc)
                                adv = victim.attacked_return_mean(cfg)
                                drop = (baseline.j_clean - adv) / (abs(baseline.j_clean) + 1.0)
                                flip = victim.flip_true(cfg)
                                runtime = victim.episode_seconds_true(cfg)
                                util = (drop + weights.flip * flip
                                        - weights.runtime * math.log(1.0 + runtime))
                                out.append(util)
    return np.array(out)


def population_utility_map(victim: ResponseSurfaceVictim, space: ConfigSpace,
                           weights: UtilityWeights = DEFAULT_WEIGHTS) -> UtilityMap:
    """Closed-form population utility for a (possibly noisy) response surface.

    The variability component is the exact return noise scale normalized by
    |J_clean| + 1, and the flip component is the exact flip probability. One
    array pass over `victim.surface_arrays(space)`.
    """
    drop, f, t, noise = victim.surface_arrays(space)
    denom = abs(victim.j_clean) + 1.0
    d = (victim.j_clean - (victim.j_clean - drop * denom)) / denom   # via attacked_return_mean
    v = noise / denom
    u = d + weights.flip * f - weights.runtime * np.log1p(t) - weights.variability * v
    return UtilityMap(space, u, d, f, t, v)


def effective_set(umap: UtilityMap, eta: float) -> EffectiveSet:
    """Configurations within eta of the maximal utility."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    mask = umap.utilities >= umap.u_star - eta
    return EffectiveSet(eta=eta, indices=tuple(int(i) for i in np.flatnonzero(mask)))


def gibbs_reference(umap: UtilityMap, beta: float) -> ProposalDistribution:
    """Softmax of beta * U over the space (uniform at beta = 0)."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    scaled = beta * umap.utilities
    weights = np.exp(scaled - scaled.max())
    return ProposalDistribution(weights / weights.sum())


def hit_probability(p: float, b: int) -> float:
    """Probability that a batch of b independent draws contains a hit."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    return 1.0 - (1.0 - p) ** b

def hitting_time_bound(p: float, b: int) -> float:
    """Upper bound on the expected first hitting round; inf when p = 0."""
    h = hit_probability(p, b)
    if h == 0.0:
        return math.inf
    return 1.0 / h


def monte_carlo_hitting_time(q, member_mask, b: int, trials: int,
                             rng: np.random.Generator,
                             max_rounds: int = 100_000,
                             name: str = "hitting-time") -> CheckRow:
    """Simulate rounds of b draws until one lands in the member set.

    `q` is either a single proposal or a per-round sequence of proposals
    (the last one repeating). The bound is always computed from the first
    round's member mass; the verdict passes when that mass is positive, no
    trial hits the round cap, and the mean hitting round is at most the
    bound plus `HITTING_TIME_Z` standard errors.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    sequence = list(q) if isinstance(q, (list, tuple)) else [q]
    mask = np.asarray(member_mask, dtype=bool)
    cdfs = [np.cumsum(dist.probs) for dist in sequence]
    p0 = float(sequence[0].probs[mask].sum())
    bound = hitting_time_bound(p0, b)

    hits = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    round_number = 0
    while active.size and round_number < max_rounds:
        cdf = cdfs[min(round_number, len(cdfs) - 1)]
        draws = np.searchsorted(cdf, rng.random((active.size, b)), side="right")
        np.clip(draws, 0, mask.size - 1, out=draws)
        hit = mask[draws].any(axis=1)
        round_number += 1
        hits[active[hit]] = round_number
        active = active[~hit]
    capped = active.size
    hits[active] = max_rounds
    mean = float(hits.mean())
    se = float(hits.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    passed = p0 > 0.0 and capped == 0 and mean <= bound + HITTING_TIME_Z * se
    return CheckRow(name, bound, bound, mean, se, passed)


@dataclass(frozen=True)
class NoisyCorrectionVerdict:
    guaranteed: bool
    threshold: float
    slack: float


def noisy_correction_check(p: float, r: float, gamma: float,
                           xi: float) -> NoisyCorrectionVerdict:
    """Improvement is guaranteed iff xi < gamma/(1+gamma) * (r - p), strictly."""
    for label, value in (("p", p), ("r", r)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{label} must lie in [0, 1], got {value}")
    if gamma < 0 or xi < 0:
        raise ValueError("gamma and xi must be >= 0")
    threshold = gamma / (1.0 + gamma) * (r - p)
    return NoisyCorrectionVerdict(guaranteed=xi < threshold,
                                  threshold=threshold, slack=threshold - xi)


def baseline_gap(p: float, r: float, gamma_ours: float, gamma_base: float) -> float:
    """Ideal corrected-mass difference between two correction strengths."""
    if gamma_ours < 0 or gamma_base < 0:
        raise ValueError("correction strengths must be >= 0")
    return ((gamma_ours - gamma_base) * (r - p)
            / ((1.0 + gamma_ours) * (1.0 + gamma_base)))


def baseline_gap_direct(p: float, r: float, gamma_ours: float,
                        gamma_base: float) -> float:
    """Same quantity via two explicit correction-operator evaluations."""
    q = ProposalDistribution(np.array([p, 1.0 - p]))
    q_star = ProposalDistribution(np.array([r, 1.0 - r]))
    ours = correction_operator(q, q_star, gamma_ours).probs[0]
    base = correction_operator(q, q_star, gamma_base).probs[0]
    return float(ours - base)


def hoeffding_bound(m: int, delta: float, space_size: int, r_min: float,
                    r_max: float, j_clean: float, w_flip: float) -> float:
    """Uniform finite-episode deviation bound over the whole space."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if r_max < r_min:
        raise ValueError("need r_max >= r_min")
    if space_size < 1:
        raise ValueError("space_size must be >= 1")
    root = math.sqrt(math.log(4.0 * space_size / delta) / (2.0 * m))
    return (r_max - r_min) / (abs(j_clean) + 1.0) * root + w_flip * root


def coverage_experiment(victim: ResponseSurfaceVictim, space: ConfigSpace,
                        m: int, delta: float, trials: int,
                        rng_seed: int, eta: float = 0.05,
                        weights: UtilityWeights = DEFAULT_WEIGHTS) -> list[CheckRow]:
    """Check the uniform deviation event and the near-optimality implication.

    Requires a victim with hard return bounds. Each trial estimates the
    utility of every configuration from m episodes and tests (a) that all
    estimates deviate from the population utility by at most zeta and
    (b) that every empirically eta-optimal configuration is population
    (eta + 2*zeta)-optimal.

    Returns two verdict rows: zeta with the frequency of (a) against
    1 - delta less three binomial SEs, and the covered trials that break
    (b) against 0.
    """
    if not hasattr(victim, "return_bounds"):
        raise ValueError("coverage experiment requires a victim with bounded returns")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r_min, r_max = victim.return_bounds(space.configs)
    zeta = hoeffding_bound(m, delta, space.size, r_min, r_max, victim.j_clean,
                           weights.flip)
    pop_u = population_utility_map(victim, space, weights).utilities
    pop_star = float(pop_u.max())
    baseline = CleanBaseline(j_clean=victim.j_clean)

    covered = 0
    implied = 0
    violations = 0
    stream = Stream(rng_seed, (404,))
    for trial in range(trials):
        estimates = _estimated_map(victim, space, baseline, weights, m,
                                   stream.child(trial)).utilities
        event_a = float(np.abs(estimates - pop_u).max()) <= zeta
        near_opt = estimates >= estimates.max() - eta
        event_b = bool(np.all(pop_u[near_opt] >= pop_star - eta - 2.0 * zeta))
        covered += event_a
        implied += event_b
        if event_a and not event_b:
            violations += 1
    freq_a = covered / trials
    freq_b = implied / trials
    se = math.sqrt(max(freq_a * (1.0 - freq_a), 1e-12) / trials)
    required = (1.0 - delta) - 3.0 * se
    passed = freq_a >= required and freq_b >= required and violations == 0
    return [
        CheckRow("hoeffding-uniform-coverage", zeta, required, freq_a, None, passed),
        CheckRow("hoeffding-eta-optimal-implication", float(violations), 0.0, freq_b,
                 None, violations == 0),
    ]


# ----------------------------------------------------------------------
# theory-mode verdicts
# ----------------------------------------------------------------------


def _random_distribution(rng: np.random.Generator, size: int) -> ProposalDistribution:
    return ProposalDistribution(rng.dirichlet(np.ones(size)))


def _identity_checks(rng: np.random.Generator, tuples: int) -> list[CheckRow]:
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
        corrected = correction_operator(q, q_star, gamma)
        lhs = corrected.mass(indices) - q.mass(indices)
        rhs = gamma / (1.0 + gamma) * (q_star.mass(indices) - q.mass(indices))
        dev_mass = max(dev_mass, abs(lhs - rhs))
        via_update = update(q, q_star, gamma / (1.0 + gamma))
        dev_update = max(dev_update, float(np.abs(corrected.probs - via_update.probs).max()))
        p = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.0, 1.0))
        xi = float(rng.uniform(0.0, 0.5))
        verdict = noisy_correction_check(p, r, gamma, xi)
        two_atom = ProposalDistribution(np.array([p, 1.0 - p]))
        two_star = ProposalDistribution(np.array([r, 1.0 - r]))
        direct = correction_operator(two_atom, two_star, gamma).probs[0] - p
        dev_noisy = max(dev_noisy, abs(verdict.threshold - direct))
        g2 = float(rng.uniform(0.0, 5.0))
        dev_gap = max(dev_gap, abs(baseline_gap(p, r, gamma, g2)
                                   - baseline_gap_direct(p, r, gamma, g2)))
        # oracle case: all reference mass inside the member set
        star_in = np.where(members, q_star.probs, 0.0)
        star_in = ProposalDistribution(star_in / star_in.sum()) if star_in.sum() > 0 else None
        if star_in is not None:
            res = correction_operator(q, star_in, 1.0)
            residual = 1.0 - res.mass(indices)
            dev_dual = max(dev_dual, abs(residual - (1.0 - q.mass(indices)) / 2.0))
    return [
        _within("correction-mass-identity", dev_mass, 1e-12),
        _within("correction-residual-halving", dev_dual, 1e-12),
        _within("correction-equals-update", dev_update, 1e-15),
        _within("noisy-correction-dual-path", dev_noisy, 1e-12),
        _within("baseline-gap-dual-path", dev_gap, 1e-12),
    ]


def _gibbs_checks(rng: np.random.Generator, space: ConfigSpace) -> list[CheckRow]:
    zeros = np.zeros(space.size)
    baselineless = UtilityMap(space, rng.normal(size=space.size), zeros, zeros, zeros, zeros)
    uniform_dev = float(np.abs(gibbs_reference(baselineless, 0.0).probs
                               - 1.0 / space.size).max())
    shifted = UtilityMap(space, baselineless.utilities + 7.5, zeros, zeros, zeros, zeros)
    shift_dev = float(np.abs(gibbs_reference(baselineless, 2.0).probs
                             - gibbs_reference(shifted, 2.0).probs).max())
    etas = np.sort(rng.uniform(0.0, 2.0, size=8))
    sets = [effective_set(baselineless, float(e)) for e in etas]
    monotone = all(set(a.indices) <= set(b.indices) for a, b in zip(sets, sets[1:]))
    grid = np.linspace(0.0, 1.0, 101)
    hit_dev = max(abs(hit_probability(p, 1) - p) for p in grid)
    recip_dev = max(abs(hitting_time_bound(p, 4) * hit_probability(p, 4) - 1.0)
                    for p in grid if p > 0)
    return [
        _within("gibbs-uniform-at-beta-0", uniform_dev, 1e-12),
        _within("gibbs-shift-invariance", shift_dev, 1e-12),
        _within("effective-set-monotone", 0.0 if monotone else 1.0, 0.0),
        _within("hit-probability-b1-identity", hit_dev, 1e-15),
        _within("hitting-bound-reciprocal", recip_dev, 1e-12),
    ]


def _hitting_checks(seed: int, section) -> list[CheckRow]:
    stream = Stream(seed, (31,))
    mask = np.array([True, False])
    rows = [monte_carlo_hitting_time(ProposalDistribution(np.array([0.1, 0.9])), mask, 8,
                                     section.hitting_trials, stream.child(0).generator(),
                                     name="hitting-time-p0.1-b8")]
    pair_rng = stream.child(1).generator()
    for i in range(section.random_pairs):
        p = float(pair_rng.uniform(0.05, 0.6))
        b = int(pair_rng.integers(1, 13))
        rows.append(monte_carlo_hitting_time(
            ProposalDistribution(np.array([p, 1.0 - p])), mask, b, section.pair_trials,
            stream.child(2, i).generator(), name=f"hitting-time-pair-{i}"))
    # rising member mass via repeated correction toward an in-set reference
    p0, gamma = 0.05, 0.5
    q_seq = [ProposalDistribution(np.array([p0, 1.0 - p0]))]
    star = ProposalDistribution(np.array([1.0, 0.0]))
    for _ in range(60):
        q_seq.append(correction_operator(q_seq[-1], star, gamma))
    rows.append(monte_carlo_hitting_time(q_seq, mask, 4, section.pair_trials,
                                         stream.child(3).generator(),
                                         name="hitting-time-corrected-sequence"))
    return rows


def _coverage_space() -> ConfigSpace:
    families = (AttackFamily.APGD_CE, AttackFamily.APGD_DLR)
    return default_config_space(
        families=families,
        epsilon_overrides=dict.fromkeys(families, (2, 4, 6, 8, 10, 12)),
        steps_overrides=dict.fromkeys(families, (4, 8, 12, 16)))


def _coverage_checks(seed: int, section, weights: UtilityWeights) -> list[CheckRow]:
    return coverage_experiment(surface_task("coverage-task", seed + 17, noise_scale=1.0),
                               _coverage_space(), section.coverage_episodes, section.delta,
                               section.coverage_trials, seed, section.eta, weights)


def theory_checks(seed: int, section, weights: UtilityWeights) -> list[CheckRow]:
    """Every theory-mode verdict, in table order.

    `section` is the run configuration's `theory` section: the sample
    sizes of each check plus the coverage experiment's delta and eta.
    """
    rng = Stream(seed, (23,)).generator()
    rows = _identity_checks(rng, section.identity_tuples)
    rows += _gibbs_checks(rng, _coverage_space())
    rows += _hitting_checks(seed, section)
    rows += _coverage_checks(seed, section, weights)
    return rows
