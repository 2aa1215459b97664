import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from attacksearch import proposal, theory
from attacksearch.configspace import (AllocationRule, AttackFamily, ConfigSpace,
                                      FamilyGrid, default_config_space)
from attacksearch.evaluation import DEFAULT_WEIGHTS, CleanBaseline
from attacksearch.proposal import ProposalDistribution
from attacksearch.runconfig import TheorySpec
from attacksearch.search import SearchParams, run_search
from attacksearch.theory import (UtilityMap, baseline_gap, baseline_gap_direct,
                                 brute_force_utility, brute_force_utility_reference,
                                 coverage_experiment, effective_set, gibbs_reference,
                                 hit_probability, hitting_time_bound, hoeffding_bound,
                                 monte_carlo_hitting_time, noisy_correction_check,
                                 population_utility_map)


def tiny_space():
    return ConfigSpace(grids={
        AttackFamily.APGD_CE: FamilyGrid(epsilons=(2, 8, 16), steps=(4, 10)),
        AttackFamily.FAB: FamilyGrid(epsilons=(2, 8, 16), steps=(6, 12)),
    })


def random_umap(rng, size=50):
    space = ConfigSpace(grids={AttackFamily.APGD_CE: FamilyGrid(
        epsilons=tuple(range(2, 2 + size // 2)), steps=(4,),
        allocations=(AllocationRule.FIXED, AllocationRule.MARGIN_LINEAR))})
    assert space.size == size
    zeros = np.zeros(size)
    return UtilityMap(space, rng.normal(size=size), zeros, zeros, zeros, zeros)


# ---------------------------------------------------------------- brute force


def test_brute_force_toy_space(surface_victim, surface_baseline):
    space = tiny_space()
    umap = brute_force_utility(surface_victim, space, surface_baseline)
    assert umap.utilities.shape == (24,)
    assert umap.u_star == umap.utilities.max()
    assert umap.best_index in np.flatnonzero(umap.utilities == umap.utilities.max())


def test_brute_force_matches_independent_nested_loop(surface_victim, surface_baseline):
    space = default_config_space()
    primary = brute_force_utility(surface_victim, space, surface_baseline)
    reference = brute_force_utility_reference(surface_victim, space, surface_baseline)
    assert np.abs(primary.utilities - reference).max() <= 1e-12


def test_brute_force_refuses_noisy_without_episodes(noisy_surface_victim,
                                                    surface_baseline):
    with pytest.raises(ValueError):
        brute_force_utility(noisy_surface_victim, tiny_space(), surface_baseline)
    umap = brute_force_utility(noisy_surface_victim, tiny_space(), surface_baseline,
                               episodes=3)
    assert umap.utilities.shape == (24,)


def test_brute_force_agrees_with_exhaustive_search(surface_victim, surface_baseline):
    space = tiny_space()
    umap = brute_force_utility(surface_victim, space, surface_baseline)
    params = SearchParams(budget=space.size, batch_size=4, seed=7)
    result = run_search(surface_victim, space, params,
                        proposal.uniform(space.size), surface_baseline)
    assert result.best_config == umap.best_config


# ---------------------------------------------------------------- effective set


def test_effective_set_zero_eta_is_argmax(rng):
    umap = random_umap(rng)
    es = effective_set(umap, 0.0)
    assert set(es) == set(np.flatnonzero(umap.utilities == umap.utilities.max()))


def test_effective_set_full_tolerance(rng):
    umap = random_umap(rng)
    eta = umap.u_star - umap.utilities.min()
    assert len(effective_set(umap, eta)) == umap.utilities.size


def test_effective_set_matches_filter_oracle(rng):
    umap = random_umap(rng)
    eta = 0.1
    es = effective_set(umap, eta)
    oracle = [i for i, u in enumerate(umap.utilities) if u >= umap.u_star - eta]
    assert list(es) == oracle


def test_effective_set_monotone(rng):
    umap = random_umap(rng)
    sets = [effective_set(umap, eta) for eta in (0.0, 0.05, 0.2, 0.7, 2.0)]
    for small, large in zip(sets, sets[1:]):
        assert set(small) <= set(large)


def test_effective_set_rejects_negative_eta(rng):
    with pytest.raises(ValueError):
        effective_set(random_umap(rng), -0.1)


# ---------------------------------------------------------------- gibbs


def test_gibbs_uniform_at_beta_zero(rng):
    umap = random_umap(rng)
    q = gibbs_reference(umap, 0.0)
    assert np.abs(q.probs - 1.0 / q.size).max() <= 1e-12


def test_gibbs_concentrates_with_large_beta(rng):
    umap = random_umap(rng)
    utilities = umap.utilities.copy()
    best = int(np.argmax(utilities))
    gaps = np.sort(utilities)[::-1]
    if gaps[0] - gaps[1] < 0.5:  # enforce the documented 0.5 utility gap
        utilities[best] = gaps[1] + 0.6
    umap = UtilityMap(umap.space, utilities, umap.drops, umap.flips,
                      umap.runtimes, umap.variabilities)
    q = gibbs_reference(umap, 50.0)
    assert q.probs[np.argmax(utilities)] >= 1.0 - 1e-6


def test_gibbs_shift_invariance(rng):
    umap = random_umap(rng)
    shifted = UtilityMap(umap.space, umap.utilities + 123.456, umap.drops,
                         umap.flips, umap.runtimes, umap.variabilities)
    dev = np.abs(gibbs_reference(umap, 3.0).probs
                 - gibbs_reference(shifted, 3.0).probs).max()
    assert dev <= 1e-12


# ---------------------------------------------------------------- hit / bound


def test_hit_probability_certain():
    assert hit_probability(1.0, 3) == 1.0
    assert hitting_time_bound(1.0, 3) == 1.0


def test_hit_probability_hand_value():
    h = hit_probability(0.1, 8)
    assert math.isclose(h, 0.5695327899999999, abs_tol=1e-15)
    assert math.isclose(hitting_time_bound(0.1, 8), 1.7558251562653666, abs_tol=1e-12)


def test_hit_probability_monotone():
    ps = np.linspace(0.0, 1.0, 100)
    hs = [hit_probability(p, 4) for p in ps]
    assert all(b >= a for a, b in zip(hs, hs[1:]))
    bs = [hit_probability(0.3, b) for b in range(1, 101)]
    assert all(b >= a for a, b in zip(bs, bs[1:]))


def test_hit_probability_b1_identity():
    for p in np.linspace(0.0, 1.0, 101):
        assert abs(hit_probability(float(p), 1) - p) <= 1e-15


def test_zero_mass_bound_is_infinite():
    assert hitting_time_bound(0.0, 8) == math.inf


def test_hit_probability_validation():
    with pytest.raises(ValueError):
        hit_probability(1.5, 2)
    with pytest.raises(ValueError):
        hit_probability(0.5, 0)


# ---------------------------------------------------------------- monte carlo


def test_point_mass_inside_hits_first_round(rng):
    q = proposal.point_mass(4, 1)
    mask = np.array([False, True, False, False])
    report = monte_carlo_hitting_time(q, mask, 2, 500, rng)
    assert report.empirical == 1.0
    assert report.passed


def test_hitting_time_within_three_se(rng):
    q = ProposalDistribution(np.array([0.1, 0.9]))
    mask = np.array([True, False])
    report = monte_carlo_hitting_time(q, mask, 8, 20_000, rng)
    geometric_mean = 1.7558251562653666
    assert abs(report.empirical - geometric_mean) <= 3 * report.standard_error
    assert report.empirical <= report.bound + 3 * report.standard_error
    assert report.passed


def test_rising_mass_sequence_beats_fixed_bound(rng):
    p0, gamma = 0.08, 0.8
    q0 = ProposalDistribution(np.array([p0, 1.0 - p0]))
    star = proposal.point_mass(2, 0)
    sequence = [q0]
    for _ in range(40):
        sequence.append(proposal.correction_operator(sequence[-1], star, gamma))
    mask = np.array([True, False])
    report = monte_carlo_hitting_time(sequence, mask, 4, 5000, rng)
    assert report.bound == pytest.approx(hitting_time_bound(p0, 4))
    assert report.empirical <= report.bound + 3 * report.standard_error
    assert report.passed


def test_zero_mass_reports_no_guarantee(rng):
    q = proposal.point_mass(3, 2)
    mask = np.array([True, False, False])
    report = monte_carlo_hitting_time(q, mask, 2, 50, rng, max_rounds=64)
    assert not report.passed
    assert math.isinf(report.bound)


def test_hitting_time_verdict_rejects_bound_for_one_more_draw(monkeypatch):
    """The default p0.1-b8 verdict keeps its power at the 1e-4 level.

    A bound computed for b+1 = 9 draws sits about 15 standard errors below
    the true mean at the default trial count, so the verdict must FAIL it.
    """
    assert theory.HITTING_TIME_Z == NormalDist().inv_cdf(1.0 - 1e-4)
    section = replace(TheorySpec(), identity_tuples=1, random_pairs=1,
                      coverage_trials=1, coverage_episodes=1)

    def p01_b8_row():
        rows = theory.theory_checks(0, section, DEFAULT_WEIGHTS)
        return next(row for row in rows if row.name == "hitting-time-p0.1-b8")

    assert p01_b8_row().passed
    exact = theory.hitting_time_bound
    monkeypatch.setattr(theory, "hitting_time_bound", lambda p, b: exact(p, b + 1))
    mutant = p01_b8_row()
    assert mutant.bound == exact(0.1, 9)
    assert mutant.empirical - mutant.bound > 10 * mutant.standard_error
    assert not mutant.passed


# ---------------------------------------------------------------- noisy correction


def test_noisy_correction_noiseless_reduces_to_exact():
    verdict = noisy_correction_check(0.2, 0.8, 1.0, 0.0)
    assert verdict.guaranteed
    assert verdict.threshold == pytest.approx(0.3, abs=1e-15)


def test_noisy_correction_boundary_strict():
    verdict = noisy_correction_check(0.2, 0.8, 1.0, 0.3)
    assert verdict.threshold == pytest.approx(0.3, abs=1e-12)
    assert verdict.slack == pytest.approx(0.0, abs=1e-12)
    # strictness at an exactly representable threshold: xi == threshold fails
    exact = noisy_correction_check(0.25, 0.75, 1.0, 0.25)
    assert exact.threshold == 0.25
    assert not exact.guaranteed


def test_noisy_correction_no_gap_no_guarantee():
    for xi in (0.0, 0.1):
        assert not noisy_correction_check(0.5, 0.5, 2.0, xi).guaranteed


def test_noisy_correction_threshold_matches_operator(rng):
    for _ in range(1000):
        p, r = rng.uniform(0, 1, size=2)
        gamma = rng.uniform(0, 5)
        verdict = noisy_correction_check(p, r, gamma, 0.0)
        q = ProposalDistribution(np.array([p, 1 - p]))
        q_star = ProposalDistribution(np.array([r, 1 - r]))
        direct = proposal.correction_operator(q, q_star, gamma).probs[0] - p
        assert abs(verdict.threshold - direct) <= 1e-12


# ---------------------------------------------------------------- baseline gap


def test_baseline_gap_equal_strengths_zero():
    assert baseline_gap(0.3, 0.7, 1.5, 1.5) == 0.0


def test_baseline_gap_hand_value():
    assert baseline_gap(0.2, 0.8, 2.0, 0.5) == pytest.approx(0.2, abs=1e-15)


def test_baseline_gap_dual_path(rng):
    for _ in range(1000):
        p, r = rng.uniform(0, 1, size=2)
        g_ours, g_base = rng.uniform(0, 5, size=2)
        closed = baseline_gap(p, r, g_ours, g_base)
        direct = baseline_gap_direct(p, r, g_ours, g_base)
        assert abs(closed - direct) <= 1e-12


# ---------------------------------------------------------------- hoeffding


def test_hoeffding_decays_with_episodes():
    zeta = hoeffding_bound(10 ** 8, 0.1, 96, 0.0, 1.0, 0.0, 0.25)
    assert zeta < 1e-3


def test_hoeffding_zero_range_keeps_flip_term():
    m, delta, size, wf = 50, 0.1, 96, 0.25
    zeta = hoeffding_bound(m, delta, size, 5.0, 5.0, 0.0, wf)
    root = math.sqrt(math.log(4 * size / delta) / (2 * m))
    assert zeta == pytest.approx(wf * root, abs=1e-15)


def test_hoeffding_hand_value():
    zeta = hoeffding_bound(100, 0.05, 96, 0.0, 1.0, 0.0, 0.25)
    assert math.isclose(zeta, 0.2643738892728103, abs_tol=1e-12)


def test_hoeffding_validation():
    with pytest.raises(ValueError):
        hoeffding_bound(0, 0.1, 96, 0.0, 1.0, 0.0, 0.25)
    with pytest.raises(ValueError):
        hoeffding_bound(10, 1.5, 96, 0.0, 1.0, 0.0, 0.25)
    with pytest.raises(ValueError):
        hoeffding_bound(10, 0.1, 96, 1.0, 0.0, 0.0, 0.25)


# ---------------------------------------------------------------- population map


def test_population_map_noiseless_matches_brute_force(surface_victim,
                                                      surface_baseline):
    space = tiny_space()
    pop = population_utility_map(surface_victim, space)
    brute = brute_force_utility(surface_victim, space, surface_baseline)
    assert np.abs(pop.utilities - brute.utilities).max() <= 1e-10


# ---------------------------------------------------------------- coverage


def test_coverage_noiseless_exact(surface_victim):
    space = tiny_space()
    estimated = brute_force_utility(surface_victim, space,
                                    CleanBaseline(j_clean=surface_victim.j_clean),
                                    episodes=3)
    population = population_utility_map(surface_victim, space)
    assert np.abs(estimated.utilities - population.utilities).max() <= 1e-10
    rows = coverage_experiment(surface_victim, space, m=3, delta=0.1, trials=5,
                               rng_seed=0)
    assert rows[0].empirical == 1.0
    assert rows[1].value == 0.0
    assert all(row.passed for row in rows)


def test_coverage_bounded_noise(noisy_surface_victim):
    space = tiny_space()
    rows = coverage_experiment(noisy_surface_victim, space, m=20, delta=0.1,
                               trials=60, rng_seed=1)
    assert rows[0].empirical >= rows[0].bound
    assert rows[1].value == 0.0
    assert all(row.passed for row in rows)


def test_coverage_requires_bounded_victim(linear_victim):
    with pytest.raises(ValueError):
        coverage_experiment(linear_victim, tiny_space(), m=2, delta=0.1, trials=2,
                            rng_seed=0)
