import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attacksearch.configspace import (AllocationRule, AttackConfig, AttackFamily,
                                      ConfigSpace, FamilyGrid)
from attacksearch.evaluation import (DEFAULT_WEIGHTS, CleanBaseline, UtilityWeights,
                                     estimate_utility, make_baseline, reward_drop,
                                     scalarize, scout_confirm, variability)
from attacksearch.rngutil import Stream
from attacksearch.victims import RolloutBatch, surface_task

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def cfg(epsilon=8, steps=6):
    return AttackConfig(AttackFamily.APGD_CE, epsilon, steps, 1, 0.75, 0,
                        AllocationRule.FIXED)


# ---------------------------------------------------------------- reward drop


def test_reward_drop_hand_value():
    assert math.isclose(reward_drop(100.0, 20.0), 0.7920792079207921, rel_tol=0, abs_tol=0)


def test_reward_drop_no_degradation():
    assert reward_drop(55.5, 55.5) == 0.0


def test_reward_drop_denominator_guard():
    assert reward_drop(0.0, -1.0) == 1.0


def test_reward_drop_sign_correct():
    assert reward_drop(10.0, 20.0) < 0.0


def test_reward_drop_rejects_non_finite():
    with pytest.raises(ValueError):
        reward_drop(float("nan"), 0.0)
    with pytest.raises(ValueError):
        reward_drop(0.0, float("inf"))


# ---------------------------------------------------------------- variability


def test_variability_zero_spread():
    assert variability([3.0, 3.0, 3.0], 10.0) == 0.0


def test_variability_hand_value():
    assert variability([0.0, 2.0], 1.0) == 0.5  # population std 1, denominator 2


def test_variability_single_return_rule():
    assert variability([42.0], 0.0) == 0.0


def test_variability_homogeneity():
    base = variability([1.0, 2.0, 5.0], 0.0)
    scaled = variability([3.0, 6.0, 15.0], 0.0)
    assert math.isclose(scaled, 3.0 * base, rel_tol=1e-12)


# ---------------------------------------------------------------- scalarize


def independent_scalar_evaluator(d, f, t, v, wf, wr, wv):
    # deliberately different expression structure from the implementation
    penalty = wr * math.log(1.0 + t)
    return d + wf * f - penalty - wv * v


def test_scalarize_hand_value():
    value = scalarize(0.5, 0.4, 60.0, 0.1)
    assert math.isclose(value, -0.02163107962599675, abs_tol=1e-15)


def test_scalarize_all_zero():
    assert scalarize(0.0, 0.0, 0.0, 0.0) == 0.0


def test_scalarize_zero_weights_degenerate():
    weights = UtilityWeights(0.0, 0.0, 0.0)
    assert scalarize(0.37, 0.9, 100.0, 5.0, weights) == 0.37


@pytest.mark.parametrize("bad", [-0.1, math.inf, math.nan])
@pytest.mark.parametrize("weight", ["flip", "runtime", "variability"])
def test_utility_weights_validation(weight, bad):
    with pytest.raises(ValueError, match="utility weights must be finite and >= 0"):
        UtilityWeights(**{weight: bad})


def test_scalarize_rejects_negative_runtime():
    with pytest.raises(ValueError):
        scalarize(0.0, 0.0, -1.0, 0.0)


def test_scalarize_rejects_non_finite():
    with pytest.raises(ValueError):
        scalarize(float("inf"), 0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(d=finite, f=st.floats(0, 1), t=st.floats(0, 1e6), v=st.floats(0, 1e6))
def test_scalarize_matches_independent_evaluator(d, f, t, v):
    w = DEFAULT_WEIGHTS
    expected = independent_scalar_evaluator(d, f, t, v, w.flip, w.runtime, w.variability)
    assert math.isclose(scalarize(d, f, t, v), expected, rel_tol=0, abs_tol=1e-12)


def test_scalarize_monotonicity():
    base = scalarize(0.5, 0.5, 10.0, 0.5)
    assert scalarize(0.6, 0.5, 10.0, 0.5) > base
    assert scalarize(0.5, 0.6, 10.0, 0.5) > base
    assert scalarize(0.5, 0.5, 20.0, 0.5) < base
    assert scalarize(0.5, 0.5, 10.0, 0.6) < base


# ---------------------------------------------------------------- estimation


def test_noiseless_estimate_matches_population(surface_victim, surface_baseline):
    config = cfg(epsilon=12)
    expected_drop = surface_victim.drop_true(config)
    for m in (1, 2, 5):
        report = estimate_utility(surface_victim, config, m, surface_baseline,
                                  Stream(20, (m,)).generator())
        assert math.isclose(report.drop, expected_drop, abs_tol=1e-12)
        assert report.flip == surface_victim.flip_true(config)
        assert report.runtime == pytest.approx(
            surface_victim.episode_seconds_true(config), rel=1e-12)
        assert report.variability == 0.0
        expected_u = scalarize(report.drop, report.flip, report.runtime, 0.0)
        assert report.utility == expected_u


def test_single_episode_variability_zero(noisy_surface_victim):
    baseline = CleanBaseline(j_clean=noisy_surface_victim.j_clean)
    report = estimate_utility(noisy_surface_victim, cfg(), 1, baseline,
                              Stream(21).generator())
    assert report.variability == 0.0


def test_noisy_estimate_within_three_standard_errors(noisy_surface_victim):
    config = cfg(epsilon=10)
    m = 10_000
    baseline = CleanBaseline(j_clean=noisy_surface_victim.j_clean)
    report = estimate_utility(noisy_surface_victim, config, m, baseline,
                              Stream(22).generator())
    v = noisy_surface_victim
    denom = abs(v.j_clean) + 1.0
    sigma = v.return_noise_scale(config)
    p = v.flip_true(config)
    pop_u = scalarize(v.drop_true(config), p, v.episode_seconds_true(config),
                      sigma / denom)
    se = (sigma / (denom * math.sqrt(m))
          + DEFAULT_WEIGHTS.flip * math.sqrt(p * (1 - p) / (m * v.horizon))
          + DEFAULT_WEIGHTS.variability * sigma / (denom * math.sqrt(2 * m)))
    assert abs(report.utility - pop_u) <= 3 * se


def test_recompute_identity(noisy_surface_victim):
    baseline = CleanBaseline(j_clean=noisy_surface_victim.j_clean)
    for i, config in enumerate([cfg(4), cfg(8), cfg(16)]):
        report = estimate_utility(noisy_surface_victim, config, 6, baseline,
                                  Stream(23, (i,)).generator())
        again = scalarize(report.drop, report.flip, report.runtime, report.variability)
        assert abs(again - report.utility) <= 1e-12


def test_estimate_rejects_zero_episodes(surface_victim, surface_baseline):
    with pytest.raises(ValueError):
        estimate_utility(surface_victim, cfg(), 0, surface_baseline,
                         Stream(1).generator())


def test_victim_failure_carries_config(surface_baseline):
    from attacksearch.evaluation import VictimEvaluationError

    class BrokenVictim:
        def attacked_rollout(self, config, episodes, rng):
            raise RuntimeError("rollout backend exploded")

    config = cfg(epsilon=6)
    with pytest.raises(VictimEvaluationError, match="eps=6"):
        estimate_utility(BrokenVictim(), config, 2, surface_baseline,
                         Stream(1).generator())


# ---------------------------------------------------------------- scout-confirm


def candidate_space(epsilons=(4, 8, 12), steps=(4, 10), seeds=(0,)):
    """APGD-CE configs like `cfg`'s, fixed allocation; indices run in
    (epsilon, steps, seed) order."""
    return ConfigSpace({AttackFamily.APGD_CE: FamilyGrid(
        epsilons=epsilons, steps=steps, seeds=seeds, allocations=(AllocationRule.FIXED,))})


def split(evaluations, batch):
    return evaluations[:len(batch)], evaluations[len(batch):]


def test_scout_confirm_budget_exact(surface_victim, surface_baseline):
    space = candidate_space()
    batch = [3, 0, 5, 1, 4, 2]
    evaluations = scout_confirm(surface_victim, space, batch, 2, 5, 3, surface_baseline,
                                Stream(24))
    scouts, confirms = split(evaluations, batch)
    assert sum(ev.report.episodes for ev in evaluations) == len(batch) * 2 + 3 * 5
    assert [ev.index for ev in scouts] == batch
    assert len(confirms) == 3
    assert all(ev.report.phase == "scout" for ev in scouts)
    assert all(ev.report.phase == "confirm" for ev in confirms)
    scout_u = {ev.index: ev.report.utility for ev in scouts}
    assert [ev.index for ev in confirms] == sorted(batch, key=lambda i: (-scout_u[i], i))[:3]


def test_scout_confirm_exhaustive_top_k(surface_victim, surface_baseline):
    space = candidate_space()
    batch = list(range(space.size))
    evaluations = scout_confirm(surface_victim, space, batch, 1, 2, len(batch),
                                surface_baseline, Stream(25))
    _, confirms = split(evaluations, batch)
    assert sorted(ev.index for ev in confirms) == batch


def test_scout_confirm_noiseless_ranking_stable(surface_victim, surface_baseline):
    space = candidate_space()
    batch = list(range(space.size))
    scouts, confirms = split(scout_confirm(surface_victim, space, batch, 2, 5, len(batch),
                                           surface_baseline, Stream(26)), batch)
    scout_rank = sorted(scouts, key=lambda ev: -ev.report.utility)
    confirm_by_index = {ev.index: ev.report.utility for ev in confirms}
    confirm_rank = sorted(scouts, key=lambda ev: -confirm_by_index[ev.index])
    assert [ev.index for ev in scout_rank] == [ev.index for ev in confirm_rank]


@pytest.mark.parametrize("batch", [[0, 1], [1, 0]])
def test_scout_confirm_tie_goes_to_the_lower_index(surface_victim, surface_baseline, batch):
    """The surface ignores the config seed, so the two configs score bit-equal;
    the lower index, which is the lower `sort_key`, is confirmed."""
    space = candidate_space(epsilons=(8,), steps=(6,), seeds=(0, 7))
    assert space.configs[0].sort_key() < space.configs[1].sort_key()
    scouts, confirms = split(scout_confirm(surface_victim, space, batch, 2, 5, 1,
                                           surface_baseline, Stream(27)), batch)
    assert scouts[0].report.utility == scouts[1].report.utility
    assert [ev.index for ev in confirms] == [0]


def test_scout_confirm_argument_validation(surface_victim, surface_baseline):
    space = candidate_space()
    batch = list(range(space.size))
    with pytest.raises(ValueError):
        scout_confirm(surface_victim, space, [], 1, 1, 1, surface_baseline, Stream(1))
    with pytest.raises(ValueError):
        scout_confirm(surface_victim, space, batch, 1, 1, 99, surface_baseline, Stream(1))
    with pytest.raises(ValueError):
        scout_confirm(surface_victim, space, batch, 0, 1, 1, surface_baseline, Stream(1))


def test_scout_confirm_identifies_best_under_small_noise():
    """Monte-Carlo oracle: with well-separated utilities and small noise the
    confirmed best matches the noiseless argmax in >= 99/100 seeded runs."""
    noiseless = surface_task("sc-task", 31)
    noisy = surface_task("sc-task", 31, noise_scale=0.05)
    baseline = CleanBaseline(j_clean=noiseless.j_clean)
    space = candidate_space(epsilons=(2, 8, 14, 20), steps=(4, 12, 20))
    batch = list(range(space.size))
    true_best = max(batch, key=lambda i: scalarize(
        noiseless.drop_true(space.configs[i]), noiseless.flip_true(space.configs[i]),
        noiseless.episode_seconds_true(space.configs[i]), 0.0))
    hits = 0
    for seed in range(100):
        _, confirms = split(scout_confirm(noisy, space, batch, 2, 5, 3, baseline,
                                          Stream(400, (seed,))), batch)
        best = max(confirms, key=lambda ev: ev.report.utility)
        hits += best.index == true_best
    assert hits >= 99


def test_make_baseline(surface_victim):
    baseline = make_baseline(surface_victim, 4, Stream(27).generator())
    assert math.isclose(baseline.j_clean, surface_victim.j_clean, rel_tol=1e-12)
    assert baseline.batch is not None and len(baseline.batch.trajectories) == 4


# ---------------------------------------------------------------- means without np.mean


class FixedBatchVictim:
    """Returns one prepared rollout batch, whatever it is asked."""

    def __init__(self, batch):
        self.batch = batch

    def attacked_rollout(self, config, episodes, rng):
        return self.batch


def same_bits(a: float, b: float) -> bool:
    return type(a) is type(b) is float and a.hex() == b.hex()


@settings(max_examples=200, deadline=None)
@given(returns=hnp.arrays(np.float64, st.integers(1, 64),
                          elements=st.floats(-1e9, 1e9, allow_nan=False)),
       flips=hnp.arrays(np.bool_, st.integers(1, 64)))
def test_means_match_np_mean_bit_for_bit(returns, flips):
    """flip_fraction and estimate_utility's mean return are np.mean's
    arithmetic: equal to float(np.mean(...)) to the bit, as Python floats."""
    batch = RolloutBatch(returns=returns, flips=flips, elapsed_wall=0.0,
                         elapsed_virtual=0.0)
    assert same_bits(batch.flip_fraction, float(np.mean(flips)))
    # with J_clean = 0 the drop is (0 - J_adv) / 1, which determines J_adv
    report = estimate_utility(FixedBatchVictim(batch), cfg(), returns.size,
                              CleanBaseline(j_clean=0.0), None)
    assert same_bits(report.drop, reward_drop(0.0, float(np.mean(returns))))
    assert same_bits(report.flip, float(np.mean(flips)))


magnitude = st.floats(1e-3, 1e3)


@settings(max_examples=500, deadline=None)
@given(returns=st.lists(st.tuples(magnitude, st.booleans()), min_size=2, max_size=12),
       j_clean=finite)
def test_variability_matches_np_std_bit_for_bit(returns, j_clean):
    """variability is np.std's arithmetic without its wrapper, to the bit."""
    arr = np.array([-m if negative else m for m, negative in returns])
    assert same_bits(variability(arr, j_clean), float(np.std(arr)) / (abs(j_clean) + 1.0))


def test_variability_matches_np_std_on_random_arrays():
    rng = Stream(17).generator()
    for _ in range(5000):
        size = int(rng.integers(2, 13))
        arr = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3, 3, size)
        j_clean = float(rng.normal(0.0, 50.0))
        assert same_bits(variability(arr, j_clean), float(np.std(arr)) / (abs(j_clean) + 1.0))
