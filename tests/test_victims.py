import math
import pickle

import numpy as np
import pytest

from attacksearch.configspace import AllocationRule, AttackConfig, AttackFamily
from attacksearch.rngutil import Stream
from attacksearch.victims import (ResponseSurfaceVictim, surface_task,
                                  surface_task_family)


def cfg(family=AttackFamily.APGD_CE, epsilon=8, steps=6, restarts=1,
        alloc=AllocationRule.FIXED, seed=0):
    return AttackConfig(family, epsilon, steps, restarts, 0.75, seed, alloc)


# ---------------------------------------------------------------- surface


def test_surface_clean_returns_equal_j_clean(surface_victim):
    batch = surface_victim.clean_rollout(4, Stream(3).generator())
    assert batch.flips is None
    assert np.allclose(batch.returns, surface_victim.j_clean, rtol=1e-12)


def test_surface_noiseless_attacked_mean_exact(surface_victim):
    config = cfg(epsilon=12)
    batch = surface_victim.attacked_rollout(config, 5, Stream(4).generator())
    expected = surface_victim.attacked_return_mean(config)
    assert np.all(batch.returns == expected)
    assert batch.flip_rate_exact == surface_victim.flip_true(config)
    assert batch.elapsed_virtual == surface_victim.episode_seconds_true(config) * 5


def test_surface_drop_definition(surface_victim):
    config = cfg(epsilon=12)
    j = surface_victim.j_clean
    adv = surface_victim.attacked_return_mean(config)
    assert math.isclose((j - adv) / (abs(j) + 1.0), surface_victim.drop_true(config),
                        rel_tol=1e-12)


def test_surface_flip_monotone_in_epsilon(surface_victim):
    flips = [surface_victim.flip_true(cfg(epsilon=e)) for e in (2, 4, 8, 12, 16, 20)]
    assert all(b > a for a, b in zip(flips, flips[1:]))
    assert all(0.0 <= f <= 1.0 for f in flips)


def test_surface_bernoulli_flip_rate_within_three_se(noisy_surface_victim):
    config = cfg(epsilon=6)
    p = noisy_surface_victim.flip_true(config)
    episodes = 1000  # horizon 10 -> 10000 indicator draws
    batch = noisy_surface_victim.attacked_rollout(config, episodes, Stream(5).generator())
    n = batch.flips.size
    assert n == episodes * noisy_surface_victim.horizon
    se = math.sqrt(p * (1 - p) / n)
    assert abs(batch.flips.mean() - p) <= 3 * se


def test_surface_noise_bounded(noisy_surface_victim):
    config = cfg(epsilon=6)
    batch = noisy_surface_victim.attacked_rollout(config, 2000, Stream(6).generator())
    mean = noisy_surface_victim.attacked_return_mean(config)
    width = math.sqrt(3.0) * noisy_surface_victim.return_noise_scale(config)
    assert np.all(batch.returns >= mean - width)
    assert np.all(batch.returns <= mean + width)
    lo, hi = noisy_surface_victim.return_bounds([config])
    assert np.all(batch.returns >= lo) and np.all(batch.returns <= hi)


def test_surface_seed_determinism(noisy_surface_victim):
    config = cfg(epsilon=10)
    a = noisy_surface_victim.attacked_rollout(config, 7, Stream(7).generator())
    b = noisy_surface_victim.attacked_rollout(config, 7, Stream(7).generator())
    assert np.array_equal(a.returns, b.returns)
    assert np.array_equal(a.flips, b.flips)
    assert a.elapsed_virtual == b.elapsed_virtual


def test_surface_zero_episodes_rejected(surface_victim):
    with pytest.raises(ValueError):
        surface_victim.clean_rollout(0, Stream(1).generator())
    with pytest.raises(ValueError):
        surface_victim.attacked_rollout(cfg(), 0, Stream(1).generator())


def test_surface_family_clusters_share_optima():
    tasks = surface_task_family(9, 10, n_clusters=5)
    same = np.linalg.norm(np.array(tasks[0].theta) - np.array(tasks[5].theta))
    other = np.linalg.norm(np.array(tasks[0].theta) - np.array(tasks[1].theta))
    assert same < other


def test_surface_theta_validation():
    with pytest.raises(ValueError):
        ResponseSurfaceVictim("bad", (0.5,) * 7)
    with pytest.raises(ValueError):
        ResponseSurfaceVictim("bad", (0.5,) * 7 + (1.5,))


# ---------------------------------------------------------------- linear victim


def test_linear_clean_rollout_shape(linear_victim):
    batch = linear_victim.clean_rollout(3, Stream(8).generator())
    assert batch.flips is None
    assert batch.returns.shape == (3,)
    for trace in batch.trajectories:
        assert trace.latents.shape[1] == linear_victim.latent_dim
        assert trace.rewards.size <= linear_victim.horizon


def test_linear_observations_in_box(linear_victim):
    for cell in range(linear_victim.n_cells):
        obs = linear_victim.observe(cell)
        assert np.all(obs >= -0.5) and np.all(obs <= 0.5)


def test_linear_attacked_obs_within_budget(linear_victim):
    config = cfg(epsilon=10, steps=4)
    batch = linear_victim.attacked_rollout(config, 2, Stream(9).generator())
    bound = 10 / 255.0
    for trace in batch.trajectories:
        dev = np.abs(trace.perturbed - trace.observations).max()
        assert dev <= bound + np.finfo(float).eps
        assert np.all(trace.perturbed >= -0.5) and np.all(trace.perturbed <= 0.5)


def test_linear_zero_budget_no_flips(linear_victim):
    config = cfg(epsilon=0, steps=4)
    batch = linear_victim.attacked_rollout(config, 3, Stream(10).generator())
    assert not batch.flips.any()
    clean = linear_victim.clean_rollout(3, Stream(10).generator())
    assert np.array_equal(batch.returns, clean.returns)


def test_linear_rollout_determinism(linear_victim):
    config = cfg(epsilon=8, steps=6, family=AttackFamily.SQUARE)
    a = linear_victim.attacked_rollout(config, 2, Stream(11).generator())
    b = linear_victim.attacked_rollout(config, 2, Stream(11).generator())
    assert np.array_equal(a.returns, b.returns)
    assert np.array_equal(a.flips, b.flips)
    assert a.elapsed_virtual == b.elapsed_virtual
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.perturbed, tb.perturbed)


def test_linear_config_seed_changes_stochastic_attack(linear_victim):
    a = linear_victim.attacked_rollout(cfg(family=AttackFamily.SQUARE, epsilon=8, seed=0),
                                       2, Stream(12).generator())
    b = linear_victim.attacked_rollout(cfg(family=AttackFamily.SQUARE, epsilon=8, seed=1),
                                       2, Stream(12).generator())
    assert not all(np.array_equal(ta.perturbed, tb.perturbed)
                   for ta, tb in zip(a.trajectories, b.trajectories))


def test_environment_non_interference(linear_victim):
    before = pickle.dumps(linear_victim._weights)
    linear_victim.attacked_rollout(cfg(epsilon=16, steps=8), 2, Stream(13).generator())
    linear_victim.clean_rollout(2, Stream(13).generator())
    assert pickle.dumps(linear_victim._weights) == before


def test_margin_linear_allocation_uses_fewer_evaluations(linear_victim):
    fixed = linear_victim.attacked_rollout(cfg(epsilon=8, steps=12), 3,
                                           Stream(16).generator())
    adaptive = linear_victim.attacked_rollout(
        cfg(epsilon=8, steps=12, alloc=AllocationRule.MARGIN_LINEAR), 3,
        Stream(16).generator())
    assert adaptive.elapsed_virtual < fixed.elapsed_virtual


def test_effective_steps_range(linear_victim):
    config = cfg(steps=12, alloc=AllocationRule.MARGIN_LINEAR)
    assert linear_victim.effective_steps(config, 0.0) == 1
    assert linear_victim.effective_steps(config, 1.0) == 12
    assert 1 <= linear_victim.effective_steps(config, 0.4) <= 12
    fixed = cfg(steps=12, alloc=AllocationRule.FIXED)
    assert linear_victim.effective_steps(fixed, 0.1) == 12


def test_attack_hurts_returns_at_high_budget(linear_victim):
    clean = linear_victim.clean_rollout(6, Stream(17).generator())
    attacked = linear_victim.attacked_rollout(cfg(epsilon=20, steps=10), 6,
                                              Stream(17).generator())
    assert attacked.returns.mean() < clean.returns.mean()
    assert attacked.flips.mean() > 0.3
