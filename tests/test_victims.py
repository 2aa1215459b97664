import dataclasses
import math
import pickle

import numpy as np
import pytest

from attacksearch import attacks, victims
from attacksearch.configspace import AllocationRule, AttackConfig, AttackFamily
from attacksearch.rngutil import Stream
from attacksearch.victims import (EpisodeTrace, LinearWorldModelVictim,
                                  ResponseSurfaceVictim, surface_task,
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
    assert batch.flips is None and batch.trajectories == ()
    assert batch.flip_rate_exact == surface_victim.flip_true(config)
    assert batch.flip_fraction == batch.flip_rate_exact
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
    with pytest.raises(ValueError, match="action_count"):
        ResponseSurfaceVictim("bad", (0.5,) * 8, action_count=0)


def test_surface_horizon_validation():
    with pytest.raises(ValueError, match="horizon"):
        surface_task("bad", 1, horizon=0)


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


def test_linear_horizon_validation():
    with pytest.raises(ValueError, match="horizon"):
        LinearWorldModelVictim("bad", horizon=0)


def record_perturbations(monkeypatch) -> list:
    """Record every (obs, attacked obs) pair the victim module builds."""
    calls = []
    real = victims.apply_perturbation

    def apply(obs, delta, epsilon):
        out = real(obs, delta, epsilon)
        calls.append((np.array(obs), out))
        return out

    monkeypatch.setattr(victims, "apply_perturbation", apply)
    return calls


def test_linear_attacked_obs_within_budget(linear_victim, monkeypatch):
    calls = record_perturbations(monkeypatch)
    for family in AttackFamily:
        before = len(calls)
        linear_victim.attacked_rollout(cfg(family=family, epsilon=10, steps=4), 2,
                                       Stream(9).generator())
        assert len(calls) > before, family
    for obs, attacked in calls:
        assert np.abs(attacked - obs).max() <= 10 / 255.0 + np.finfo(float).eps
        assert np.all(attacked >= -0.5) and np.all(attacked <= 0.5)


def test_linear_zero_budget_no_flips(linear_victim):
    config = cfg(epsilon=0, steps=4)
    batch = linear_victim.attacked_rollout(config, 3, Stream(10).generator())
    assert not batch.flips.any()
    clean = linear_victim.clean_rollout(3, Stream(10).generator())
    assert np.array_equal(batch.returns, clean.returns)


def test_linear_rollout_determinism(linear_victim, monkeypatch):
    config = cfg(epsilon=8, steps=6, family=AttackFamily.SQUARE)
    calls = record_perturbations(monkeypatch)
    a = linear_victim.attacked_rollout(config, 2, Stream(11).generator())
    first = calls[:]
    b = linear_victim.attacked_rollout(config, 2, Stream(11).generator())
    assert np.array_equal(a.returns, b.returns)
    assert np.array_equal(a.flips, b.flips)
    assert a.elapsed_virtual == b.elapsed_virtual
    assert first and len(calls) == 2 * len(first)
    for (_, pa), (_, pb) in zip(first, calls[len(first):]):
        assert np.array_equal(pa, pb)


def test_linear_config_seed_changes_stochastic_attack(linear_victim, monkeypatch):
    calls = record_perturbations(monkeypatch)
    linear_victim.attacked_rollout(cfg(family=AttackFamily.SQUARE, epsilon=8, seed=0),
                                   2, Stream(12).generator())
    first = calls[:]
    linear_victim.attacked_rollout(cfg(family=AttackFamily.SQUARE, epsilon=8, seed=1),
                                   2, Stream(12).generator())
    second = calls[len(first):]
    assert first and second
    assert not (len(first) == len(second)
                and all(np.array_equal(pa, pb) for (_, pa), (_, pb) in zip(first, second)))


def test_linear_clean_table_is_read_only(linear_victim):
    for arr in linear_victim._clean_table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


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


# ---------------------------------------------------------------- per-rollout memo


def _reference_rollout(victim, config, episodes, rng):
    """The episode loop reading or synthesizing every decision point afresh,
    with no table and no memo; also returns the cells it visited."""
    root = int(rng.integers(2 ** 63))
    traces, returns, flips, cells = [], [], [], []
    virtual = 0.0
    for ep in range(episodes):
        cell = int(Stream(root, (ep,)).generator().integers(victim.n_cells))
        latents, preds, actions, rewards, margins = [], [], [], [], []
        latent, action = None, None
        for t in range(victim.horizon):
            obs = victim.observe(cell)
            clean_action, margin, clean_latent = victim._policy(obs)
            loss_evals = 0
            if config is None:
                action, latent = clean_action, clean_latent
            else:
                result = attacks.synthesize_delta(
                    victim.attack_surface, obs, clean_action, config,
                    victim.effective_steps(config, margin),
                    Stream(root, (ep, t, config.seed)).generator(), latent, action)
                attacked = attacks.apply_perturbation(obs, result.delta, config.epsilon)
                action, margin, latent = victim._policy(attacked)
                loss_evals = result.loss_evals
            flips.append(action != clean_action)
            cells.append(cell)
            preds.append(victim.attack_surface.predicted_latent(latent, action))
            cell, reward, done = victim.transition(cell, action)
            latents.append(latent)
            actions.append(action)
            rewards.append(reward)
            margins.append(margin)
            virtual += victim.step_cost_seconds + victim.gradient_cost_seconds * loss_evals
            if done:
                break
        traces.append(EpisodeTrace(
            latents=np.array(latents), predicted_next=np.array(preds),
            actions=np.array(actions), rewards=np.array(rewards),
            margins=np.array(margins)))
        returns.append(math.fsum(rewards))
    if config is not None:  # attacked rollouts record no trajectories
        return np.array(returns, dtype=float), np.array(flips, dtype=bool), virtual, (), cells
    return np.array(returns, dtype=float), None, virtual, tuple(traces), cells


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


MEMO_VICTIMS = {
    "default": LinearWorldModelVictim("memo-default", horizon=8),
    "small": LinearWorldModelVictim("memo-small", obs_dim=16, latent_dim=4, grid_size=3,
                                    horizon=10, weight_seed=5),
}


@pytest.mark.parametrize("shape", sorted(MEMO_VICTIMS))
@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize("epsilon", [0, 8])
@pytest.mark.parametrize("alloc", list(AllocationRule))
@pytest.mark.parametrize("family", [*AttackFamily, None])
def test_attacked_rollout_matches_per_step_reference(family, alloc, epsilon, restarts, shape):
    """`family` None pins the clean rollout, trajectories included."""
    victim = MEMO_VICTIMS[shape]
    if family is None:
        config = None
        batch = victim.clean_rollout(8, Stream(21).generator())
    else:
        config = cfg(family=family, epsilon=epsilon, steps=6, restarts=restarts, alloc=alloc,
                     seed=3)
        batch = victim.attacked_rollout(config, 8, Stream(21).generator())
    returns, flips, virtual, traces, _ = _reference_rollout(victim, config, 8,
                                                            Stream(21).generator())
    assert _same_bits(batch.returns, returns)
    assert _same_bits(batch.flips, flips)
    assert batch.elapsed_virtual == virtual
    assert len(batch.trajectories) == len(traces) == (8 if config is None else 0)
    for got, want in zip(batch.trajectories, traces):
        for field in dataclasses.fields(EpisodeTrace):
            assert _same_bits(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("family", list(AttackFamily))
def test_synthesis_calls_per_rollout(linear_victim, monkeypatch, family):
    rows, generators = [], []
    real_synth, real_generator = victims.synthesize_delta, Stream.generator

    def synth(*args):
        rows.append(len(args[1]) if np.ndim(args[1]) == 2 else 1)
        result = real_synth(*args)
        assert type(result.loss_evals) is int
        return result

    monkeypatch.setattr(victims, "synthesize_delta", synth)
    monkeypatch.setattr(Stream, "generator",
                        lambda self: generators.append(1) or real_generator(self))
    episodes = 8
    config = cfg(family=family, epsilon=8, steps=6)
    batch = linear_victim.attacked_rollout(config, episodes, Stream(22).generator())
    generators_before = 1  # the caller's rng above
    decisions = batch.flips.size
    monkeypatch.undo()
    *_, cells = _reference_rollout(linear_victim, config, episodes, Stream(22).generator())
    assert len(cells) == decisions
    distinct_cells = len(set(cells))
    if family is AttackFamily.SQUARE:
        assert rows == [1] * decisions
        assert len(generators) == generators_before + episodes + decisions
    else:
        assert len(generators) == generators_before + episodes
        if family is AttackFamily.PHYSCOND_WMA:
            assert set(rows) == {1} and distinct_cells <= len(rows) <= decisions
        else:
            assert rows == [linear_victim.n_cells]


@pytest.mark.parametrize("shape", sorted(MEMO_VICTIMS))
def test_policy_rows_match_policy(shape):
    victim = MEMO_VICTIMS[shape]
    obs = np.array([victim.observe(cell) for cell in range(victim.n_cells)])
    for noisy in (obs, attacks.project_obs(obs + Stream(5).generator().normal(0, 0.05, obs.shape))):
        actions, margins, latents = victim._policy_rows(noisy)
        for row, action, margin, latent in zip(noisy, actions, margins, latents):
            want_action, want_margin, want_latent = victim._policy(row)
            assert (action, margin) == (want_action, want_margin)
            assert _same_bits(latent, want_latent)


@pytest.mark.parametrize("shape", sorted(MEMO_VICTIMS))
@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize("epsilon", [0, 8])
@pytest.mark.parametrize("alloc", list(AllocationRule))
@pytest.mark.parametrize("family", [f for f in AttackFamily
                                    if not attacks.reads_step_rng(cfg(family=f))
                                    and not attacks.reads_previous_step(cfg(family=f))])
def test_grid_call_matches_one_row_calls(family, alloc, epsilon, restarts, shape):
    victim = MEMO_VICTIMS[shape]
    config = cfg(family=family, epsilon=epsilon, steps=6, restarts=restarts, alloc=alloc)
    obs = np.array([victim.observe(cell) for cell in range(victim.n_cells)])
    actions, margins, _ = victim._policy_rows(obs)
    steps = [victim.effective_steps(config, m) for m in margins]
    grid = attacks.synthesize_delta(victim.attack_surface, obs, actions, config, steps, None)
    assert grid.delta.shape == obs.shape and grid.loss.shape == (victim.n_cells,)
    assert grid.loss_evals == int(grid.row_evals.sum())
    for cell in range(victim.n_cells):
        one = attacks.synthesize_delta(victim.attack_surface, obs[cell], actions[cell],
                                       config, steps[cell], None)
        assert _same_bits(grid.delta[cell], one.delta)
        assert grid.loss[cell] == one.loss and np.signbit(grid.loss[cell]) == np.signbit(one.loss)
        assert grid.row_evals[cell] == one.loss_evals
