import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attacksearch import attacks
from attacksearch.attacks import (LinearAttackSurface, apply_perturbation, ce_grad,
                                  ce_loss, ce_rows, consistency_grad,
                                  consistency_loss, dlr_denominator, dlr_denominator_rows,
                                  dlr_grad, dlr_loss, dlr_rows, margin_loss, margin_rows,
                                  physcond_point, project_obs, synthesize_delta)
from attacksearch.configspace import (AllocationRule, AttackConfig, AttackFamily)
from attacksearch.rngutil import Stream


def make_surface(seed=0, n_actions=4, d=16, k=6) -> LinearAttackSurface:
    rng = Stream(seed, (55,)).generator()
    return LinearAttackSurface(
        logit_map=rng.normal(0.0, 0.4, size=(n_actions, d)),
        encoder=rng.normal(0.0, 0.3, size=(k, d)),
        dynamics=rng.normal(0.0, 0.3, size=(k, k)),
        action_in=rng.normal(0.0, 0.3, size=(k, n_actions)),
    )


def random_obs(rng, d=16):
    return rng.uniform(-0.45, 0.45, size=d)


# ---------------------------------------------------------------- projection


def test_zero_delta_is_identity(rng):
    obs = random_obs(rng)
    out = apply_perturbation(obs, np.zeros_like(obs), 8)
    assert np.array_equal(out, obs)


def test_boundary_projection():
    out = apply_perturbation(np.array([0.5]), np.array([1.0]), 255)
    assert out[0] == 0.5


def test_clip_to_budget_value():
    out = apply_perturbation(np.array([0.0]), np.array([0.1]), 8)
    assert out[0] == 0.03137254901960784  # 8/255, hand-checked


def test_negative_epsilon_rejected():
    with pytest.raises(ValueError):
        apply_perturbation(np.zeros(4), np.zeros(4), -1)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        apply_perturbation(np.zeros(4), np.zeros(5), 8)


@settings(max_examples=100, deadline=None)
@given(
    obs=hnp.arrays(np.float64, 12, elements=st.floats(-0.5, 0.5)),
    delta=hnp.arrays(np.float64, 12, elements=st.floats(-3.0, 3.0)),
    epsilon=st.integers(0, 255),
)
def test_perturbation_invariants(obs, delta, epsilon):
    out = apply_perturbation(obs, delta, epsilon)
    bound = epsilon / 255.0
    assert np.all(np.abs(out - obs) <= bound + np.finfo(float).eps)
    assert np.all(out >= -0.5) and np.all(out <= 0.5)


# ---------------------------------------------------------------- gradients


def central_difference(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("loss_name", ["ce", "dlr", "consistency", "physcond"])
def test_analytic_gradients_match_finite_differences(loss_name, rng):
    surface = make_surface()
    worst = 0.0
    for _ in range(25):
        obs = random_obs(rng)
        action = int(np.argmax(surface.logits(obs)))
        if loss_name == "ce":
            fn = lambda x: ce_loss(surface, x, action)
            grad = ce_grad(surface, obs, action)
        elif loss_name == "dlr":
            denom = dlr_denominator(surface, obs)
            fn = lambda x: dlr_loss(surface, x, action, denom)
            grad = dlr_grad(surface, obs, action, denom)
        elif loss_name == "consistency":
            target = rng.normal(size=surface.encoder.shape[0])
            fn = lambda x: consistency_loss(surface, x, target)
            grad = consistency_grad(surface, obs, target)
        else:
            target = rng.normal(size=surface.encoder.shape[0])
            fn = lambda x: (ce_loss(surface, x, action)
                            + 0.5 * consistency_loss(surface, x, target))
            grad = (ce_grad(surface, obs, action)
                    + 0.5 * consistency_grad(surface, obs, target))
        worst = max(worst, relative_error(grad, central_difference(fn, obs)))
    assert worst < 1e-6


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(4, 16, 6), (4, 64, 12), (3, 16, 4)])
def test_fused_objectives_match_reference_bit_for_bit(shape, rng):
    """Synthesis runs the fused objectives; the references are what the
    finite-difference test above checks."""
    n_actions, d, k = shape
    surface = make_surface(seed=d, n_actions=n_actions, d=d, k=k)
    x = rng.uniform(-0.5, 0.5, size=(30, d))
    actions = rng.integers(0, n_actions, size=30)
    denom = dlr_denominator_rows(surface, x)
    ce, ce_g = ce_rows(surface, x, actions)
    dlr, dlr_g = dlr_rows(surface, x, actions, denom)
    assert ce_rows(surface, x, actions, False)[1] is None
    assert same_bits(ce_rows(surface, x, actions, False)[0], ce)
    assert same_bits(dlr_rows(surface, x, actions, denom, False)[0], dlr)
    margins = margin_rows(surface, x, actions)
    for i, (row, action) in enumerate(zip(x, actions.tolist())):
        assert same_bits(ce[i], ce_loss(surface, row, action))
        assert same_bits(ce_g[i], ce_grad(surface, row, action))
        assert same_bits(denom[i], dlr_denominator(surface, row))
        assert same_bits(dlr[i], dlr_loss(surface, row, action, denom[i]))
        assert same_bits(dlr_g[i], dlr_grad(surface, row, action, denom[i]))
        assert same_bits(margins[i], margin_loss(surface, row, action))
        z = rng.normal(size=k)
        loss, grad = physcond_point(surface, row, action, z)
        assert same_bits(loss, ce_loss(surface, row, action)
                         + 0.5 * consistency_loss(surface, row, z))
        assert same_bits(grad, ce_grad(surface, row, action)
                         + 0.5 * consistency_grad(surface, row, z))
        assert physcond_point(surface, row, action, z, False) == (loss, None)


# ---------------------------------------------------------------- attack loops


def config_for(family, epsilon=8, steps=10, restarts=1):
    return AttackConfig(family, epsilon, steps, restarts, 0.75, 0,
                        AllocationRule.FIXED)


@pytest.mark.parametrize("family", list(AttackFamily))
def test_zero_budget_leaves_observation_unchanged(family, rng):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    result = synthesize_delta(surface, obs, action, config_for(family, epsilon=0),
                              10, Stream(5).generator())
    assert np.all(result.delta == 0.0)


@pytest.mark.parametrize("family", list(AttackFamily))
def test_delta_respects_budget(family, rng):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    config = config_for(family, epsilon=12, restarts=2)
    result = synthesize_delta(surface, obs, action, config, 12, Stream(6).generator())
    assert np.abs(result.delta).max() <= 12 / 255.0 + 1e-15


@pytest.mark.parametrize("family", list(AttackFamily))
def test_same_seed_same_delta(family, rng):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    config = config_for(family)
    a = synthesize_delta(surface, obs, action, config, 10, Stream(7).generator())
    b = synthesize_delta(surface, obs, action, config, 10, Stream(7).generator())
    assert np.array_equal(a.delta, b.delta)
    assert a.loss == b.loss


def test_gradient_attack_improves_loss(rng):
    surface = make_surface()
    improved = 0
    for _ in range(10):
        obs = random_obs(rng)
        action = int(np.argmax(surface.logits(obs)))
        result = synthesize_delta(surface, obs, action,
                                  config_for(AttackFamily.APGD_CE, epsilon=16),
                                  12, Stream(8).generator())
        base = ce_loss(surface, obs, action)
        attacked = ce_loss(surface, project_obs(obs + result.delta), action)
        improved += attacked > base
    assert improved >= 9


def test_single_pgd_step_is_signed_gradient(rng):
    # one step from zero: delta = step * sign(grad), step = eps/(255*4)
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    config = config_for(AttackFamily.APGD_CE, epsilon=8, steps=1)
    result = synthesize_delta(surface, obs, action, config, 1, Stream(9).generator())
    expected = (8 / 255.0 / 4.0) * np.sign(ce_grad(surface, obs, action))
    assert np.allclose(result.delta, expected)


def test_fab_finds_small_flipping_delta(rng):
    surface = make_surface()
    flipped = 0
    for _ in range(20):
        obs = random_obs(rng)
        action = int(np.argmax(surface.logits(obs)))
        result = synthesize_delta(surface, obs, action,
                                  config_for(AttackFamily.FAB, epsilon=64),
                                  12, Stream(10).generator())
        perturbed = project_obs(obs + result.delta)
        if margin_loss(surface, perturbed, action) > 0:
            flipped += 1
    assert flipped >= 16


def test_square_only_accepts_improvements(rng):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    config = config_for(AttackFamily.SQUARE, epsilon=20, steps=40)
    result = synthesize_delta(surface, obs, action, config, 40, Stream(11).generator())
    base = ce_loss(surface, obs, action)
    assert result.loss >= base
    values = np.unique(np.abs(result.delta))
    assert set(np.round(values, 12)) <= {0.0, round(20 / 255.0, 12)}


def test_restarts_keep_best_loss(rng):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    single = synthesize_delta(surface, obs, action,
                              config_for(AttackFamily.SQUARE, epsilon=16, steps=10),
                              10, Stream(12).generator())
    multi = synthesize_delta(surface, obs, action,
                             config_for(AttackFamily.SQUARE, epsilon=16, steps=10,
                                        restarts=5),
                             10, Stream(12).generator())
    assert multi.loss >= single.loss
    assert multi.loss_evals > single.loss_evals


def count_calls(monkeypatch, name):
    """Wrap `attacks.<name>` so each call is counted; returns the count list."""
    calls = []
    inner = getattr(attacks, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(attacks, name, counted)
    return calls


@pytest.mark.parametrize("family", [AttackFamily.APGD_CE, AttackFamily.APGD_DLR,
                                    AttackFamily.FAB])
@pytest.mark.parametrize("batched", [False, True])
def test_deterministic_row_family_runs_once_and_charges_restarts(family, batched, rng,
                                                                 monkeypatch):
    surface = make_surface()
    obs = rng.uniform(-0.45, 0.45, size=(5, 16))
    actions = np.argmax(obs @ surface.logit_map.T, axis=1)
    steps = [4, 9, 1, 6, 3]
    if not batched:
        obs, actions, steps = obs[1], int(actions[1]), steps[1]
    once = synthesize_delta(surface, obs, actions, config_for(family, epsilon=12), steps,
                            None)
    calls = count_calls(monkeypatch, "_row_kernel")
    thrice = synthesize_delta(surface, obs, actions,
                              config_for(family, epsilon=12, restarts=3), steps, None)
    assert len(calls) == 1
    assert same_bits(thrice.delta, once.delta) and same_bits(thrice.loss, once.loss)
    assert thrice.loss_evals == 3 * once.loss_evals
    if batched:
        assert thrice.row_evals.tolist() == [3 * e for e in once.row_evals.tolist()]
    else:
        assert thrice.row_evals is None and isinstance(thrice.loss, float)


@pytest.mark.parametrize("previous", [False, True])
def test_physcond_runs_once_and_charges_restarts(previous, rng, monkeypatch):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    prev = (rng.normal(0.0, 0.3, size=6), 2) if previous else (None, None)
    family = AttackFamily.PHYSCOND_WMA
    once = synthesize_delta(surface, obs, action, config_for(family, epsilon=12), 9, None,
                            *prev)
    calls = count_calls(monkeypatch, "_pgd_point")
    thrice = synthesize_delta(surface, obs, action,
                              config_for(family, epsilon=12, restarts=3), 9, None, *prev)
    assert len(calls) == 1
    assert same_bits(thrice.delta, once.delta) and same_bits(thrice.loss, once.loss)
    assert thrice.loss_evals == 3 * once.loss_evals == 3 * (9 + 2)


def test_square_restarts_continue_one_generator(rng, monkeypatch):
    surface = make_surface()
    obs = random_obs(rng)
    action = int(np.argmax(surface.logits(obs)))
    bound = 16 / 255.0
    gen = Stream(12).generator()
    runs = [attacks._square_search(surface, obs, action, bound, 10, gen) for _ in range(3)]
    expected = runs[0]
    for run in runs[1:]:
        if run[1] > expected[1]:
            expected = run
    calls = count_calls(monkeypatch, "_square_search")
    gen = Stream(12).generator()
    result = synthesize_delta(surface, obs, action,
                              config_for(AttackFamily.SQUARE, epsilon=16, restarts=3),
                              10, gen)
    assert len(calls) == 3 and all(call[-1] is gen for call in calls)
    assert same_bits(result.delta, expected[0]) and result.loss == expected[1]
    assert result.loss_evals == 3 * (10 + 1)


@pytest.mark.parametrize("family", [AttackFamily.APGD_CE, AttackFamily.APGD_DLR,
                                    AttackFamily.FAB])
def test_batched_call_with_per_row_steps(family, rng):
    surface = make_surface()
    obs = rng.uniform(-0.45, 0.45, size=(7, 16))
    actions = np.argmax(obs @ surface.logit_map.T, axis=1)
    steps = [3, 9, 1, 9, 5, 0, 2]
    config = config_for(family, epsilon=12, restarts=2)
    batch = synthesize_delta(surface, obs, actions, config, steps, None)
    extra = 1 if family is AttackFamily.FAB else 2
    assert batch.row_evals.tolist() == [2 * (s + extra) for s in steps]
    assert batch.loss_evals == sum(batch.row_evals.tolist())
    for i in range(len(obs)):
        one = synthesize_delta(surface, obs[i], int(actions[i]), config, steps[i], None)
        assert same_bits(batch.delta[i], one.delta) and same_bits(batch.loss[i], one.loss)
        assert isinstance(one.loss, float) and one.loss_evals == batch.row_evals[i]
