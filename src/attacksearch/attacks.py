"""Bounded observation perturbations and their synthesis.

All attacks operate on a linear victim surface (logits are a fixed linear
map of the observation) under an L-infinity budget of epsilon/255 in the
normalized observation range [-0.5, 0.5]. Each attack family is a
desk-scale analog that preserves the family's qualitative mechanism:
gradient ascent with an adaptive step schedule, a boundary-seeking
minimal-norm walk, random block proposals accepted on loss increase, and
gradient ascent with a latent-consistency term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import AttackConfig, AttackFamily

OBS_LO = -0.5
OBS_HI = 0.5
_TINY = 1e-12


def apply_perturbation(obs: np.ndarray, delta: np.ndarray, epsilon: int) -> np.ndarray:
    """Clip delta to the budget, add, and project back to the observation box.

    Componentwise the result never deviates from `obs` by more than
    epsilon/255 (the box projection can only shrink the deviation).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    obs = np.asarray(obs, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if obs.shape != delta.shape:
        raise ValueError(f"shape mismatch: obs {obs.shape} vs delta {delta.shape}")
    bound = epsilon / 255.0
    return np.clip(obs + np.clip(delta, -bound, bound), OBS_LO, OBS_HI)


def project_obs(x: np.ndarray) -> np.ndarray:
    return np.clip(x, OBS_LO, OBS_HI)


@dataclass(frozen=True)
class LinearAttackSurface:
    """The differentiable pieces of a linear victim an attacker touches.

    logit_map:  (n_actions, d), action logits as a linear map of the observation
    encoder:    (k, d), latent = encoder @ observation
    dynamics:   (k, k), latent transition applied to the previous latent
    action_in:  (k, n_actions), action contribution to the predicted latent
    """

    logit_map: np.ndarray
    encoder: np.ndarray
    dynamics: np.ndarray
    action_in: np.ndarray

    @property
    def n_actions(self) -> int:
        return self.logit_map.shape[0]

    def logits(self, obs: np.ndarray) -> np.ndarray:
        return self.logit_map @ obs

    def predicted_latent(self, z_prev: np.ndarray, action_prev: int) -> np.ndarray:
        return self.dynamics @ z_prev + self.action_in[:, action_prev]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def ce_loss(surface: LinearAttackSurface, obs: np.ndarray, action: int) -> float:
    """Cross entropy of `action` under the logits at `obs` (ascent target)."""
    logits = surface.logits(obs)
    shifted = logits - logits.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[action])


def ce_grad(surface: LinearAttackSurface, obs: np.ndarray, action: int) -> np.ndarray:
    probs = _softmax(surface.logits(obs))
    probs[action] -= 1.0
    return surface.logit_map.T @ probs


def dlr_denominator(surface: LinearAttackSurface, clean_obs: np.ndarray) -> float:
    """Top1 minus top3 clean logit gap (top2 when fewer than 3 actions)."""
    logits = np.sort(surface.logits(clean_obs))[::-1]
    third = logits[2] if logits.size >= 3 else logits[-1]
    return float(logits[0] - third) + 1e-9


def dlr_loss(surface: LinearAttackSurface, obs: np.ndarray, action: int,
             denom: float) -> float:
    """Best-competitor logit advantage over `action`, scaled by the clean gap."""
    logits = surface.logits(obs)
    rival = np.max(np.delete(logits, action))
    return float((rival - logits[action]) / denom)


def dlr_grad(surface: LinearAttackSurface, obs: np.ndarray, action: int,
             denom: float) -> np.ndarray:
    logits = surface.logits(obs)
    masked = logits.copy()
    masked[action] = -np.inf
    rival = int(np.argmax(masked))
    return (surface.logit_map[rival] - surface.logit_map[action]) / denom


def consistency_loss(surface: LinearAttackSurface, obs: np.ndarray,
                     z_target: np.ndarray) -> float:
    resid = surface.encoder @ obs - z_target
    return float(resid @ resid)


def consistency_grad(surface: LinearAttackSurface, obs: np.ndarray,
                     z_target: np.ndarray) -> np.ndarray:
    return 2.0 * (surface.encoder.T @ (surface.encoder @ obs - z_target))


def margin_loss(surface: LinearAttackSurface, obs: np.ndarray, action: int) -> float:
    """Maximum rival-minus-target logit gap; positive means the action flipped."""
    logits = surface.logits(obs)
    return float(np.max(np.delete(logits, action)) - logits[action])


@dataclass
class AttackResult:
    delta: np.ndarray
    loss: float
    loss_evals: int


def _pgd_ascent(loss_fn, grad_fn, obs: np.ndarray, bound: float, steps: int,
                rho: float) -> AttackResult:
    """Sign-gradient ascent with step halving when progress stalls.

    The step starts at a quarter of the budget and is halved whenever the
    fraction of loss-improving iterations over the last ceil(steps/4)
    checkpoints falls below rho.
    """
    delta = np.zeros_like(obs)
    step = bound / 4.0
    window = max(1, math.ceil(steps / 4))
    best_delta, best_loss = delta.copy(), loss_fn(project_obs(obs + delta))
    prev_loss = best_loss
    improved: list[bool] = []
    evals = 1
    for i in range(steps):
        x = project_obs(obs + delta)
        loss = loss_fn(x)
        grad = grad_fn(x)
        evals += 1
        if loss > best_loss:
            best_loss, best_delta = loss, delta.copy()
        improved.append(loss > prev_loss)
        prev_loss = loss
        if i > 0 and i % window == 0:
            frac = sum(improved[-window:]) / window
            if frac < rho:
                step /= 2.0
        delta = np.clip(delta + step * np.sign(grad), -bound, bound)
    final_loss = loss_fn(project_obs(obs + delta))
    evals += 1
    if final_loss > best_loss:
        best_loss, best_delta = final_loss, delta
    return AttackResult(best_delta, best_loss, evals)


def _fab_walk(surface: LinearAttackSurface, obs: np.ndarray, action: int,
              bound: float, steps: int) -> AttackResult:
    """Repeated minimal-L-infinity steps toward the closest decision boundary.

    Forward steps overshoot the boundary slightly; once across, backward
    steps understep so the walk polishes toward a minimal-norm point that
    stays flipped. Returns the smallest-norm flipped iterate when one was
    found, otherwise the final iterate.
    """
    delta = np.zeros_like(obs)
    evals = 0
    rows = surface.logit_map
    flipped_delta: np.ndarray | None = None
    flipped_norm = math.inf
    for _ in range(steps):
        x = project_obs(obs + delta)
        logits = rows @ x
        evals += 1
        if np.max(np.delete(logits, action)) > logits[action]:
            norm = float(np.abs(delta).max())
            if norm < flipped_norm:
                flipped_norm, flipped_delta = norm, delta.copy()
        best_t, best_dir = None, None
        for rival in range(surface.n_actions):
            if rival == action:
                continue
            w = rows[rival] - rows[action]
            gap = logits[action] - logits[rival]
            t = gap / (np.abs(w).sum() + _TINY)
            if best_t is None or abs(t) < abs(best_t):
                best_t, best_dir = t, np.sign(w)
        if best_dir is None:
            break
        factor = 1.05 if best_t >= 0 else 0.95
        delta = np.clip(delta + factor * best_t * best_dir, -bound, bound)
    final = project_obs(obs + delta)
    evals += 1
    if margin_loss(surface, final, action) <= 0 and flipped_delta is not None:
        delta = flipped_delta
    loss = margin_loss(surface, project_obs(obs + delta), action)
    return AttackResult(delta, loss, evals)


def _square_search(surface: LinearAttackSurface, obs: np.ndarray, action: int,
                   bound: float, steps: int, rng: np.random.Generator) -> AttackResult:
    """Random contiguous-block sign flips, accepted when the loss increases.

    Block length follows a geometric schedule: half the observation at
    first, halving every fifth of the budget.
    """
    d = obs.shape[0]
    delta = np.zeros_like(obs)
    best_loss = ce_loss(surface, project_obs(obs + delta), action)
    evals = 1
    for i in range(steps):
        frac = 0.5 * 2.0 ** (-((5 * i) // max(steps, 1)))
        length = max(1, min(d, int(round(d * frac))))
        start = int(rng.integers(0, d - length + 1))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        cand = delta.copy()
        cand[start:start + length] = sign * bound
        loss = ce_loss(surface, project_obs(obs + cand), action)
        evals += 1
        if loss > best_loss:
            delta, best_loss = cand, loss
    return AttackResult(delta, best_loss, evals)


# What synthesis reads beyond (obs, clean action, config, effective steps).
# A decision point that reads neither the step rng nor the previous step is
# a pure function of those four, so a rollout may synthesize it once and
# replay it; these two predicates are the only place that is decided.
def reads_step_rng(config: AttackConfig) -> bool:
    """Whether synthesis for `config` draws from the per-step generator."""
    return config.family is AttackFamily.SQUARE


def reads_previous_step(config: AttackConfig) -> bool:
    """Whether synthesis for `config` reads the previous latent and action."""
    return config.family is AttackFamily.PHYSCOND_WMA


def synthesize_delta(surface: LinearAttackSurface, obs: np.ndarray, action: int,
                     config: AttackConfig, effective_steps: int,
                     rng: np.random.Generator,
                     prev_latent: np.ndarray | None = None,
                     prev_action: int | None = None) -> AttackResult:
    """Craft a perturbation for one decision point.

    Runs the family's attack loop `config.restarts` times with distinct
    derived randomness and keeps the delta with the highest loss. The
    returned delta already satisfies the L-infinity budget; callers still
    project the perturbed observation to the box.
    """
    bound = config.epsilon / 255.0
    family = config.family
    best: AttackResult | None = None
    total_evals = 0
    for _ in range(max(1, config.restarts)):
        if family is AttackFamily.APGD_CE:
            result = _pgd_ascent(
                lambda x: ce_loss(surface, x, action),
                lambda x: ce_grad(surface, x, action),
                obs, bound, effective_steps, config.rho)
        elif family is AttackFamily.APGD_DLR:
            denom = dlr_denominator(surface, obs)
            result = _pgd_ascent(
                lambda x: dlr_loss(surface, x, action, denom),
                lambda x: dlr_grad(surface, x, action, denom),
                obs, bound, effective_steps, config.rho)
        elif family is AttackFamily.FAB:
            result = _fab_walk(surface, obs, action, bound, effective_steps)
        elif family is AttackFamily.SQUARE:
            result = _square_search(surface, obs, action, bound, effective_steps, rng)
        elif family is AttackFamily.PHYSCOND_WMA:
            if prev_latent is not None and prev_action is not None:
                z_target = surface.predicted_latent(prev_latent, prev_action)
            else:
                z_target = surface.encoder @ obs
            result = _pgd_ascent(
                lambda x: ce_loss(surface, x, action)
                + 0.5 * consistency_loss(surface, x, z_target),
                lambda x: ce_grad(surface, x, action)
                + 0.5 * consistency_grad(surface, x, z_target),
                obs, bound, effective_steps, config.rho)
        else:  # pragma: no cover - closed enumeration
            raise ValueError(f"unknown attack family: {family}")
        total_evals += result.loss_evals
        if best is None or result.loss > best.loss:
            best = result
    assert best is not None
    return AttackResult(best.delta, best.loss, total_evals)
