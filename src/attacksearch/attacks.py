"""Bounded observation perturbations and their synthesis.

All attacks operate on a linear victim surface (logits are a fixed linear
map of the observation) under an L-infinity budget of epsilon/255 in the
normalized observation range [-0.5, 0.5]. Each attack family is a
desk-scale analog that preserves the family's qualitative mechanism:
gradient ascent with an adaptive step schedule, a boundary-seeking
minimal-norm walk, random block proposals accepted on loss increase, and
gradient ascent with a latent-consistency term.

The families whose synthesis reads only the decision point (apgd-ce,
apgd-dlr and fab) run as row kernels: `obs` may be an (n, d) batch, one
independent decision point per row, and a single observation is a one-row
batch. A batched call must give each row the bits a one-row call gives it,
so every per-row matrix product is the stacked `rows_matvec`: numpy runs
one BLAS matrix-vector product per row, the same kernel on the same
operands as `M @ x` for one observation, so each dot product accumulates
in the same order. `X @ M.T`, `einsum` and multiply-then-sum hand the
work to other kernels that reassociate the sums and move the last bits.
Row-wise max, sum and argsort reduce each row on its own, and exp and log
act elementwise, so they stay bit-equal to the 1-D calls; tests hold a
batched call equal to one-row calls.
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
    # ndarray.clip runs the same ufunc as np.clip with less dispatch
    return x.clip(OBS_LO, OBS_HI)


def rows_matvec(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """`matrix @ row` for each row of `rows` (n, m), bit-equal to the 1-D product."""
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


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

    def logits(self, obs: np.ndarray) -> np.ndarray:
        return self.logit_map @ obs

    def predicted_latent(self, z_prev: np.ndarray, action_prev: int) -> np.ndarray:
        return self.dynamics @ z_prev + self.action_in[:, action_prev]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis (each row of a batch on its own)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# Cross entropy at one observation, which square reads. The fused
# objectives below serve every other family; the tests keep per-point
# losses and gradients (tests/point_losses.py) as oracles, hold the fused
# ones equal to them bit for bit, and check them against finite differences.


def ce_loss(surface: LinearAttackSurface, obs: np.ndarray, action: int) -> float:
    """Cross entropy of `action` under the logits at `obs` (ascent target)."""
    logits = surface.logits(obs)
    # the max of a few Python floats is the same number and much cheaper
    shifted = logits - max(logits.tolist())
    return float(np.log(np.exp(shifted).sum()) - shifted[action])


# ----------------------------------------------------------------------
# Fused objectives: loss and (optionally) gradient from one logit readout
# ----------------------------------------------------------------------


def ce_rows(surface: LinearAttackSurface, x: np.ndarray, actions: np.ndarray,
            with_grad: bool = True):
    """Cross entropy of each row of `x` (n, d) at its action, and its gradient;
    grad is None without with_grad."""
    rows = np.arange(x.shape[0])
    logits = rows_matvec(surface.logit_map, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    loss = np.log(total) - shifted[rows, actions]
    if not with_grad:
        return loss, None
    probs = e / total[:, None]
    probs[rows, actions] -= 1.0
    return loss, rows_matvec(surface.logit_map.T, probs)


def _rival_rows(logits: np.ndarray, actions: np.ndarray):
    """(row indices, own logit, best rival index) of each row."""
    rows = np.arange(logits.shape[0])
    masked = logits.copy()
    masked[rows, actions] = -np.inf
    return rows, logits[rows, actions], masked.argmax(axis=1)


def dlr_denominator_rows(surface: LinearAttackSurface, clean_obs: np.ndarray) -> np.ndarray:
    """Top1 minus top3 clean logit gap (top2 when fewer than 3 actions) of
    each row of `clean_obs` (n, d)."""
    logits = np.sort(rows_matvec(surface.logit_map, clean_obs), axis=1)
    third = logits[:, -3] if logits.shape[1] >= 3 else logits[:, 0]
    return (logits[:, -1] - third) + 1e-9


def dlr_rows(surface: LinearAttackSurface, x: np.ndarray, actions: np.ndarray,
             denom: np.ndarray, with_grad: bool = True):
    """Best-rival logit advantage over each row's action, scaled by its clean
    gap `denom`, and its gradient; grad is None without with_grad."""
    logits = rows_matvec(surface.logit_map, x)
    rows, own, rival = _rival_rows(logits, actions)
    loss = (logits[rows, rival] - own) / denom
    if not with_grad:
        return loss, None
    grad = (surface.logit_map[rival] - surface.logit_map[actions]) / denom[:, None]
    return loss, grad


def margin_rows(surface: LinearAttackSurface, x: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Best rival minus own logit of each row of `x` (n, d); positive means
    the action flipped."""
    logits = rows_matvec(surface.logit_map, x)
    rows, own, rival = _rival_rows(logits, actions)
    return logits[rows, rival] - own


def physcond_point(surface: LinearAttackSurface, x: np.ndarray, action: int,
                   z_target: np.ndarray, with_grad: bool = True):
    """`ce_loss` plus half the squared latent residual `|encoder @ x - z_target|^2`
    at one observation, and its gradient."""
    logits = surface.logit_map @ x
    shifted = logits - max(logits.tolist())   # as in ce_loss
    e = np.exp(shifted)
    total = e.sum()
    resid = surface.encoder @ x - z_target
    loss = float(np.log(total) - shifted[action]) + 0.5 * float(resid @ resid)
    if not with_grad:
        return loss, None
    probs = e / total
    probs[action] -= 1.0
    # half the residual's gradient 2 * encoder.T @ resid: halving it is exact
    return loss, surface.logit_map.T @ probs + surface.encoder.T @ resid


# ----------------------------------------------------------------------
# Attack loops
# ----------------------------------------------------------------------


@dataclass
class AttackResult:
    """A synthesized delta and its loss: (d,) and a float for one observation,
    (n, d) and (n,) for a batch, whose per-row counts are in `row_evals`."""

    delta: np.ndarray
    loss: float | np.ndarray
    loss_evals: int
    row_evals: np.ndarray | None = None


def _pgd_rows(objective, obs: np.ndarray, bound: float, steps: np.ndarray,
              rho: float):
    """Sign-gradient ascent with step halving, one independent row per decision point.

    Each row's step starts at a quarter of the budget and is halved whenever
    the fraction of loss-improving iterations over its last ceil(steps/4)
    checkpoints falls below rho. Rows arrive sorted by `steps`, descending,
    so the rows still iterating are always a prefix; `objective(x, with_grad)`
    reads the per-row parameters of the first len(x) rows. Returns each row's
    best delta, its loss, and the row's steps + 2 loss evaluations.
    """
    n = obs.shape[0]
    delta = np.zeros_like(obs)
    step = np.full(n, bound / 4.0)
    window = np.maximum(1, -(-steps // 4))
    best_loss = objective(project_obs(obs + delta), False)[0]
    best_delta = delta.copy()
    prev_loss = best_loss.copy()
    # improving iterations so far, per row; window sums are differences
    hits = np.zeros((n, int(steps.max(initial=0)) + 1), dtype=np.int64)
    for i in range(hits.shape[1] - 1):
        live = int(np.count_nonzero(steps > i))
        d = delta[:live]
        loss, grad = objective(project_obs(obs[:live] + d), True)
        better = loss > best_loss[:live]
        best_loss[:live][better] = loss[better]
        best_delta[:live][better] = d[better]
        hits[:live, i + 1] = hits[:live, i] + (loss > prev_loss[:live])
        prev_loss[:live] = loss
        if i > 0:
            due = np.flatnonzero(i % window[:live] == 0)
            if due.size:
                w = window[due]
                frac = (hits[due, i + 1] - hits[due, i + 1 - w]) / w
                step[due[frac < rho]] /= 2.0
        delta[:live] = (d + step[:live, None] * np.sign(grad)).clip(-bound, bound)
    final_loss = objective(project_obs(obs + delta), False)[0]
    better = final_loss > best_loss
    best_loss[better] = final_loss[better]
    best_delta[better] = delta[better]
    return best_delta, best_loss, steps + 2


def _pgd_point(objective, obs: np.ndarray, bound: float, steps: int,
               rho: float):
    """`_pgd_rows` for a single decision point whose objective reads its
    previous step; a one-row batch would cost it about half again as much."""
    delta = np.zeros_like(obs)
    step = bound / 4.0
    window = max(1, math.ceil(steps / 4))
    best_delta, best_loss = delta.copy(), objective(project_obs(obs + delta), False)[0]
    prev_loss = best_loss
    improved: list[bool] = []
    for i in range(steps):
        loss, grad = objective(project_obs(obs + delta), True)
        if loss > best_loss:
            best_loss, best_delta = loss, delta.copy()
        improved.append(loss > prev_loss)
        prev_loss = loss
        if i > 0 and i % window == 0:
            frac = sum(improved[-window:]) / window
            if frac < rho:
                step /= 2.0
        delta = (delta + step * np.sign(grad)).clip(-bound, bound)
    final_loss = objective(project_obs(obs + delta), False)[0]
    if final_loss > best_loss:
        best_loss, best_delta = final_loss, delta
    return best_delta, best_loss, steps + 2


def _fab_rows(surface: LinearAttackSurface, obs: np.ndarray, actions: np.ndarray,
              bound: float, steps: np.ndarray):
    """Repeated minimal-L-infinity steps toward the closest decision boundary.

    Forward steps overshoot the boundary slightly; once across, backward
    steps understep so the walk polishes toward a minimal-norm point that
    stays flipped. Each row returns its smallest-norm flipped iterate when
    one was found, otherwise its final iterate, with its loss and steps + 1
    loss evaluations. Rows arrive sorted by `steps`, descending, as in
    `_pgd_rows`.
    """
    weights = surface.logit_map
    # toward[a, r]: the logit-gap direction from action a to rival r, and its L1 scale
    toward = weights[None, :, :] - weights[:, None, :]
    scale = np.abs(toward).sum(axis=2) + _TINY
    delta = np.zeros_like(obs)
    flipped_delta = np.zeros_like(obs)
    flipped_norm = np.full(obs.shape[0], np.inf)
    for i in range(int(steps.max(initial=0))):
        live = int(np.count_nonzero(steps > i))
        act, d = actions[:live], delta[:live]
        logits = rows_matvec(weights, project_obs(obs[:live] + d))
        rows, own, rival = _rival_rows(logits, act)
        norm = np.abs(d).max(axis=1)
        better = (logits[rows, rival] > own) & (norm < flipped_norm[:live])
        flipped_norm[:live][better] = norm[better]
        flipped_delta[:live][better] = d[better]
        t = (own[:, None] - logits) / scale[act]
        reach = np.abs(t)
        reach[rows, act] = np.inf
        nearest = reach.argmin(axis=1)
        best_t = t[rows, nearest]
        factor = np.where(best_t >= 0, 1.05, 0.95)
        move = (factor * best_t)[:, None] * np.sign(toward[act, nearest])
        delta[:live] = (d + move).clip(-bound, bound)
    keep = (margin_rows(surface, project_obs(obs + delta), actions) <= 0) & (flipped_norm < np.inf)
    delta[keep] = flipped_delta[keep]
    return delta, margin_rows(surface, project_obs(obs + delta), actions), steps + 1


def _square_search(surface: LinearAttackSurface, obs: np.ndarray, action: int,
                   bound: float, steps: int, rng: np.random.Generator):
    """Random contiguous-block sign flips, accepted when the loss increases.

    Block length follows a geometric schedule: half the observation at
    first, halving every fifth of the budget. Returns the delta, its loss
    and the steps + 1 loss evaluations spent.
    """
    d = obs.shape[0]
    delta = np.zeros_like(obs)
    best_loss = ce_loss(surface, project_obs(obs + delta), action)
    for i in range(steps):
        frac = 0.5 * 2.0 ** (-((5 * i) // max(steps, 1)))
        length = max(1, min(d, int(round(d * frac))))
        start = int(rng.integers(0, d - length + 1))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        cand = delta.copy()
        cand[start:start + length] = sign * bound
        loss = ce_loss(surface, project_obs(obs + cand), action)
        if loss > best_loss:
            delta, best_loss = cand, loss
    return delta, best_loss, steps + 1


# What synthesis reads beyond (obs, clean action, config, effective steps).
# A decision point that reads neither the step rng nor the previous step is
# a pure function of those four, so a rollout may synthesize every cell's
# point in one batch; these two predicates are the only place that is decided.
def reads_step_rng(config: AttackConfig) -> bool:
    """Whether synthesis for `config` draws from the per-step generator."""
    return config.family is AttackFamily.SQUARE


def reads_previous_step(config: AttackConfig) -> bool:
    """Whether synthesis for `config` reads the previous latent and action."""
    return config.family is AttackFamily.PHYSCOND_WMA


def _row_kernel(surface: LinearAttackSurface, obs: np.ndarray, actions: np.ndarray,
                config: AttackConfig, steps: np.ndarray):
    """apgd-ce, apgd-dlr or fab over rows sorted by `steps`, descending."""
    bound = config.epsilon / 255.0
    if config.family is AttackFamily.FAB:
        return _fab_rows(surface, obs, actions, bound, steps)
    if config.family is AttackFamily.APGD_CE:
        objective = lambda x, g: ce_rows(surface, x, actions[:len(x)], g)
    else:
        denom = dlr_denominator_rows(surface, obs)
        objective = lambda x, g: dlr_rows(surface, x, actions[:len(x)], denom[:len(x)], g)
    return _pgd_rows(objective, obs, bound, steps, config.rho)


def synthesize_delta(surface: LinearAttackSurface, obs: np.ndarray, action,
                     config: AttackConfig, effective_steps,
                     rng: np.random.Generator | None,
                     prev_latent: np.ndarray | None = None,
                     prev_action: int | None = None) -> AttackResult:
    """Craft a perturbation for one decision point, or for a batch of them.

    Square runs its block search `config.restarts` times on one continuing
    generator and keeps the first delta of highest loss. Every other family
    is a pure function of the decision point, so a restart would repeat the
    first run bit for bit: its kernel runs once and `config.restarts` times
    its loss evaluations are charged. The returned delta already satisfies
    the L-infinity budget; callers still project the perturbed observation
    to the box. A family that reads neither the step rng nor the previous
    step also takes `obs` (n, d) with per-row `action` and
    `effective_steps`; the delta is then (n, d), the loss (n,), and
    `row_evals` holds each row's share of `loss_evals`.
    """
    restarts = config.restarts
    bound = config.epsilon / 255.0
    if reads_step_rng(config):
        # max keeps the first of equal losses
        delta, loss, evals = max((_square_search(surface, obs, action, bound,
                                                 effective_steps, rng)
                                  for _ in range(restarts)), key=lambda r: r[1])
        return AttackResult(delta, loss, restarts * evals)
    if reads_previous_step(config):
        z_target = (surface.encoder @ obs if prev_latent is None or prev_action is None
                    else surface.predicted_latent(prev_latent, prev_action))
        delta, loss, evals = _pgd_point(
            lambda x, g: physcond_point(surface, x, action, z_target, g),
            obs, bound, effective_steps, config.rho)
        return AttackResult(delta, loss, restarts * evals)
    single = np.ndim(obs) == 1
    batch = np.asarray(obs, dtype=float).reshape(-1, np.shape(obs)[-1])
    n = batch.shape[0]
    actions = np.broadcast_to(np.asarray(action, dtype=np.int64), n)
    steps = np.broadcast_to(np.asarray(effective_steps, dtype=np.int64), n)
    # sorted by steps, descending, the rows still iterating are a prefix
    order = np.argsort(-steps, kind="stable")
    delta, loss, evals = _row_kernel(surface, batch[order], actions[order], config,
                                     steps[order])
    out_delta, out_loss, row_evals = (np.empty_like(delta), np.empty_like(loss),
                                      np.empty_like(evals))
    out_delta[order], out_loss[order], row_evals[order] = delta, loss, restarts * evals
    if single:
        return AttackResult(out_delta[0], float(out_loss[0]), int(row_evals[0]))
    return AttackResult(out_delta, out_loss, int(row_evals.sum()), row_evals)
