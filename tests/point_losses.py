"""Per-point losses and gradients of the attack objectives, kept as test oracles.

Synthesis runs the fused row objectives of `attacksearch.attacks`; these
one-observation forms are written independently of them, and the tests
hold the fused objectives equal to them bit for bit and check them
against finite differences.
"""

import numpy as np

from attacksearch.attacks import LinearAttackSurface, _softmax


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
