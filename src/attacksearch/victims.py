"""Pluggable simulated victims.

Two built-ins:

* `ResponseSurfaceVictim` - a task parameterized by a small vector theta
  that maps every attack configuration to a ground-truth expected reward
  drop, flip probability, per-episode evaluation time, and return noise
  scale. Rollouts draw from those surfaces directly, which makes large
  search experiments cheap and gives the theory checks a closed-form
  population utility. Tasks with nearby theta have nearby optimal
  configurations.

* `LinearWorldModelVictim` - a gridworld with deterministic dynamics and a
  random start cell, whose agent acts through a linear encoder, linear
  latent dynamics, and a softmax-linear policy. Observation attacks are
  genuinely executed against this victim: clean and attacked rollouts are
  one episode loop, and the attacked one perturbs each observation before
  the policy reads it. Perturbations are synthesized per decision point,
  projected to the epsilon/255 ball and the observation box, and the
  environment advances with the attacked action while its dynamics stay
  untouched. Each victim builds one read-only table of every cell's clean
  decision point from its weights. Clean steps read it; the families whose
  synthesis reads only the cell (apgd-ce, apgd-dlr, fab) are attacked for
  every cell in one row-batched synthesis call per rollout. physcond-wma
  synthesizes per step from the previous latent and action, memoized
  within the call, and square per step from its own stream. The virtual
  clock charges every decision point. Only clean rollouts return
  trajectories.

Both victims are immutable parameter records plus pure rollout functions; given
equal seeds and arguments, rollouts are bit-reproducible except for the
measured wall-clock field (utilities only ever consume the virtual clock).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from . import attacks
from .attacks import (LinearAttackSurface, _softmax, apply_perturbation, rows_matvec,
                      synthesize_delta)
from .configspace import (EPSILON_RANGES, STEPS_RANGES, AllocationRule, AttackConfig,
                          AttackFamily, ConfigSpace)
from .rngutil import Stream

THETA_DIM = 8
HORIZON = 10    # decision points per episode: both victims' default
# Spread of a family task's theta around its cluster centre.
TASK_JITTER = 0.02

# Each family's default epsilon and steps ranges as float (lo, hi - lo)
# pairs, built once: the response surface reads them on every evaluation.
_SURFACE_RANGES = {
    family: tuple(float(x) for lo, hi, _ in (EPSILON_RANGES[family], STEPS_RANGES[family])
                  for x in (lo, hi - lo))
    for family in EPSILON_RANGES}
# The same ranges as rows (e_lo, e_span, s_lo, s_span) by family rank, for whole-space arrays.
_SURFACE_RANGE_ROWS = np.array([_SURFACE_RANGES[family] for family in AttackFamily]).T


@dataclass(frozen=True)
class EpisodeTrace:
    """Per-step records of one episode (struct-of-arrays layout)."""

    latents: np.ndarray           # (T, k)
    predicted_next: np.ndarray    # (T, k); row t predicts the latent at t+1
    actions: np.ndarray           # (T,)
    rewards: np.ndarray           # (T,)
    margins: np.ndarray           # (T,) top-2 policy probability gap


class CleanTable(NamedTuple):
    """Every cell's clean decision point, one read-only row per cell."""

    obs: np.ndarray               # (n_cells, d)
    actions: np.ndarray           # (n_cells,) greedy clean action
    margins: np.ndarray           # (n_cells,)
    latents: np.ndarray           # (n_cells, k)
    preds: np.ndarray             # (n_cells, k) predicted next latent


@dataclass(frozen=True)
class RolloutBatch:
    returns: np.ndarray                     # (episodes,)
    flips: np.ndarray | None                # (decisions,) bool; attacked only
    elapsed_wall: float                     # measured; never enters utilities
    elapsed_virtual: float                  # deterministic clock, seconds
    trajectories: tuple[EpisodeTrace, ...] = ()
    flip_rate_exact: float | None = None    # set by fully deterministic victims

    def __post_init__(self) -> None:
        if self.returns.size < 1:
            raise ValueError("rollout batch must contain at least one episode")
        if self.elapsed_virtual < 0 or self.elapsed_wall < 0:
            raise ValueError("elapsed time must be >= 0")

    @property
    def flip_fraction(self) -> float:
        if self.flip_rate_exact is not None:
            return self.flip_rate_exact
        if self.flips is None or self.flips.size == 0:
            return 0.0
        # np.mean's arithmetic (exact count over size), as a Python float
        return int(np.count_nonzero(self.flips)) / self.flips.size


def _require_episodes(episodes: int) -> None:
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


@dataclass(frozen=True)
class ResponseSurfaceVictim:
    """Analytic stand-in victim driven by a task parameter vector."""

    task_id: str
    theta: tuple[float, ...]
    noise_scale: float = 0.0
    horizon: int = HORIZON
    action_count: int = 6

    def __post_init__(self) -> None:
        if len(self.theta) != THETA_DIM:
            raise ValueError(f"theta must have {THETA_DIM} components")
        if any(not (0.0 <= t <= 1.0) for t in self.theta):
            raise ValueError("theta components must lie in [0, 1]")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be finite and >= 0")
        if self.action_count < 1:
            raise ValueError(f"action_count must be >= 1, got {self.action_count}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def is_deterministic(self) -> bool:
        return self.noise_scale == 0.0

    @property
    def j_clean(self) -> float:
        return 100.0 * (0.5 + self.theta[0])

    @property
    def preferred_allocation(self) -> AllocationRule:
        return AllocationRule.MARGIN_LINEAR if self.theta[3] >= 0.5 else AllocationRule.FIXED

    # ------------------------------------------------------------------
    # Ground-truth surfaces
    # ------------------------------------------------------------------

    def drop_true(self, config: AttackConfig) -> float:
        """Expected normalized reward drop; smooth and unimodal in (eps, steps).

        This is the population value of (J_clean - J_adv) / (|J_clean| + 1);
        the attacked return mean is derived from it, so drops above 1 push
        attacked returns below zero.
        """
        th = self.theta
        e_lo, e_span, s_lo, s_span = _SURFACE_RANGES[config.family]
        eps_peak = e_lo + e_span * th[1]
        steps_peak = s_lo + s_span * th[2]
        sig_e = 0.25 * e_span
        sig_s = 0.25 * s_span
        gauss = math.exp(-((config.epsilon - eps_peak) ** 2) / (2 * sig_e ** 2)
                         - ((config.steps - steps_peak) ** 2) / (2 * sig_s ** 2))
        amp = 0.55 + 0.5 * th[4]
        fam_pref = 0.75 + 0.25 * math.cos(2 * math.pi * (th[5] - config.family.rank / 5.0))
        alloc_mult = 1.0 if config.allocation is self.preferred_allocation else 0.8
        rho_mult = 1.0 - 0.1 * abs(config.rho - 0.75)
        return amp * fam_pref * gauss * alloc_mult * rho_mult

    def flip_true(self, config: AttackConfig) -> float:
        """Flip probability; monotone increasing in epsilon, capped below 1."""
        cap = 0.55 + 0.4 * self.theta[6]
        return cap * (1.0 - math.exp(-config.epsilon / 8.0))

    def episode_seconds_true(self, config: AttackConfig) -> float:
        cost = 0.35 + 0.65 * self.theta[7]
        alloc_mult = 1.12 if config.allocation is AllocationRule.MARGIN_LINEAR else 1.0
        return cost * (2.0 + 0.45 * config.steps * config.restarts) * alloc_mult

    def return_noise_scale(self, config: AttackConfig) -> float:
        return self.noise_scale * 0.05 * (abs(self.j_clean) + 1.0)

    def surface_arrays(self, space: ConfigSpace) -> tuple[np.ndarray, ...]:
        """(drop, flip, episode seconds, noise scale) of every config of `space` in index
        order: the four scalar surfaces above in one array pass, with their constants."""
        th = self.theta
        col = space.columns
        e_lo, e_span, s_lo, s_span = _SURFACE_RANGE_ROWS[:, col.family_rank]
        gauss = np.exp(-((col.epsilon - (e_lo + e_span * th[1])) ** 2) / (2 * (0.25 * e_span) ** 2)
                       - ((col.steps - (s_lo + s_span * th[2])) ** 2) / (2 * (0.25 * s_span) ** 2))
        fam_pref = np.array([0.75 + 0.25 * math.cos(2 * math.pi * (th[5] - f.rank / 5.0))
                             for f in AttackFamily])[col.family_rank]
        on_pref = col.margin_linear == (self.preferred_allocation is AllocationRule.MARGIN_LINEAR)
        drop = ((0.55 + 0.5 * th[4]) * fam_pref * gauss * np.where(on_pref, 1.0, 0.8)
                * (1.0 - 0.1 * np.abs(col.rho - 0.75)))
        flip = (0.55 + 0.4 * th[6]) * (1.0 - np.exp(-col.epsilon / 8.0))
        seconds = ((0.35 + 0.65 * th[7]) * (2.0 + 0.45 * col.steps * col.restarts)
                   * np.where(col.margin_linear, 1.12, 1.0))
        noise = np.full(space.size, self.noise_scale * 0.05 * (abs(self.j_clean) + 1.0))
        return drop, flip, seconds, noise

    def attacked_return_mean(self, config: AttackConfig) -> float:
        return self.j_clean - self.drop_true(config) * (abs(self.j_clean) + 1.0)

    def return_bounds(self, configs) -> tuple[float, float]:
        """Hard bounds on attacked episodic returns over the given configs."""
        means = [self.attacked_return_mean(c) for c in configs]
        spread = math.sqrt(3.0) * max((self.return_noise_scale(c) for c in configs), default=0.0)
        return min(means) - spread, max(means) + spread

    # ------------------------------------------------------------------
    # Rollouts
    # ------------------------------------------------------------------

    def clean_rollout(self, episodes: int, rng: np.random.Generator) -> RolloutBatch:
        _require_episodes(episodes)
        start = time.perf_counter()
        trace = self._clean_trace()
        trajectories = tuple(trace for _ in range(episodes))
        returns = np.array([math.fsum(trace.rewards)] * episodes, dtype=float)
        return RolloutBatch(
            returns=returns,
            flips=None,
            elapsed_wall=time.perf_counter() - start,
            elapsed_virtual=0.5 * episodes,
            trajectories=trajectories,
        )

    def _clean_trace(self) -> EpisodeTrace:
        """Deterministic pseudo-trajectory whose statistics encode theta."""
        th = self.theta
        h = self.horizon
        t = np.arange(h, dtype=float)
        freq = 0.5 + 2.0 * th[5]
        phase = 2.0 * math.pi * th[1]
        scale = 0.5 + 2.0 * th[2]
        latents = np.stack([
            scale * np.sin(freq * t + phase),
            scale * (0.8 + 0.4 * th[3]) * np.cos(freq * t + phase),
            np.full(h, scale * (0.5 + th[1])),
            np.full(h, scale * (0.5 + th[6])),
        ], axis=1)
        pred_err = 0.05 + 0.4 * th[6]
        predicted = np.empty_like(latents)
        predicted[:-1] = latents[1:]
        predicted[-1] = latents[-1]
        predicted[:-1, 0] += pred_err * np.where(np.arange(h - 1) % 2 == 0, 1.0, -1.0)
        pattern = 1.0 + 0.4 * np.sin((1.0 + 2.0 * th[5]) * t + 1.3)
        rewards = self.j_clean * pattern / math.fsum(pattern)
        stride = 1 + int(2.999 * th[3])
        actions = (stride * np.arange(h)) % self.action_count
        margins = np.full(h, 0.15 + 0.7 * th[3])
        return EpisodeTrace(latents=latents, predicted_next=predicted,
                            actions=actions, rewards=rewards, margins=margins)

    def attacked_rollout(self, config: AttackConfig, episodes: int,
                         rng: np.random.Generator) -> RolloutBatch:
        _require_episodes(episodes)
        start = time.perf_counter()
        mean_return = self.attacked_return_mean(config)
        flip_p = self.flip_true(config)
        if self.is_deterministic:
            returns = np.full(episodes, mean_return, dtype=float)
            flips, flip_exact = None, flip_p
        else:
            sigma = self.return_noise_scale(config)
            half_width = math.sqrt(3.0) * sigma
            returns = mean_return + rng.uniform(-half_width, half_width, size=episodes)
            flips, flip_exact = rng.random(episodes * self.horizon) < flip_p, None
        return RolloutBatch(
            returns=returns,
            flips=flips,
            elapsed_wall=time.perf_counter() - start,
            elapsed_virtual=self.episode_seconds_true(config) * episodes,
            flip_rate_exact=flip_exact,
        )


def surface_task(task_id: str, task_seed: int,
                 noise_scale: float = ResponseSurfaceVictim.noise_scale,
                 horizon: int = ResponseSurfaceVictim.horizon,
                 action_count: int = ResponseSurfaceVictim.action_count) -> ResponseSurfaceVictim:
    rng = Stream(task_seed, (101,)).generator()
    theta = tuple(rng.uniform(0.05, 0.95, size=THETA_DIM).tolist())
    return ResponseSurfaceVictim(task_id, theta, noise_scale, horizon, action_count)


def surface_task_family(family_seed: int, n_tasks: int,
                        noise_scale: float = ResponseSurfaceVictim.noise_scale,
                        n_clusters: int = 5, task_prefix: str = "task",
                        horizon: int = ResponseSurfaceVictim.horizon,
                        action_count: int = ResponseSurfaceVictim.action_count,
                        ) -> list[ResponseSurfaceVictim]:
    """Tasks drawn around shared cluster centers.

    Tasks in the same cluster have nearly identical theta, hence nearly
    identical optimal configurations and behavioral summaries.
    """
    rng = Stream(family_seed, (202,)).generator()
    centers = rng.uniform(0.12, 0.88, size=(n_clusters, THETA_DIM))
    tasks = []
    for i in range(n_tasks):
        center = centers[i % n_clusters]
        theta = np.clip(center + rng.normal(0.0, TASK_JITTER, size=THETA_DIM), 0.0, 1.0)
        tasks.append(ResponseSurfaceVictim(
            f"{task_prefix}-{i:03d}", tuple(theta.tolist()),
            noise_scale, horizon, action_count))
    return tasks


# ----------------------------------------------------------------------
# Linear closed-loop world-model victim
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinearWorldModelVictim:
    """Gridworld agent with linear encoder/dynamics/policy and a random start cell."""

    task_id: str
    obs_dim: int = 64
    latent_dim: int = 12
    grid_size: int = 5
    horizon: int = HORIZON
    weight_seed: int = 0

    action_count: ClassVar[int] = 4    # the gridworld's four moves
    gradient_cost_seconds: ClassVar[float] = 0.05   # virtual seconds per loss evaluation
    step_cost_seconds: ClassVar[float] = 0.01       # virtual seconds per episode step

    def __post_init__(self) -> None:
        if self.grid_size < 2 or self.obs_dim < 4 or self.latent_dim < 2:
            raise ValueError("victim dimensions too small")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def is_deterministic(self) -> bool:
        """False: each episode's start cell is drawn from the rollout rng."""
        return False

    @property
    def n_cells(self) -> int:
        return self.grid_size * self.grid_size

    @cached_property
    def _weights(self) -> dict[str, np.ndarray]:
        rng = Stream(self.weight_seed, (11, 13)).generator()
        d, k, a = self.obs_dim, self.latent_dim, self.action_count
        render = 0.45 * np.tanh(rng.normal(0.0, 1.2, size=(d, self.n_cells)))
        encoder = rng.normal(0.0, 1.0 / math.sqrt(d), size=(k, d))
        raw = rng.normal(size=(k, k))
        q, _ = np.linalg.qr(raw)
        dynamics = 0.9 * q
        action_in = rng.normal(0.0, 0.3 / math.sqrt(k), size=(k, a))
        # Fit the policy head to goal-seeking target logits so the clean
        # agent is competent and action flips genuinely cost return. The
        # rank-k least-squares fit plus target jitter leaves imperfections.
        targets = np.zeros((a, self.n_cells))
        for cell in range(self.n_cells):
            dist = self._goal_distance(cell)
            for action in range(a):
                ndist = self._goal_distance(self._move(cell, action))
                targets[action, cell] = 1.0 if ndist < dist else (-1.0 if ndist > dist else -0.2)
        targets += rng.normal(0.0, 0.15, size=targets.shape)
        latent_states = encoder @ render
        policy = targets @ np.linalg.pinv(latent_states)
        for arr in (render, encoder, dynamics, action_in, policy):
            arr.setflags(write=False)
        return {"render": render, "encoder": encoder, "dynamics": dynamics,
                "action_in": action_in, "policy": policy}

    @cached_property
    def attack_surface(self) -> LinearAttackSurface:
        w = self._weights
        logit_map = w["policy"] @ w["encoder"]
        logit_map.setflags(write=False)
        return LinearAttackSurface(logit_map=logit_map, encoder=w["encoder"],
                                   dynamics=w["dynamics"], action_in=w["action_in"])

    @cached_property
    def _clean_table(self) -> CleanTable:
        obs = np.ascontiguousarray(self._weights["render"].T)
        actions, margins, latents = self._policy_rows(obs)
        surface = self.attack_surface
        preds = rows_matvec(surface.dynamics, latents) + surface.action_in[:, actions].T
        table = CleanTable(obs, np.array(actions), np.array(margins), latents, preds)
        for arr in table:
            arr.setflags(write=False)
        return table

    @property
    def goal_cell(self) -> int:
        return self.n_cells - 1

    def _policy(self, obs: np.ndarray) -> tuple[int, float, np.ndarray]:
        """Greedy action, top-2 probability margin, and the latent."""
        latent = self._weights["encoder"] @ obs
        probs = _softmax(self._weights["policy"] @ latent)
        order = np.argsort(probs)[::-1]
        margin = float(probs[order[0]] - probs[order[1]])
        return int(order[0]), margin, latent

    def _policy_rows(self, obs: np.ndarray) -> tuple[list, list, np.ndarray]:
        """`_policy` of each row of `obs` (n, d), bit for bit."""
        latent = rows_matvec(self._weights["encoder"], obs)
        probs = _softmax(rows_matvec(self._weights["policy"], latent))
        order = np.argsort(probs, axis=1)[:, ::-1]
        rows = np.arange(obs.shape[0])
        margin = probs[rows, order[:, 0]] - probs[rows, order[:, 1]]
        return order[:, 0].tolist(), margin.tolist(), latent

    def _move(self, cell: int, action: int) -> int:
        """Grid move: up, down, left or right, clamped at the walls."""
        n = self.grid_size
        row, col = divmod(cell, n)
        if action == 0:
            row = max(row - 1, 0)
        elif action == 1:
            row = min(row + 1, n - 1)
        elif action == 2:
            col = max(col - 1, 0)
        else:
            col = min(col + 1, n - 1)
        return row * n + col

    def _goal_distance(self, cell: int) -> int:
        row, col = divmod(cell, self.grid_size)
        g_row, g_col = divmod(self.goal_cell, self.grid_size)
        return abs(row - g_row) + abs(col - g_col)

    def transition(self, cell: int, action: int) -> tuple[int, float, bool]:
        """Deterministic grid move; returns (next_cell, reward, done)."""
        nxt = self._move(cell, action)
        if nxt == self.goal_cell:
            return nxt, 1.0, True
        reward = -0.05 - 0.1 * self._goal_distance(nxt) / (2 * (self.grid_size - 1))
        return nxt, reward, False

    def effective_steps(self, config: AttackConfig, margin: float) -> int:
        """Attack steps for one decision point under the allocation rule."""
        if config.allocation is AllocationRule.FIXED:
            return config.steps
        frac = _clip01(margin)
        return math.ceil(1 + (config.steps - 1) * frac)

    def _attacked_point(self, config: AttackConfig, cell: int,
                        rng: np.random.Generator | None, prev_latent: np.ndarray | None,
                        prev_action: int | None) -> tuple[int, np.ndarray, int]:
        """One cell's attacked action, latent and loss evaluations."""
        table = self._clean_table
        obs = table.obs[cell]
        result = synthesize_delta(self.attack_surface, obs, int(table.actions[cell]), config,
                                  self.effective_steps(config, float(table.margins[cell])),
                                  rng, prev_latent, prev_action)
        action, _, latent = self._policy(apply_perturbation(obs, result.delta, config.epsilon))
        return action, latent, result.loss_evals

    def clean_rollout(self, episodes: int, rng: np.random.Generator) -> RolloutBatch:
        return self._rollout(None, episodes, rng)

    def attacked_rollout(self, config: AttackConfig, episodes: int,
                         rng: np.random.Generator) -> RolloutBatch:
        return self._rollout(config, episodes, rng)

    def _rollout(self, config: AttackConfig | None, episodes: int,
                 rng: np.random.Generator) -> RolloutBatch:
        """The episode loop; with a config, each observation is attacked first.

        Clean steps read the clean table. A config whose synthesis reads
        neither the step rng nor the previous step (apgd-ce, apgd-dlr, fab)
        is synthesized for every cell in one batched `synthesize_delta`
        call. Otherwise each step synthesizes on its own: square from the
        row's stream (ep, t, seed), physcond-wma from the previous latent
        and action, memoized on (cell, previous action, previous latent)
        because its episodes revisit the same states. Every step is charged
        to the virtual clock. A clean trace is the table at the visited cells.
        """
        _require_episodes(episodes)
        start = time.perf_counter()
        table = self._clean_table
        clean_actions = table.actions.tolist()
        attacked = config is not None
        reads_rng = attacked and attacks.reads_step_rng(config)
        per_step = reads_rng or (attacked and attacks.reads_previous_step(config))
        if not attacked:
            cell_actions, cell_evals = clean_actions, [0] * self.n_cells
        elif not per_step:
            steps = [self.effective_steps(config, m) for m in table.margins.tolist()]
            result = synthesize_delta(self.attack_surface, table.obs, table.actions, config,
                                      steps, None)
            cell_actions, _, _ = self._policy_rows(
                apply_perturbation(table.obs, result.delta, config.epsilon))
            cell_evals = result.row_evals.tolist()
        root = int(rng.integers(2 ** 63))
        memo: dict[tuple, tuple] = {}
        traces, returns, flips = [], [], []
        virtual = 0.0
        for ep in range(episodes):
            cell = int(Stream(root, (ep,)).generator().integers(self.n_cells))
            cells, rewards = [], []
            latent = action = None  # the previous step's, until this step's replace them
            for t in range(self.horizon):
                if not per_step:
                    action, loss_evals = cell_actions[cell], cell_evals[cell]
                elif reads_rng:
                    step_rng = Stream(root, (ep, t, config.seed)).generator()
                    action, latent, loss_evals = self._attacked_point(config, cell, step_rng,
                                                                      latent, action)
                else:
                    key = (cell, action, None if latent is None else latent.tobytes())
                    point = memo.get(key)
                    if point is None:
                        point = memo[key] = self._attacked_point(config, cell, None,
                                                                 latent, action)
                    action, latent, loss_evals = point
                if attacked:
                    flips.append(action != clean_actions[cell])
                else:
                    cells.append(cell)
                cell, reward, done = self.transition(cell, action)
                rewards.append(reward)
                virtual += self.step_cost_seconds + self.gradient_cost_seconds * loss_evals
                if done:
                    break
            if not attacked:
                traces.append(EpisodeTrace(
                    latents=table.latents[cells], predicted_next=table.preds[cells],
                    actions=table.actions[cells], rewards=np.array(rewards),
                    margins=table.margins[cells]))
            returns.append(math.fsum(rewards))
        return RolloutBatch(
            returns=np.array(returns, dtype=float),
            flips=np.array(flips, dtype=bool) if attacked else None,
            elapsed_wall=time.perf_counter() - start,
            elapsed_virtual=virtual,
            trajectories=tuple(traces),
        )
