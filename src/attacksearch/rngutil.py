"""Deterministic, splittable random streams built on counter-based Philox.

Every stochastic component receives its generator from a `Stream` derived
from the run seed plus an integer path, so results are reproducible and
independent of evaluation order (streams can be consumed concurrently).
A Stream builds its SeedSequence once; its generator and its logged
fingerprint both read that one sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class Stream:
    """A point in the seed tree: root seed plus a path of integers.

    The SeedSequence is built on first use and kept on the object.
    `generate_state` is pure, so `generator()` and `state_u64()` return the
    same values in any order and however often they are called. Split with
    `child`, never `Generator.spawn`: spawning advances the shared
    sequence's child counter, so the next spawn from this Stream would differ.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *more: int) -> "Stream":
        return Stream(self.seed, self.path + tuple(int(m) for m in more))

    @cached_property
    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._sequence))

    def state_u64(self) -> int:
        """A stable 64-bit fingerprint of this stream, for logging."""
        return int(self._sequence.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
