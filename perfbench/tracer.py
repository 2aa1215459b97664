"""Outside-in tracing of the attacksearch layers for the traced benchmark run.

Nothing here edits the package. `instrumented` rebinds public names where
their callers look them up (module globals, class attributes and the CLI
handler table) to wrappers that time each call, and restores every one of
them on exit. Two kinds of wrapper exist:

* span wrappers, for calls that do a unit of layer work; each call becomes
  a span (id, name, start, end, parent) kept in memory;
* leaf wrappers, for micro-calls made thousands of times per search
  (`ConfigSpace.neighbors`/`index_of`, `Stream.generator`/`state_u64`);
  they only add to a count and a busy time, so tracing stays cheap.

A call's self time is its duration minus the time its traced children
cover. All calls run on one thread, so children never overlap and that
covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict

LAYERS = ("search", "proposal", "configspace", "rngutil", "evaluation", "victims",
          "attacks", "memory", "theory", "bench", "logs", "serial", "runconfig", "cli")


class Bucket:
    """Aggregates for one traced interval (one set-up or one pass)."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()     # work counters: episodes, bytes, ...
        self.wall_s = 0.0


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.keep_spans = True
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.bucket = Bucket()
        self._stack: list[list] = []          # [span id, child seconds]
        self._next_id = 1
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def recording(self, bucket: Bucket, keep_spans: bool):
        """Trace calls into `bucket` for the duration of the block."""
        self.bucket, self.keep_spans, self.enabled = bucket, keep_spans, True
        try:
            yield bucket
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without attributing them to a layer."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name, fn, *, leaf: bool = False, after=None):
        """A wrapper timing `fn` under `name`.

        `name` may be a callable of (args, kwargs) for per-call names.
        `after(bucket, args, kwargs, result)` adds work counters.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                bucket = tracer.bucket
                bucket.calls[label] += 1
                bucket.self_s[label] += duration - frame[1]
                bucket.incl_s[label] += duration
                if stack:
                    stack[-1][1] += duration
                if tracer.keep_spans and not leaf:
                    tracer.spans.append((span_id, label, start, end, parent))
            if after is not None:
                after(tracer.bucket, args, kwargs, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, times in ms from tracer creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, label, start, end, parent in self.spans:
                fh.write(f'{{"id":{span_id},"name":"{label}",'
                         f'"start_ms":{(start - self.origin) * 1e3:.4f},'
                         f'"end_ms":{(end - self.origin) * 1e3:.4f},"parent":{parent}}}\n')


# ----------------------------------------------------------------------
# Work counters read off arguments and results
# ----------------------------------------------------------------------


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _count_episodes(bucket, args, kwargs, result) -> None:
    bucket.counts["evaluation.episodes"] += _arg(args, kwargs, 2, "episodes")


def _count_rollout(bucket, args, kwargs, batch) -> None:
    bucket.counts["victims.elapsed_wall_s"] += batch.elapsed_wall


def _count_attacked_rollout(bucket, args, kwargs, batch) -> None:
    _count_rollout(bucket, args, kwargs, batch)
    decisions = 0 if batch.flips is None else int(batch.flips.size)
    bucket.counts["victims.decision_points"] += decisions
    victim = args[0]
    grad_cost = getattr(victim, "gradient_cost_seconds", None)
    if grad_cost:
        # The linear victim's virtual clock charges step_cost per decision
        # plus gradient_cost per loss evaluation, so the count is exact.
        evals = (batch.elapsed_virtual - victim.step_cost_seconds * decisions) / grad_cost
        bucket.counts["victims.loss_evals"] += int(round(evals))


def _synth_name(args, kwargs) -> str:
    return "attacks.synthesize_delta." + _arg(args, kwargs, 3, "config").family.value


def _count_synth(bucket, args, kwargs, result) -> None:
    family = _arg(args, kwargs, 3, "config").family.value
    bucket.counts[f"attacks.synthesize_delta.{family}.loss_evals"] += result.loss_evals


def _count_warm_start(bucket, args, kwargs, result) -> None:
    retrieved = len(_arg(args, kwargs, 1, "retrieved"))
    bucket.counts["memory.warm_start.retrieved"] += retrieved
    bucket.counts["memory.warm_start.retained"] += retrieved - result.skipped


def _count_file(key: str):
    def count(bucket, args, kwargs, result) -> None:
        bucket.counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return count


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _modules():
    import importlib
    return {layer: importlib.import_module(f"attacksearch.{layer}") for layer in LAYERS}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    mods = _modules()
    restore: list[tuple[object, str, object]] = []

    def rebind(owner, attr: str, new) -> None:
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def function(layer: str, attr: str, *, after=None, name=None) -> None:
        """Rebind a module function in every package module that imported it."""
        original = getattr(mods[layer], attr)
        wrapper = tracer.wrap(name or f"{layer}.{attr}", original, after=after)
        for module in mods.values():
            if module.__dict__.get(attr) is original:
                rebind(module, attr, wrapper)
        handlers = mods["cli"]._HANDLERS
        for mode, handler in list(handlers.items()):
            if handler is original:
                restore.append((handlers, mode, original))
                handlers[mode] = wrapper

    def method(cls, attr: str, name: str, *, leaf: bool = False, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(name, raw.__func__, leaf=leaf, after=after))
        else:
            new = tracer.wrap(name, raw, leaf=leaf, after=after)
        rebind(cls, attr, new)

    try:
        for attr in ("run_search", "propose_batch", "induced_proposal"):
            function("search", attr)
        function("proposal", "update")
        function("evaluation", "scout_confirm")
        function("evaluation", "estimate_utility", after=_count_episodes)
        function("attacks", "synthesize_delta", name=_synth_name, after=_count_synth)
        function("memory", "summarize")
        function("memory", "warm_start", after=_count_warm_start)
        for attr in ("coverage_experiment", "monte_carlo_hitting_time",
                     "brute_force_utility", "population_utility_map"):
            function("theory", attr)
        for attr in ("run_memory_mode", "run_bench_mode", "run_report_mode",
                     "run_theory_mode", "write_report_files", "theory_checks"):
            function("bench", attr)
        function("logs", "trial_records")
        function("serial", "write_records", after=_count_file("serial.write_records.bytes"))
        function("serial", "read_records", after=_count_file("serial.read_records.bytes"))
        function("runconfig", "parse_run_config")
        function("runconfig", "build_space")
        function("cli", "main")

        space_cls = mods["configspace"].ConfigSpace
        method(space_cls, "neighbors", "configspace.neighbors", leaf=True)
        method(space_cls, "index_of", "configspace.index_of", leaf=True)
        stream_cls = mods["rngutil"].Stream
        method(stream_cls, "generator", "rngutil.generator", leaf=True)
        method(stream_cls, "state_u64", "rngutil.state_u64", leaf=True)
        memory_cls = mods["memory"].AttackMemory
        for attr in ("retrieve", "load", "save"):
            method(memory_cls, attr, f"memory.{attr}")
        for cls in (mods["victims"].ResponseSurfaceVictim,
                    mods["victims"].LinearWorldModelVictim):
            method(cls, "attacked_rollout", "victims.attacked_rollout",
                   after=_count_attacked_rollout)
            method(cls, "clean_rollout", "victims.clean_rollout", after=_count_rollout)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
