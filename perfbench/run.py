#!/usr/bin/env python3
"""attacksearch benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. One caller drives the public API in a
closed loop: each operation is called only after the previous one has
returned, and no threads are added. The only other processes are fresh
interpreters that time `import attacksearch` during set-up, one at a time.

A run times the import SETUP_REPS times and builds the workload's inputs
from the seed SETUP_REPS times (the last build is used), then repeats whole
passes over the same operations until `--seconds` is spent. Each operation's
output is checked outside the timed region, and every pass must reproduce
the first pass's output bytes (compared by SHA-256 digest). With `--trace 0`
the end-to-end metrics are reported; with `--trace 1` untraced passes are
followed by traced ones and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller report (environment,
per-metric quartiles and sample counts, problems found) goes to
perfbench/out/, and in traced runs the spans go there too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
# Times the package import in a fresh interpreter; argv[1] is the src/ dir.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import attacksearch.cli; "
                "print(time.perf_counter() - start)")
THREAD_VARS = ("ATTACKSEARCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, str(HERE))
from tracer import LAYERS, Bucket, Tracer, instrumented  # noqa: E402
from workloads import WORKLOADS, SIZES, Outcome, failure  # noqa: E402

class BenchmarkError(RuntimeError):
    pass


def load_package() -> float:
    """Import attacksearch from this checkout's src/; return the import seconds."""
    if not (SRC / "attacksearch" / "__init__.py").is_file():
        raise BenchmarkError(f"no attacksearch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import attacksearch.cli  # noqa: F401  (pulls in every layer)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["attacksearch"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"attacksearch was imported from {origin}, not from {SRC}")
    return elapsed


def fresh_import_s() -> float:
    """The import time of attacksearch in a new interpreter, which is waited for."""
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.split()[-1])
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        raise BenchmarkError(f"timing the import in a new interpreter failed: {exc}") from exc


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "attacksearch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    return {
        "commit": _commit(),
        "source_sha256_16": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(pct) - 1]


def noise(values, of: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples_of": of}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class Pass:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.outcomes: list[Outcome] = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_op(op, tracer: Tracer) -> tuple[float, Outcome]:
    """Time one operation, then check its output with tracing paused."""
    if op.prepare is not None:
        with tracer.paused():
            op.prepare()
    start = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        elapsed = time.perf_counter() - start
        outcome = failure(f"raised {type(exc).__name__}: {exc}")
    else:
        elapsed = time.perf_counter() - start
        with tracer.paused():
            try:
                outcome = op.check(raw)
            except Exception as exc:  # a check that cannot read the output fails it
                outcome = failure(f"check raised {type(exc).__name__}: {exc}")
    outcome.problems = [f"{op.label}: {p}" for p in outcome.problems]
    # keep a digest, not the bytes, so the run's memory does not grow per pass
    outcome.output = hashlib.sha256(outcome.output).digest()
    return elapsed, outcome


def run_pass(ops, tracer: Tracer) -> Pass:
    result = Pass()
    for op in ops:
        elapsed, outcome = run_op(op, tracer)
        result.times.append(elapsed)
        result.outcomes.append(outcome)
    return result


def run_passes(ops, seconds: float, tracer: Tracer, bucket_factory=None) -> list:
    """Whole passes until the next one would end past `seconds`; at least one.

    With `bucket_factory`, each pass is traced into a fresh bucket and the
    list holds (pass, bucket) pairs.
    """
    passes, spent = [], 0.0
    while True:
        if bucket_factory is None:
            current = run_pass(ops, tracer)
            passes.append(current)
        else:
            bucket = bucket_factory()
            with tracer.recording(bucket, keep_spans=not passes):
                current = run_pass(ops, tracer)
            bucket.wall_s = current.wall
            passes.append((current, bucket))
        spent += current.wall
        if spent + current.wall > seconds:
            return passes


def repeat_problems(first: Pass, later: Pass, labels) -> list[str]:
    """Outputs and deterministic values of `later` that differ from `first`."""
    problems = []
    for label, a, b in zip(labels, first.outcomes, later.outcomes):
        if a.failed or b.failed:
            continue
        if (a.output != b.output or a.utilities != b.utilities or a.virtual_s != b.virtual_s
                or a.trials_to_threshold != b.trials_to_threshold):
            problems.append(f"{label}: output differs from the first pass")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def end_to_end(setup_s, passes, rss_mb) -> tuple[dict, dict]:
    first = passes[0]
    # One latency per operation: its mean wall time over the passes. The host
    # swings between a fast and a slow speed within a second, so a percentile
    # of single timings jumps between the two as their mix shifts; a mean over
    # passes follows the mix smoothly.
    op_ms = [1e3 * statistics.fmean(times) for times in zip(*(p.times for p in passes))]
    walls = [p.wall for p in passes]
    rates = [sum(o.searches for o in p.outcomes) / p.wall for p in passes]
    utilities = [u for o in first.outcomes for u in o.utilities]
    virtual = [v for o in first.outcomes for v in o.virtual_s]
    beyond = len(op_ms) - len(op_ms) * 90 // 100
    metrics = {
        "setup_s": (setup_s["median"], "s"),
        "wall_s": (statistics.median(walls), "s"),
        "searches_per_s": (statistics.median(rates), "1/s"),
        "search_ms_p50": (percentile(op_ms, 50), "ms"),
        "search_ms_p90": (percentile(op_ms, 90), "ms"),
        "best_utility_mean": (_mean(utilities), "U"),
        "virtual_s_per_search": (_mean(virtual), "virtual_s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        "setup_s": setup_s,
        "wall_s": noise(walls, "passes"),
        "searches_per_s": noise(rates, "passes"),
        "search_ms_p50": noise(op_ms, "operations, each the mean over passes")
        | {"percentile": 50},
        "search_ms_p90": noise(op_ms, "operations, each the mean over passes") | {
            "percentile": 90, "samples_beyond": beyond,
            "ten_sample_rule": "met" if beyond >= 10 else "not met"},
        "best_utility_mean": noise(utilities or [0.0], "searches of the first pass"),
        "virtual_s_per_search": noise(virtual or [0.0], "searches of the first pass"),
        "peak_rss_mb": {"median": rss_mb, "n": 1, "samples_of": "ru_maxrss of this process"},
    }
    return metrics, report


def _add(a: Bucket, b: Bucket) -> Bucket:
    out = Bucket()
    for attr in ("calls", "self_s", "incl_s", "counts"):
        merged = getattr(out, attr)
        for source in (getattr(a, attr), getattr(b, attr)):
            for key, value in source.items():
                merged[key] = merged.get(key, 0) + value
    out.wall_s = a.wall_s + b.wall_s
    return out


def count_problems(buckets) -> list[str]:
    """Call counts and work counts must repeat exactly on every traced pass."""
    def counts(bucket):
        return (dict(bucket.calls),
                {k: v for k, v in bucket.counts.items() if not k.endswith("_s")})
    reference = counts(buckets[0])
    return [f"traced pass {i + 1}: layer counts differ from traced pass 1"
            for i, bucket in enumerate(buckets[1:], start=1) if counts(bucket) != reference]


def per_layer(total: Bucket, first: Pass, overhead_s: float, attempted: int,
              failed: int) -> dict:
    calls, self_s, counts = total.calls, total.self_s, total.counts

    def ms(*names):
        return 1e3 * sum(self_s.get(n, 0.0) for n in names)

    metrics = {"search.run_search.calls": (calls["search.run_search"], "count")}
    for name in ("search.propose_batch", "search.induced_proposal", "proposal.update",
                 "configspace.neighbors", "configspace.index_of",
                 "evaluation.scout_confirm", "evaluation.estimate_utility",
                 "victims.attacked_rollout", "victims.clean_rollout"):
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (ms(name), "ms")
    metrics["rngutil.generators_built"] = (calls["rngutil.generator"], "count")
    metrics["rngutil.fingerprints"] = (calls["rngutil.state_u64"], "count")
    metrics["rngutil.self_ms"] = (ms("rngutil.generator", "rngutil.state_u64"), "ms")

    trials = [t for o in first.outcomes for t in o.trials_to_threshold]
    hits = [t for t in trials if t is not None]
    metrics["search.threshold_hit_frac"] = (len(hits) / len(trials) if trials else 0.0,
                                            "fraction")
    metrics["search.trials_to_threshold_mean"] = (_mean(hits), "trials")

    metrics["evaluation.episodes"] = (counts["evaluation.episodes"], "count")
    metrics["victims.decision_points"] = (counts["victims.decision_points"], "count")
    metrics["victims.elapsed_wall_ms"] = (1e3 * counts["victims.elapsed_wall_s"], "ms")
    metrics["victims.loss_evals"] = (counts["victims.loss_evals"], "count")

    from attacksearch.configspace import AttackFamily
    synth = [f"attacks.synthesize_delta.{f.value}" for f in AttackFamily]
    metrics["attacks.synthesize_delta.calls"] = (sum(calls[n] for n in synth), "count")
    metrics["attacks.synthesize_delta.self_ms"] = (ms(*synth), "ms")
    for name in synth:
        metrics[f"{name}.self_ms"] = (ms(name), "ms")
        metrics[f"{name}.loss_evals"] = (counts[f"{name}.loss_evals"], "count")

    for name in ("summarize", "retrieve", "warm_start", "load", "save"):
        metrics[f"memory.{name}.self_ms"] = (ms(f"memory.{name}"), "ms")
    retrieved = counts["memory.warm_start.retrieved"]
    metrics["memory.warm_start.retained_frac"] = (
        counts["memory.warm_start.retained"] / retrieved if retrieved else 0.0, "fraction")

    for name in ("coverage_experiment", "monte_carlo_hitting_time", "brute_force_utility",
                 "population_utility_map"):
        metrics[f"theory.{name}.self_ms"] = (ms(f"theory.{name}"), "ms")
    metrics["theory.coverage_experiment.incl_share"] = (
        total.incl_s.get("theory.coverage_experiment", 0.0) / total.wall_s, "fraction")
    for name in ("run_memory_mode", "run_bench_mode", "write_report_files", "theory_checks"):
        metrics[f"bench.{name}.self_ms"] = (ms(f"bench.{name}"), "ms")
    metrics["logs.trial_records.self_ms"] = (ms("logs.trial_records"), "ms")
    for name in ("write_records", "read_records"):
        metrics[f"serial.{name}.calls"] = (calls[f"serial.{name}"], "count")
        metrics[f"serial.{name}.self_ms"] = (ms(f"serial.{name}"), "ms")
        metrics[f"serial.{name}.bytes"] = (counts[f"serial.{name}.bytes"], "bytes")
    for name in ("parse_run_config", "build_space"):
        metrics[f"runconfig.{name}.self_ms"] = (ms(f"runconfig.{name}"), "ms")
    metrics["cli.main.calls"] = (calls["cli.main"], "count")

    traced = 0.0
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        traced += layer_s
        metrics[f"layer.{layer}.share"] = (layer_s / total.wall_s, "fraction")
    metrics["layer.untraced.share"] = (max(0.0, 1.0 - traced / total.wall_s), "fraction")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["failed_frac"] = (failed / attempted, "fraction")
    return metrics


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", victim_wrapper=None) -> dict:
    if workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    import_times = [load_package()]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    tracer = Tracer()
    try:
        build, sizes = WORKLOADS[workload], SIZES[workload][scale]
        setup_times = []
        import_times += [fresh_import_s() for _ in range(SETUP_REPS - 1)]
        for import_s in import_times:
            start = time.perf_counter()
            ops = build(seed, sizes, workdir, victim_wrapper)
            setup_times.append(import_s + time.perf_counter() - start)
        setup_s = noise(setup_times, "set-ups (each: one import time plus one build)")
        labels = [op.label for op in ops]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if not trace:
                passes = run_passes(ops, seconds, tracer)
                traced = []
            else:
                passes = run_passes(ops, seconds / 2, tracer)
                with instrumented(tracer):
                    setup_bucket = Bucket()
                    with tracer.recording(setup_bucket, keep_spans=True):
                        start = time.perf_counter()
                        ops = build(seed, sizes, workdir, victim_wrapper)
                        setup_bucket.wall_s = time.perf_counter() - start
                    traced = run_passes(ops, seconds / 2, tracer, bucket_factory=Bucket)
            rerun_time, rerun = run_op(ops[0], tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        all_passes = passes + [p for p, _ in traced]
        first = all_passes[0]
        attempted = sum(o.attempted for p in all_passes for o in p.outcomes) + rerun.attempted
        problems = [m for p in all_passes for o in p.outcomes for m in o.problems]
        problems += rerun.problems
        repeat = [m for p in all_passes[1:] for m in repeat_problems(first, p, labels)]
        if not rerun.failed and not first.outcomes[0].failed \
                and rerun.output != first.outcomes[0].output:
            repeat.append(f"{labels[0]}: re-run output differs from the first pass")
        if traced:
            repeat += count_problems([b for _, b in traced])
        failed = sum(o.failed for p in all_passes for o in p.outcomes) + rerun.failed
        failed = min(attempted, failed + len(repeat))
        problems += repeat

        metrics, report = end_to_end(setup_s, passes, rss_mb)
        if trace:
            overhead_s = statistics.median(p.wall for p, _ in traced) - metrics["wall_s"][0]
            # one value per traced pass, each counting the traced set-up too
            samples = [per_layer(_add(setup_bucket, b), first, overhead_s, attempted, failed)
                       for _, b in traced]
            metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
                       for name, (_, unit) in samples[0].items()}
            report |= {f"layer:{name}": noise([s[name][0] for s in samples],
                                              "traced passes, each plus the traced set-up")
                       for name in metrics}
        result = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "scale": scale, "environment": environment(), "passes": len(passes),
            "operations_per_pass": len(ops), "rerun_first_op_s": rerun_time,
            "noise": report, "problems": problems[:50],
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
        if trace:
            tracer.write_spans(OUT / f"{stem}.spans.jsonl")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary_lines(result: dict) -> list[str]:
    env = result["environment"]
    lines = [f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
             f"passes={result['passes']} ops/pass={result['operations_per_pass']} "
             f"commit={env['commit']!r} src={env['source_sha256_16']} "
             f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
             f"threads={json.dumps({k: v for k, v in env['thread_env'].items() if v})}"]
    for name, stats in result["noise"].items():
        lines.append(f"#   {name}: {json.dumps(stats)}")
    for problem in result["problems"]:
        lines.append(f"# PROBLEM {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(result):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
