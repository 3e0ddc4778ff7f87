"""ite-bench benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload desk-joint --seed 0 --seconds 38 --trace 0

Run it from the root of a source checkout; the package is imported from
./src. Each workload is a closed loop with one client: the next fit or sweep
starts only when the previous one has returned. The set-up (a fresh-process
import and a warm-up operation, done SETUP_REPEATS times) comes first, then
operations run until the next one would end past --seconds.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0,
its per_layer metrics with --trace 1. A readable table, the environment and
warnings go to stderr. A full record goes to .perfbench/results/ and, for a
traced run, the spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ITE_BENCH_THREADS")
WARMUP = "desk-joint"
# the per-operation timings; a workload's best_of_run says whether a run
# reports its fastest operation or its median one
TIMINGS = {"fit_s", "train_samples_per_s", "trials_per_s"}
# exact counts derived from shapes, call arguments and artifact sizes, not timed
COMPUTED = {
    "simulate.dataset_bytes",
    "nn.gemm_flops_per_epoch",
    "mmd.gram_entries_per_epoch",
    "model.ckpt_bytes",
    "experiments.ckpt_writes",
    "experiments.ckpt_reads",
}


def load_workloads():
    """Import the workloads module against the checkout's own package."""
    package = SRC / "ite_bench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ite_bench package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ite_bench

    if Path(ite_bench.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported ite_bench from {ite_bench.__file__}, not {package}")
    import workloads

    return workloads


def import_seconds() -> float:
    """Wall time of `import ite_bench` in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ite_bench"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 can only print its config
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    digest = hashlib.sha256()
    for path in sorted((SRC / "ite_bench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{name: os.environ.get(name) for name in THREAD_VARS},
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    p = math.floor(100 * (1 - 10 / len(values)))
    return p, statistics.quantiles(values, n=100)[p - 1]


class Runner:
    """Runs workload operations and counts the checks they pass."""

    def __init__(self, workloads: dict, reference: dict[str, list], tracer) -> None:
        self.workloads = workloads
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        (OUT / "work").mkdir(parents=True, exist_ok=True)

    def run(self, name: str, case: int, traced: bool = False):
        workload = self.workloads[name]
        span = self.tracer.span if traced else (lambda _name: contextlib.nullcontext())
        if traced:
            self.tracer.install()
        # each operation writes into its own new empty directory: a reused
        # sweep --out would skip the dataset writes and measure less work
        work_dir = tempfile.mkdtemp(dir=OUT / "work")
        try:
            result = workload.run(case, work_dir, self.reference[name][case], span)
        except Exception:  # a failed operation is counted; the run goes on
            traceback.print_exc()
            self.attempted += workload.n_checks
            self.failed += workload.n_checks
            return None
        finally:
            if traced:
                self.tracer.uninstall()
            shutil.rmtree(work_dir)
        self.attempted += len(result.checks)
        for check, ok in result.checks.items():
            if not ok:
                self.failed += 1
                print(f"perfbench: {name} case {case}: check {check} failed", file=sys.stderr)
        return result


def end_to_end(ops, setup_s: list[float], with_children: bool) -> dict[str, list[float]]:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the largest sweep worker; forked, so it also counts the parent pages it shares
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if with_children else 0
    return {
        "peak_rss_self_mb": [self_kb / 1024],
        "peak_rss_workers_mb": [workers_kb / 1024],
        "setup_s": setup_s,
        "fit_s": [op.wall_s / op.fits for op in ops],
        "train_samples_per_s": [op.samples / op.train_s for op in ops],
        "trials_per_s": [op.trials / op.wall_s for op in ops],
        "peak_rss_mb": [(self_kb + workers_kb) / 1024],
        # every case once: a run covers all cases, so this is the mean over them
        "test_sqrt_pehe": [statistics.mean({op.case: op.sqrt_pehe for op in ops}.values())],
    }


def per_layer(tracer, ops, traced_flags) -> dict[str, list[float]]:
    from tracing import summarize

    sums = [summarize(tracer.spans, i) for i in tracer.roots("op")]
    traced = [op for op, t in zip(ops, traced_flags) if t]
    untraced = [op for op, t in zip(ops, traced_flags) if not t]

    def each(f):
        return [f(s) for s in sums]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    walls = [op.facts.get("trial_walls", []) for op in traced]
    return {
        "simulate.simulate_s": each(lambda s: s.dur["simulate.simulate"]),
        "simulate.save_s": each(lambda s: s.dur["simulate.save"]),
        "simulate.load_s": each(lambda s: s.dur["simulate.load"]),
        "simulate.dataset_bytes": [op.facts["dataset_bytes"] for op in traced],
        "nn.forward_s": each(lambda s: s.dur["nn.forward"]),
        "nn.forward_calls": each(lambda s: s.calls["nn.forward"]),
        "nn.backward_s": each(lambda s: s.dur["nn.backward"]),
        "nn.backward_calls": each(lambda s: s.calls["nn.backward"]),
        "nn.sgd_step_s": each(lambda s: s.dur["nn.sgd_step"]),
        "nn.sgd_step_calls": each(lambda s: s.calls["nn.sgd_step"]),
        "nn.gemm_flops_per_epoch": [f for s in sums for f in s.flops_per_epoch] or [0],
        "mmd.balance_s": each(lambda s: s.dur["mmd.balance"]),
        "mmd.balance_calls": each(lambda s: s.calls["mmd.balance"]),
        "mmd.gram_entries_per_epoch": [g for s in sums for g in s.gram_per_epoch] or [0],
        "mmd.share_of_batch_loss": each(
            lambda s: ratio(s.dur["mmd.balance"], s.dur["model.batch_loss"])
        ),
        "model.batch_loss_self_s": each(lambda s: s.self_s["model.batch_loss"]),
        "model.validation_s": each(lambda s: s.dur["model.validation"]),
        "model.epoch_s": each(lambda s: ratio(s.dur["model.train"], s.calls["model.validation"])),
        "model.ckpt_save_s": each(lambda s: s.dur["model.ckpt_save"]),
        "model.ckpt_load_s": each(lambda s: s.dur["model.ckpt_load"]),
        "model.ckpt_bytes": [op.facts["ckpt_bytes"] for op in traced],
        "metrics.evaluate_s": each(lambda s: s.dur["metrics.evaluate"]),
        "experiments.trial_s": [statistics.median(w) if w else 0.0 for w in walls],
        "experiments.serial_s": each(lambda s: s.sweep_children_s),
        "experiments.worker_busy_ratio": [
            sum(w) / (op.facts.get("workers", 1) * op.wall_s) for w, op in zip(walls, traced)
        ],
        "experiments.ckpt_writes": [op.facts.get("ckpt_writes", 0) for op in traced],
        "experiments.ckpt_reads": each(lambda s: s.sweep_ckpt_reads),
        "cli.overhead_s": each(lambda s: s.dur["cli.main"] - s.dur["experiments.run_sweep"]),
        "trace.fit_s": [op.wall_s / op.fits for op in traced],
        "trace.untraced_fit_s": [op.wall_s / op.fits for op in untraced],
        "trace.trials_per_s": [op.trials / op.wall_s for op in traced],
        "trace.untraced_trials_per_s": [op.trials / op.wall_s for op in untraced],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)

    env = environment()
    for name in THREAD_VARS:
        if env[name] is not None:
            print(
                f"perfbench: warning: {name}={env[name]} is set by the caller; "
                "results are not comparable with runs that leave it unset",
                file=sys.stderr,
            )

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(workloads.WORKLOADS, reference, tracer)
    cases = workload.cases

    # set-up = a fresh-process import plus one warm-up operation, a desk-joint
    # fit for every workload (a wide-tarnet one would add ~4 s to each
    # set-up); repeated, and reported as the median
    setups = []
    for rep in range(SETUP_REPEATS):
        import_s = import_seconds()
        t0 = time.perf_counter()
        runner.run(WARMUP, (args.seed + rep) % workloads.WORKLOADS[WARMUP].cases)
        setups.append({"import_s": import_s, "warmup_s": time.perf_counter() - t0})

    ops, traced_flags = [], []
    # at least one operation per case; a traced run runs each case twice in a
    # row, traced then untraced, so both halves of the run see the same cases
    repeat = 2 if args.trace else 1
    begin = time.perf_counter()
    started = 0
    while True:
        traced = bool(args.trace) and started % 2 == 0
        case = (args.seed + 1 + started // repeat) % cases
        result = runner.run(args.workload, case, traced)
        started += 1
        if result is not None:
            ops.append(result)
            traced_flags.append(traced)
        elapsed = time.perf_counter() - begin
        # stop when one more operation of the mean length would overrun
        if (
            started >= repeat * cases
            and started % repeat == 0
            and elapsed * (started + 1) / started > args.seconds
        ):
            break
    if not ops or (args.trace and not any(traced_flags)):
        raise SystemExit("perfbench: no operation completed")

    if args.trace:
        samples = per_layer(tracer, ops, traced_flags)
        wanted = spec["per_layer"]
    else:
        is_sweep = isinstance(workload, workloads.SweepWorkload)
        setup_s = [s["import_s"] + s["warmup_s"] for s in setups]
        samples = end_to_end(ops, setup_s, is_sweep)
        wanted = spec["end_to_end"]
    # counts stay exact integers: the median_low of a count is one of its samples
    counted = {m["name"] for m in wanted if m["unit"] in ("count", "bytes", "flop")}
    values = {}
    for m in wanted:
        vals = samples[m["name"]] or [0]
        if m["name"] in TIMINGS and workload.best_of_run:
            values[m["name"]] = min(vals) if m["better"] == "lower" else max(vals)
        elif m["name"] in counted:
            values[m["name"]] = statistics.median_low(vals)
        else:
            values[m["name"]] = statistics.median(vals)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w") as fh:
        json.dump(
            {
                **result,
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": env,
                "setup": setups,
                "samples": samples,
            },
            fh,
            indent=1,
        )
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.jsonl")

    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations "
        f"after {SETUP_REPEATS} set-ups; attempted {runner.attempted}, failed {runner.failed}, "
        f"failed_ops_ratio {runner.failed / runner.attempted:.4g}",
        file=sys.stderr,
    )
    for m in wanted:
        vals = samples[m["name"]]
        line = f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']:<8} n={len(vals)}"
        if m["name"] in COMPUTED:
            line += "  (computed)"
        elif m["name"] not in counted:
            if m["name"] in TIMINGS and workload.best_of_run:
                line += f"  median={statistics.median(vals):.6g}"
            if (tail := tail_percentile(vals)) is not None:
                line += f"  p{tail[0]}={tail[1]:.6g}"
        print(line, file=sys.stderr)
    if not args.trace:
        print(
            f"  peak_rss_mb = benchmark process {samples['peak_rss_self_mb'][0]:.6g} MB"
            f" + largest sweep worker {samples['peak_rss_workers_mb'][0]:.6g} MB",
            file=sys.stderr,
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
