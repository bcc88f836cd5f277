"""Benchmark of dickekw: one command, a workload, a seed, a time budget.

    python3 perfbench/run.py --workload kw-exact --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up (inputs from the seed, timed ``SETUP_REPEATS``
times), then runs ops in a closed loop with one client until the next op
would end past ``--seconds``, checks every op's outputs, and prints one
JSON detail line followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, at reference speed (see
``Speed``).  ``--trace 1`` runs each op twice, untraced and then with spans
(see ``spans.py``), and reports the per-layer metrics; the spans go to
``.bench_out/``.  The run and every process it starts stay on one CPU.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("kw-exact", "tomo-dicke4", "cli-session")
SETUP_REPEATS = 3
CLI_IMPORT_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 90, 50)
REF_SHARE = 0.04        # share of op time spent timing the reference kernel
REF_NOMINAL_S = 0.008   # its median on a quiet 2-core Xeon 2.1 GHz sandbox


def pin_to_one_cpu() -> tuple[int, int]:
    """Keep this process, and the processes it starts, on one CPU.

    Ops, set-up and the reference kernel of ``Speed`` then run on the same
    CPU, so the kernel sees the speed the ops saw.  The highest-numbered CPU
    is taken because CPU 0 usually serves more interrupts.  Return the number
    of CPUs the process could use before, and the CPU it now uses."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def make_workload(name: str, seed: int):
    import workloads

    if name == "kw-exact":
        return workloads.KwExact(seed)
    if name == "tomo-dicke4":
        return workloads.TomoDicke4(seed)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    return workloads.CliSession(seed, workdir, SRC)


def setup(name: str, seed: int):
    """Import, make inputs and, in-process, run one warm-up op; time it all."""
    start = time.perf_counter()
    workload = make_workload(name, seed)
    workload.setup()
    if name != "cli-session":
        try:
            workload.run_op(0)
        except Exception:  # the timed ops count this failure
            pass
    return workload, time.perf_counter() - start


def setup_samples(name: str, seed: int) -> list[float]:
    """Set-up times measured by fresh interpreters run with ``--setup-only``."""
    samples = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timed_op(workload, i: int):
    """Run op ``i``; return its wall time in s and the problems found."""
    start = time.perf_counter()
    try:
        problems = workload.run_op(i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problems = [f"op {i} raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, problems


class Speed:
    """The host's speed in a run, from a reference kernel timed between ops.

    A shared host runs the same work 10-40% slower for minutes at a time.
    The kernel -- Python integer arithmetic and 8x8 ``eigvalsh`` calls, the
    mix the ops run -- does not touch ``dickekw``, so only the host changes
    its time.  After each op the kernel runs until it has taken
    ``REF_SHARE`` of the op time so far.  End-to-end times are multiplied by
    ``factor()``, so they read as on a host where the kernel's median is
    ``REF_NOMINAL_S``."""

    def __init__(self):
        import numpy

        self.eigvalsh = numpy.linalg.eigvalsh
        a = numpy.random.default_rng(0).normal(size=(8, 8))
        self.matrix = a @ a.T
        self.samples = []
        self.spent = 0.0
        self.op_seconds = 0.0

    def kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        for i in range(300):
            self.eigvalsh(self.matrix + i)
        return time.perf_counter() - start

    def after_op(self, seconds: float) -> None:
        self.op_seconds += seconds
        while self.spent < REF_SHARE * self.op_seconds:
            self.samples.append(self.kernel())
            self.spent += self.samples[-1]

    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.samples)

    def detail(self) -> dict:
        return {"reference_ms_p50": statistics.median(self.samples) * 1e3,
                "reference_samples": len(self.samples), "factor": self.factor()}


def closed_loop(op, seconds: float):
    """Call ``op(i)`` for i = 0, 1, ... back to back: at least once, and again
    only while the next call is expected to end within ``seconds``.
    Return the results and the elapsed time in s."""
    results = []
    start = time.perf_counter()
    while not results or ((time.perf_counter() - start) * (len(results) + 1)
                          / len(results) <= seconds):
        results.append(op(len(results)))
    return results, time.perf_counter() - start


def tail(latencies):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(n * pct / 100))
        if n - rank >= 10:
            return {"value": ordered[rank - 1] * 1e3, "unit": "ms",
                    "percentile": pct, "samples": n}
    return {"absent": f"{n} ops: fewer than 20, no percentile has ten samples beyond it",
            "samples": n}


def environment(nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown"}
    blas["threads_cap"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": nproc, "cpu": cpu}


def cli_import_metrics():
    """Wall time of a fresh ``import dickekw.cli`` and scipy.optimize's share."""
    import workloads

    env = workloads.child_env(SRC)
    code = [sys.executable, "-c", "import dickekw.cli"]
    times = [workloads.run_child(code, OUT, env).seconds * 1e3
             for _ in range(CLI_IMPORT_REPEATS)]
    metrics = {"cli.import_ms": statistics.median(times)}
    absent = {}
    proc = subprocess.run([sys.executable, "-X", "importtime", *code[1:]], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    cumulative = [int(m.group(1)) for m in re.finditer(
        r"^import time:\s*\d+ \|\s*(\d+) \|\s*scipy\.optimize$", proc.stderr, re.M)]
    metrics["cli.import_scipy_ms"] = cumulative[0] / 1e3 if cumulative else 0.0
    if not cumulative:
        absent["cli.import_scipy_ms"] = "scipy.optimize is not imported by dickekw.cli"
    return metrics, absent


CLI_STEP_METRICS = {"state": "cli.state_ms", "tomo_simulate": "cli.tomo_simulate_ms",
                    "tomo_reconstruct": "cli.tomo_reconstruct_ms",
                    "kw_exact": "cli.kw_exact_ms",
                    "kw_correlators": "cli.kw_correlators_ms",
                    "report": "cli.report_ms"}


def step_medians(workload) -> dict:
    return {metric: statistics.median(workload.step_seconds[step]) * 1e3
            for step, metric in CLI_STEP_METRICS.items() if workload.step_seconds[step]}


def end_to_end(args, workload, setup_s, latencies, failures, factor):
    """End-to-end metrics, with every time multiplied by ``factor``."""
    scaled = [t * factor for t in latencies]
    metrics = {
        "setup_s": {"value": setup_s * factor, "unit": "s"},
        "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(workload), "unit": "MB"},
    }
    extra = {"op_ms_tail": tail(scaled),
             "failed_frac": {"value": len(failures) / len(latencies), "unit": "1"},
             "raw": {"setup_s": setup_s, "ops_per_s": len(latencies) / sum(latencies),
                     "op_ms_p50": statistics.median(latencies) * 1e3,
                     "op_ms": [round(x * 1e3, 1) for x in latencies]}}
    if args.workload == "cli-session":
        report_ms = step_medians(workload).get("cli.report_ms")
        extra["report_ms_p50"] = ({"value": report_ms * factor, "unit": "ms"}
                                  if report_ms
                                  else {"absent": "no report invocation completed"})
    return metrics, extra


def peak_rss_mb(workload) -> float:
    import workloads

    if hasattr(workload, "maxrss_kb"):
        return workload.maxrss_kb / 1024
    return workloads.peak_rss_mb_self()


def per_layer(args, workload, seconds):
    """Each op twice, untraced and then with spans, so drift hits both alike."""
    from spans import Tracer, layer_metrics, merge_dump

    tracer = Tracer()

    def traced_op(i):
        tracer.op = i
        if args.workload == "cli-session":
            workload.launcher = os.path.join(HERE, "launch_cli.py")
            try:
                return timed_op(workload, i)
            finally:
                workload.launcher = None
        tracer.install()
        try:
            return timed_op(workload, i)
        finally:
            tracer.uninstall()

    pairs, _ = closed_loop(lambda i: (timed_op(workload, i), traced_op(i)), seconds)
    untraced = [u for (u, _), _ in pairs]
    traced = [t for _, (t, _) in pairs]
    failures = [(i, p) for i, pair in enumerate(pairs) for _, p in pair if p]

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(spans_path, "w") as handle:
        if args.workload == "cli-session":
            for dump in filter(os.path.exists, workload.dumps):
                with open(dump) as part:
                    lines = part.readlines()
                merge_dump(lines, tracer)
                handle.writelines(lines)
        else:
            tracer.dump(handle)
    metrics, absent = layer_metrics(tracer, len(traced))
    imports, import_absent = cli_import_metrics()
    metrics.update(imports)
    absent.update(import_absent)
    steps = step_medians(workload) if args.workload == "cli-session" else {}
    for metric in CLI_STEP_METRICS.values():
        metrics[metric] = steps.get(metric, 0.0)
        if metric not in steps:
            absent[metric] = "no CLI invocations in this workload"
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1)
    units = {"calls": "count", "nfev": "count", "iterations": "count",
             "converged_frac": "1", "stack_mb": "MB", "bytes_written": "B",
             "overhead_frac": "1"}
    result = {name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "ms")}
              for name, value in sorted(metrics.items())}
    detail = {"absent": absent, "spans": os.path.relpath(spans_path, ROOT),
              "op_pairs": len(pairs)}
    return result, untraced + traced, failures, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (one set-up time sample)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dickekw", "__init__.py")):
        print(f"error: no dickekw sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc, cpu = pin_to_one_cpu()
    cap_blas_threads()
    sys.path.insert(0, SRC)

    workload, first_setup = setup(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "input_digest": workload.digest,
                  "environment": environment(nproc, cpu)}
        if args.trace:
            metrics, latencies, failures, extra = per_layer(args, workload, args.seconds)
        else:
            samples = [first_setup] + setup_samples(args.workload, args.seed)
            speed = Speed()

            def op(i):
                seconds, problems = timed_op(workload, i)
                speed.after_op(seconds)
                return seconds, problems

            results, elapsed = closed_loop(op, args.seconds)
            latencies = [t for t, _ in results]
            failures = [(i, p) for i, (_, p) in enumerate(results) if p]
            metrics, extra = end_to_end(args, workload, statistics.median(samples),
                                        latencies, failures, speed.factor())
            extra["setup_samples_s"] = samples
            extra["timed_s"] = elapsed
            extra["speed"] = speed.detail()
        detail.update(extra)
        detail["ops"] = len(latencies)
        detail["failures"] = [f"op {i}: {'; '.join(p)}" for i, p in failures[:10]]
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": not failures, "attempted": len(latencies),
                          "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        if args.workload == "cli-session":
            shutil.rmtree(workload.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
