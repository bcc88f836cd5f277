"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload at a tiny size and checks that good ops pass, and that
injected wrong results -- a perturbed report value, a forced non-converged
fit, a shifted KW, an op that raises, a command that exits non-zero -- are
counted as failed ops without crashing the run.  Also checks that the
benchmark refuses to run without the sources.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

run.cap_blas_threads()
sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from dickekw import correlations as corr  # noqa: E402
from dickekw import tomography  # noqa: E402

RESULTS = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")


def failed_ops(workload, n_ops: int) -> tuple[int, list]:
    results = [run.timed_op(workload, i) for i in range(n_ops)]
    failures = [(i, p) for i, (_, p) in enumerate(results) if p]
    return len(failures), failures


def patched(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    return lambda: setattr(module, attr, original)


def test_kw_exact():
    w = workloads.KwExact(seed=3, copies=1)
    w.setup()
    n = len(w.inputs)
    bad, failures = failed_ops(w, n)
    expect("kw-exact: every op passes", bad == 0, str(failures[:1]))

    def shifted(fn):
        def kw_all(rho, **kw):
            reports, avg = fn(rho, **kw)
            return [dataclasses.replace(r, KW=r.KW + 0.01) for r in reports], avg + 0.01
        return kw_all
    restore = patched(corr, "kw_all_permutations", shifted)
    try:
        bad, _ = failed_ops(w, n)
    finally:
        restore()
    # the shift breaks the pure states (random pure and w1) and the noisy average
    expect("kw-exact: KW shifted by 0.01 fails pure and noisy ops", bad == 3,
           f"{bad}/{n}")

    def raising(fn):
        def kw_all(rho, **kw):
            raise RuntimeError("injected")
        return kw_all
    restore = patched(corr, "kw_all_permutations", raising)
    try:
        bad, failures = failed_ops(w, 2)
    finally:
        restore()
    expect("kw-exact: an op that raises is a failed op", bad == 2, str(failures[:1]))


def test_tomo_dicke4():
    w = workloads.TomoDicke4(seed=3, panel=((1.0, 1000),))
    w.setup()
    bad, failures = failed_ops(w, 1)
    expect("tomo-dicke4: pure-state fit passes", bad == 0, str(failures[:1]))

    def unconverged(fn):
        def mle(counts, **kw):
            return dataclasses.replace(fn(counts, **kw), converged=False)
        return mle
    restore = patched(tomography, "mle_reconstruct", unconverged)
    try:
        bad, failures = failed_ops(w, 1)
    finally:
        restore()
    expect("tomo-dicke4: forced non-converged fit fails", bad == 1, str(failures[:1]))


class TamperedSession(workloads.CliSession):
    def read_report(self):
        return super().read_report().replace("average 0.641878", "average 0.651878")


class BrokenSession(workloads.CliSession):
    def argv(self, seed):
        steps = list(super().argv(seed))
        steps[1] = ("tomo", "simulate", "--in", "missing.dm.json", "--out", "counts.csv")
        return tuple(steps)


def test_cli_session(tmp):
    for cls, expected, name in ((workloads.CliSession, 0, "a real session passes"),
                                (TamperedSession, 1, "a perturbed report value fails"),
                                (BrokenSession, 1, "a command exiting non-zero fails")):
        w = cls(seed=3, workdir=os.path.join(tmp, cls.__name__), src=run.SRC)
        w.setup()
        bad, failures = failed_ops(w, 1)
        expect(f"cli-session: {name}", bad == expected, str(failures[:1]))
    text = "\n".join([
        "[monogamy balance: pure single-excitation state]",
        "  exact b|a,c: S=0.918296 J=0.368248 E=0.550048 KW=-4.44089e-16 theta*=0.785398",
        "[monogamy balance: measured correlator table]",
        "  KW = 0.0338854 +/- 0.0175834",
        "[monogamy balance: white-noise model, projected]",
        "  exact per assignment: 0.641878 (six assignments); average 0.641878",
        "  closed-form route (p=0.284375, c=0.255): KW = 0.10431",
        "[tomography round trip]",
        "  w1 at mean 10000 counts, 27 settings: mle fidelity = 0.999982 "
        "(iterations 114, converged True)",
        "[end-to-end correlator pipeline]",
        "  noisy projection, simulated counts -> correlators -> KW = 0.104567 +/- 0.0025",
        "  exact-table reference: KW = 0.10431",
    ])
    expect("report check: reference text passes", workloads.check_report(text) == [],
           str(workloads.check_report(text)))
    for old, new in (("KW=-4.44089e-16", "KW=0.001"), ("0.0338854", "0.0400"),
                     ("0.0175834", "0.05"), ("average 0.641878", "average 0.64189"),
                     ("KW = 0.10431\n[", "KW = 0.10433\n["),
                     ("fidelity = 0.999982", "fidelity = 0.98"),
                     ("converged True", "converged False"),
                     ("-> KW = 0.104567", "-> KW = 0.13")):
        problems = workloads.check_report(text.replace(old, new, 1))
        expect(f"report check: {new!r} fails", len(problems) == 1, str(problems))


def test_command(tmp):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", "kw-exact", "--seed", "5", "--seconds", "0.5",
                           "--trace", "0"], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect("run.py: result line", proc.returncode == 0 and result["correct"]
           and set(result) == {"correct", "attempted", "failed", "metrics"}
           and set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50",
                                          "peak_rss_mb"}, proc.stderr[-300:])
    bare = os.path.join(tmp, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "kw-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    expect("run.py: refuses to run without sources",
           proc.returncode != 0 and proc.stdout == "", proc.stderr.strip())


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        test_kw_exact()
        test_tomo_dicke4()
        test_cli_session(tmp)
        test_command(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
