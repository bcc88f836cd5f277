"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Each workload has ``setup()``, which makes every input and sets ``digest``
(a hash of the inputs), and ``run_op(i)``, which runs op ``i`` and returns
the list of problems its output checks found (empty when the op is good).
Ops cycle through the inputs made in set-up.  Tolerances come from
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from dickekw import correlations as corr
from dickekw import io, qmat, states, tomography

KW_PURE_TOL = 1e-3            # acceptance 03: |KW| on pure states
KW_MIXED_FLOOR = -1e-3        # acceptance 04: KW on mixed states
J_SLACK = 1e-9                # 0 <= J <= S, up to rounding
# acceptance 07: exact KW of the projected noisy_dicke(0.765) and its closed-form
# route; the report prints six digits, which the 1e-6 tolerance admits
NOISY_KW = 0.641877877265491
CLOSED_FORM_KW = 0.104310271445336
NOISY_KW_TOL = 1e-6
TABLE_KW, TABLE_KW_TOL = 0.0335, 0.005      # acceptance 06
TABLE_SIGMA = (0.01, 0.04)                  # acceptance 06
PIPELINE_KW_TOL = 0.02        # acceptance 10
PURE_EXACT_KW_TOL = 1e-4      # acceptance 05
MLE_FIDELITY_MIN = 0.99       # acceptance 09
# Stated here, not in the tests: |F - (p + (1-p)/16)| for a 4-qubit MLE fit.
# Poisson noise at 1k counts per setting moved F by up to 0.01 in scratch runs.
TOMO_FIDELITY_TOL = 0.02
CHILD_TIMEOUT_S = 60.0


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            part = np.ascontiguousarray(part).tobytes()
        h.update(part)
    return h.hexdigest()[:16]


def _projected(state) -> np.ndarray:
    post, _ = states.reduce_state(state, [(3, 1)])
    return qmat.dm(post) if post.ndim == 1 else post


def check_kw_reports(kind: str, reports, pure: bool) -> list[str]:
    problems = []
    for r in reports:
        if pure and abs(r.KW) > KW_PURE_TOL:
            problems.append(f"{kind} {r.assignment}: pure-state |KW| = {abs(r.KW):.3g}")
        if not pure and r.KW < KW_MIXED_FLOOR:
            problems.append(f"{kind} {r.assignment}: mixed-state KW = {r.KW:.3g}")
        if not -J_SLACK <= r.J <= r.S + J_SLACK:
            problems.append(f"{kind} {r.assignment}: J = {r.J:.6g} "
                            f"outside [0, S = {r.S:.6g}]")
    return problems


class KwExact:
    """``kw_all_permutations`` on one three-qubit state per op."""

    def __init__(self, seed: int, copies: int = 4):
        self.seed = seed
        self.copies = copies

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        inputs = []
        for _ in range(self.copies):
            inputs.append(("pure", True, qmat.dm(qmat.random_state_vector(3, rng))))
            for rank in (2, 4, 8):
                inputs.append((f"rank{rank}", False,
                               qmat.random_density_matrix(3, rng, rank=rank)))
        inputs.append(("w1", True, _projected(states.dicke(4, 2))))
        inputs.append(("noisy", False, _projected(states.noisy_dicke(0.765))))
        self.inputs = inputs
        self.digest = _digest(rho for _, _, rho in inputs)

    def run_op(self, i: int) -> list[str]:
        kind, pure, rho = self.inputs[i % len(self.inputs)]
        reports, average = corr.kw_all_permutations(rho)
        problems = check_kw_reports(kind, reports, pure)
        if kind == "noisy" and abs(average - NOISY_KW) > NOISY_KW_TOL:
            problems.append(f"noisy: average KW {average:.7f} != {NOISY_KW}")
        return problems


class TomoDicke4:
    """``mle_reconstruct`` of seeded Poisson counts of ``noisy_dicke(p)``."""

    # (p, mean counts per setting); the pure input goes first so that the
    # warm-up op of set-up is the cheap one
    PANEL = ((1.0, 1000), (0.765, 1000), (0.9, 1000), (0.765, 10000),
             (0.85, 1000), (0.95, 1000), (1.0, 10000), (0.8, 10000))

    def __init__(self, seed: int, panel=PANEL):
        self.seed = seed
        self.panel = tuple(panel)

    def setup(self) -> None:
        settings = tomography.settings_full(4)
        seeds = np.random.SeedSequence(self.seed).generate_state(len(self.panel))
        self.target = states.dicke(4, 2)
        self.inputs = []
        for (p, mean_counts), s in zip(self.panel, seeds):
            counts = tomography.simulate_counts(states.noisy_dicke(p), settings,
                                                mean_counts, int(s))
            self.inputs.append((p, mean_counts, counts))
        self.digest = _digest(np.array([r.count for _, _, c in self.inputs for r in c]))

    def run_op(self, i: int) -> list[str]:
        p, mean_counts, counts = self.inputs[i % len(self.inputs)]
        result = tomography.mle_reconstruct(counts)
        label = f"p={p} counts={mean_counts}"
        problems = []
        if not result.converged:
            problems.append(f"{label}: not converged after "
                            f"{result.iterations} iterations")
        try:
            qmat.check_density_matrix(result.rho)
        except ValueError as exc:
            problems.append(f"{label}: {exc}")
        fidelity = qmat.fidelity_pure(self.target, result.rho)
        expected = p + (1 - p) / 16
        if abs(fidelity - expected) > TOMO_FIDELITY_TOL:
            problems.append(f"{label}: fidelity {fidelity:.4f} vs model {expected:.4f}")
        return problems


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

NUM = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)"


def _section(text: str, header: str) -> str:
    start = text.find(header)
    if start < 0:
        return ""
    end = text.find("\n[", start + len(header))
    return text[start:] if end < 0 else text[start:end]


def check_report(text: str) -> list[str]:
    """Compare the numbers of a ``dickekw report`` with the acceptance constants."""
    problems = []

    def number(header, pattern, what, group=1):
        match = re.search(pattern, _section(text, header))
        if match is None:
            problems.append(f"report: {what} not found")
            return None
        return float(match.group(group))

    def require(ok, message):
        if not ok:
            problems.append(f"report: {message}")

    kw = number("[monogamy balance: pure single-excitation state]",
                r"exact b\|a,c: .*KW=" + NUM, "pure-state exact KW")
    if kw is not None:
        require(abs(kw) <= PURE_EXACT_KW_TOL, f"pure-state exact KW {kw}")
    table = "[monogamy balance: measured correlator table]"
    kw = number(table, r"KW = " + NUM + r" \+/- " + NUM, "table KW")
    sigma = number(table, r"KW = " + NUM + r" \+/- " + NUM, "table sigma", 2)
    if kw is not None:
        require(abs(kw - TABLE_KW) <= TABLE_KW_TOL, f"table KW {kw}")
    if sigma is not None:
        require(TABLE_SIGMA[0] <= sigma <= TABLE_SIGMA[1], f"table sigma {sigma}")
    noisy = "[monogamy balance: white-noise model, projected]"
    avg = number(noisy, r"average " + NUM, "exact KW average")
    if avg is not None:
        require(abs(avg - NOISY_KW) <= NOISY_KW_TOL, f"exact KW average {avg}")
    closed = number(noisy, r"closed-form route .*: KW = " + NUM, "closed-form KW")
    if closed is not None:
        require(abs(closed - CLOSED_FORM_KW) <= NOISY_KW_TOL, f"closed-form KW {closed}")
    tomo = "[tomography round trip]"
    fid = number(tomo, r"mle fidelity = " + NUM, "MLE fidelity")
    if fid is not None:
        require(fid >= MLE_FIDELITY_MIN, f"MLE fidelity {fid}")
    require(re.search(r"converged True", _section(text, tomo)) is not None,
            "round-trip MLE not converged")
    pipeline = "[end-to-end correlator pipeline]"
    kw = number(pipeline, r"-> KW = " + NUM, "pipeline KW")
    ref = number(pipeline, r"reference: KW = " + NUM, "pipeline reference KW")
    if kw is not None and ref is not None:
        require(abs(kw - ref) <= PIPELINE_KW_TOL, f"pipeline KW {kw} vs {ref}")
    return problems


@dataclasses.dataclass
class ChildRun:
    code: int
    seconds: float
    maxrss_kb: int
    stderr: str


def run_child(argv, cwd, env) -> ChildRun:
    """Run a process to its end; return its status, wall time and peak RSS."""
    with open(os.devnull, "w") as out, tempfile.TemporaryFile("w+", dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return ChildRun(proc.returncode, seconds, usage.ru_maxrss, err.read())


def child_env(src: str) -> dict:
    env = dict(os.environ)
    paths = [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class CliSession:
    """One user session of ``python -m dickekw.cli`` subprocesses per op."""

    STEPS = ("state", "tomo_simulate", "tomo_reconstruct", "kw_exact",
             "kw_correlators", "report")
    OUTPUTS = ("w.dm.json", "counts.csv", "fit.dm.json", "kw_exact.json",
               "kw_correlators.json", "report.txt")
    SEEDS = 8

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(src)
        self.launcher = None       # launch_cli.py while ops are traced
        self.dumps = []            # span files of traced invocations
        self.step_seconds = {step: [] for step in self.STEPS}
        self.maxrss_kb = 0

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        table = os.path.join(self.workdir, "table.csv")
        io.save_correlators(table, corr.REFERENCE_CORRELATOR_TABLE)
        seeds = np.random.SeedSequence(self.seed).generate_state(self.SEEDS)
        self.seeds = [int(s) for s in seeds]
        with open(table, "rb") as handle:
            self.digest = _digest([handle.read(), np.array(self.seeds)])

    def argv(self, seed: int):
        s = str(seed)
        return (
            ("state", "noisy-dicke:p=0.765", "--project", "d=1", "--out", "w.dm.json"),
            ("tomo", "simulate", "--in", "w.dm.json", "--seed", s, "--out", "counts.csv"),
            ("tomo", "reconstruct", "--counts", "counts.csv", "--out", "fit.dm.json"),
            ("kw", "exact", "--in", "fit.dm.json", "--all-permutations",
             "--out", "kw_exact.json"),
            ("kw", "correlators", "--table", "table.csv", "--seed", s,
             "--out", "kw_correlators.json"),
            ("report", "--seed", s, "--out", "report.txt"),
        )

    def run_op(self, i: int) -> list[str]:
        for name in self.OUTPUTS:
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.unlink(path)
        for step, args in zip(self.STEPS, self.argv(self.seeds[i % self.SEEDS])):
            if self.launcher is None:
                cmd = [sys.executable, "-m", "dickekw.cli", *args]
            else:
                dump = os.path.join(self.workdir, f"spans-{i}-{step}.jsonl")
                self.dumps.append(dump)
                cmd = [sys.executable, self.launcher, dump, f"{i}/{step}", *args]
            run = run_child(cmd, self.workdir, self.env)
            if self.launcher is None:
                self.step_seconds[step].append(run.seconds)
                self.maxrss_kb = max(self.maxrss_kb, run.maxrss_kb)
            if run.code != 0:
                tail = run.stderr.strip().splitlines()[-1:] or [""]
                return [f"{step}: exit code {run.code}: {tail[0]}"]
        return self.check_outputs()

    def read_report(self) -> str:
        with open(os.path.join(self.workdir, "report.txt")) as handle:
            return handle.read()

    def check_outputs(self) -> list[str]:
        def path(name):
            return os.path.join(self.workdir, name)

        problems = []
        try:
            if io.load_density_matrix(path("w.dm.json")).shape != (8, 8):
                problems.append("w.dm.json: not a three-qubit state")
            if len(io.load_counts(path("counts.csv"))) != 27 * 8:
                problems.append("counts.csv: not 27 settings x 8 outcomes")
            qmat.check_density_matrix(io.load_density_matrix(path("fit.dm.json")))
            with open(path("kw_exact.json")) as handle:
                reports = [corr.KWReport(**doc) for doc in json.load(handle)]
            if len(reports) != 6:
                problems.append(f"kw_exact.json: {len(reports)} reports, not 6")
            problems += check_kw_reports("fit", reports, pure=False)
            report = io.load_kw_report(path("kw_correlators.json"))
            if abs(report.KW - TABLE_KW) > TABLE_KW_TOL:
                problems.append(f"kw_correlators.json: KW {report.KW}")
            if not TABLE_SIGMA[0] <= (report.sigma or 0.0) <= TABLE_SIGMA[1]:
                problems.append(f"kw_correlators.json: sigma {report.sigma}")
            problems += check_report(self.read_report())
        except (OSError, ValueError, TypeError, KeyError) as exc:
            problems.append(f"output file: {type(exc).__name__}: {exc}")
        return problems


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
