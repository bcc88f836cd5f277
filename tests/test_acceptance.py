"""Acceptance gate: ten numbered criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is pinned here.  Reference constants come from independent
high-precision evaluations frozen into this suite.
"""

import time

import numpy as np
import pytest

from dickekw import correlations as corr
from dickekw import qmat, states, tomography as tomo


def _criterion(num, name, checks):
    """checks: list of (description, bool). Prints one line, then asserts."""
    ok = all(flag for _, flag in checks)
    detail = "; ".join(desc for desc, _ in checks)
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: " + \
        "; ".join(desc for desc, flag in checks if not flag)


def test_acceptance_01_circuit_identity():
    target = states.dicke(4, 2)
    out = states.circuit_to_dicke()
    dev = abs(abs(np.vdot(target, out)) ** 2 - 1)
    reps = 100
    t0 = time.perf_counter()
    for _ in range(reps):
        states.circuit_to_dicke()
    per_run = (time.perf_counter() - t0) / reps
    _criterion(1, "circuit-identity", [
        (f"overlap^2 deviation {dev:.1e} <= 1e-12", dev <= 1e-12),
        (f"runtime {per_run * 1e3:.3f} ms < 1 ms", per_run < 1e-3),
    ])


def test_acceptance_02_decomposition_identities():
    d42 = states.dicke(4, 2)
    checks = []
    worst_prob = 0.0
    worst_fid = 0.0
    for j in range(4):
        for outcome, k in ((0, 2), (1, 1)):
            post, prob = states.reduce_state(d42, [(j, outcome)])
            worst_prob = max(worst_prob, abs(prob - 0.5))
            fid = qmat.fidelity_pure(states.dicke(3, k), post)
            worst_fid = max(worst_fid, abs(fid - 1))
    checks.append((f"one-qubit branches: prob dev {worst_prob:.1e}, "
                   f"fidelity dev {worst_fid:.1e} <= 1e-12",
                   worst_prob <= 1e-12 and worst_fid <= 1e-12))
    worst_prob = worst_fid = 0.0
    for c_out, d_out in ((0, 1), (1, 0)):
        post, prob = states.reduce_state(d42, [(2, c_out), (3, d_out)])
        worst_prob = max(worst_prob, abs(prob - 1 / 3))
        fid = qmat.fidelity_pure(states.psi_plus(), post)
        worst_fid = max(worst_fid, abs(fid - 1))
    checks.append((f"bell branches: prob dev {worst_prob:.1e}, "
                   f"fidelity dev {worst_fid:.1e} <= 1e-12",
                   worst_prob <= 1e-12 and worst_fid <= 1e-12))
    _criterion(2, "decomposition-identities", checks)


def test_acceptance_03_pure_state_balance():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    rhos = [qmat.dm(qmat.random_state_vector(3, rng)) for _ in range(500)]
    worst = 0.0
    for report in corr.kw_exact_many(rhos):
        worst = max(worst, abs(report.KW))
    elapsed = time.perf_counter() - t0
    _criterion(3, "pure-state-balance", [
        (f"500 random pure states, max |KW| {worst:.2e} <= 1e-3",
         worst <= 1e-3),
        (f"runtime {elapsed:.1f} s <= 60 s", elapsed <= 60),
    ])


def test_acceptance_04_mixed_state_inequality():
    rng = np.random.default_rng(1)
    ranks = (None, 2, 4, None, 8)
    rhos = [qmat.random_density_matrix(3, rng, rank=ranks[i % len(ranks)])
            for i in range(500)]
    lowest = np.inf
    for report in corr.kw_exact_many(rhos):
        lowest = min(lowest, report.KW)
    _criterion(4, "mixed-state-inequality", [
        (f"500 random mixed states, min KW {lowest:.2e} >= -1e-3",
         lowest >= -1e-3),
    ])


def test_acceptance_05_closed_form_cross_check():
    formula = corr.kw_symmetric(corr.SymmetricModel(1 / 3, 1 / 3))
    exact = corr.kw_exact(qmat.dm(states.dicke(3, 1)), "b|a,c")
    checks = []
    for label, got_f, got_e, ref, tol in (
        ("S", formula.S, exact.S, 0.918296, 1e-5),
        ("E", formula.E, exact.E, 0.550048, 1e-5),
        ("J", formula.J, exact.J, 0.368248, 1e-4),
        ("KW", formula.KW, exact.KW, 0.0, 1e-4),
    ):
        ok = abs(got_f - ref) <= tol and abs(got_e - ref) <= tol \
            and abs(got_f - got_e) <= tol
        checks.append((f"{label}: formula {got_f:.6f}, exact {got_e:.6f}, "
                       f"reference {ref} +/- {tol}", ok))
    _criterion(5, "closed-form-cross-check", checks)


def test_acceptance_06_correlator_table():
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    model = corr.extract_pc(table)
    report = corr.kw_from_correlators(table, samples=2000, seed=0)
    _criterion(6, "correlator-table", [
        (f"extracted (p, c) = ({model.p:.6f}, {model.c:.6f}) = "
         "(0.31, 0.30375)",
         abs(model.p - 0.31) <= 1e-12 and abs(model.c - 0.30375) <= 1e-12),
        (f"central KW {report.KW:.6f} within 0.0335 +/- 0.005",
         abs(report.KW - 0.0335) <= 0.005),
        (f"Monte-Carlo sigma {report.sigma:.4f} in [0.01, 0.04]",
         0.01 <= report.sigma <= 0.04),
    ])


def test_acceptance_07_noise_model():
    p = 0.765
    fid = qmat.fidelity_pure(states.dicke(4, 2), states.noisy_dicke(p))
    model_value = p + (1 - p) / 16
    w_noisy, _ = states.reduce_state(states.noisy_dicke(p), [(3, 1)])
    reports, average = corr.kw_all_permutations(w_noisy)
    spread = max(r.KW for r in reports) - min(r.KW for r in reports)
    closed = corr.kw_symmetric(
        corr.extract_pc(corr.correlator_table(w_noisy)))
    variants = {
        "per-assignment exact": reports[0].KW,
        "permutation average": average,
        "closed-form route": closed.KW,
    }
    matches = [name for name, value in variants.items()
               if abs(value - 0.25) <= 0.02]
    flag = ("no variant within 0.02 of the nominal 0.25"
            if not matches else f"matches 0.25: {', '.join(matches)}")
    _criterion(7, "noise-model", [
        (f"fidelity {fid:.7f} = p+(1-p)/16 (depolarized model); the nominal "
         f"0.76547 differs by {abs(fid - 0.76547):.1e} and is flagged",
         abs(fid - model_value) <= 1e-12 and abs(fid - 0.7796875) <= 1e-5),
        (f"exact KW per assignment {reports[0].KW:.6f} "
         f"(six-fold spread {spread:.1e})",
         abs(reports[0].KW - 0.641877877265491) <= 1e-6 and spread <= 1e-6),
        (f"permutation average {average:.6f}",
         abs(average - 0.641877877265491) <= 1e-6),
        (f"closed-form route {closed.KW:.6f}",
         abs(closed.KW - 0.104310271445336) <= 1e-9),
        (flag, not matches),
    ])


@pytest.mark.xfail(reason="the nominal fidelity constant 0.76547 is "
                   "inconsistent with the depolarized model, whose value is "
                   "p + (1-p)/16 = 0.7796875", strict=True)
def test_acceptance_07_nominal_fidelity_constant():
    fid = qmat.fidelity_pure(states.dicke(4, 2), states.noisy_dicke(0.765))
    assert fid == pytest.approx(0.76547, abs=1e-5)


def test_acceptance_08_extraction_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    for _ in range(100):
        rho = qmat.random_density_matrix(3, rng)
        sym = sum(qmat.partial_trace(rho, perm) for perm in perms) / 6
        p_direct = np.real(sym[1, 1] + sym[2, 2] + sym[4, 4]) / 3
        c_direct = np.real(sym[1, 2] + sym[1, 4] + sym[2, 4]) / 3
        model = corr.extract_pc(corr.correlator_table(rho))
        worst = max(worst, abs(model.p - p_direct), abs(model.c - c_direct))
    ideal = corr.extract_pc(corr.correlator_table(qmat.dm(states.dicke(3, 1))))
    printed = corr.extract_pc(corr.correlator_table(qmat.dm(states.dicke(3, 1))),
                              printed_form=True)
    _criterion(8, "extraction-oracle", [
        (f"100 random states: max |extracted - direct| {worst:.1e} <= 1e-10",
         worst <= 1e-10),
        (f"ideal single-excitation state -> ({ideal.p:.6f}, {ideal.c:.6f}) "
         "= (1/3, 1/3)",
         abs(ideal.p - 1 / 3) <= 1e-12 and abs(ideal.c - 1 / 3) <= 1e-12),
        (f"unscaled-normalization toggle -> p = {printed.p:.6f} = 5/12, "
         "demonstrably failing the oracle",
         abs(printed.p - 5 / 12) <= 1e-12 and abs(printed.p - 1 / 3) > 0.05),
    ])


def test_acceptance_09_tomography_round_trip():
    w1 = qmat.dm(states.dicke(3, 1))
    target = states.dicke(3, 1)
    settings = tomo.settings_full(3)

    counts = tomo.simulate_counts(w1, settings, 10000, 42)
    fit = tomo.mle_reconstruct(counts)
    fid = qmat.fidelity_pure(target, fit.rho)

    exact_fit = tomo.mle_reconstruct(tomo.exact_counts(w1, settings))
    exact_fid = qmat.fidelity_pure(target, exact_fit.rho)

    monotone = True
    worst_dip = 0.0
    runs = [fit, exact_fit]
    for seed in range(5):
        runs.append(tomo.mle_reconstruct(
            tomo.simulate_counts(w1, settings, 1000, seed)))
    for result in runs:
        diffs = np.diff(np.asarray(result.log_likelihood_trace))
        if len(diffs):
            worst_dip = max(worst_dip, -float(diffs.min()))
        monotone = monotone and (len(diffs) == 0 or diffs.min() >= -1e-8)

    qmat.check_density_matrix(fit.rho)
    _criterion(9, "tomography-round-trip", [
        (f"seeded run fidelity {fid:.6f} >= 0.99 (converged "
         f"{fit.converged})", fid >= 0.99 and fit.converged),
        (f"exact-probability fidelity {exact_fid:.10f} >= 1 - 1e-8",
         exact_fid >= 1 - 1e-8),
        (f"likelihood monotone on {len(runs)} runs "
         f"(worst dip {worst_dip:.1e} <= 1e-8)", monotone),
    ])


def test_acceptance_10_end_to_end():
    t0 = time.perf_counter()
    w_noisy, _ = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    counts = tomo.simulate_counts(w_noisy, tomo.settings_full(3), 10000, 42)
    measured = tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())
    estimated = corr.kw_from_correlators(measured, samples=2000, seed=0)
    reference = corr.kw_symmetric(corr.clip_to_domain(
        corr.extract_pc(corr.correlator_table(w_noisy)).p,
        corr.extract_pc(corr.correlator_table(w_noisy)).c))
    delta = abs(estimated.KW - reference.KW)
    elapsed = time.perf_counter() - t0
    _criterion(10, "end-to-end", [
        (f"pipeline KW {estimated.KW:.6f} +/- {estimated.sigma:.6f} vs "
         f"exact-correlator value {reference.KW:.6f}: |delta| {delta:.1e} "
         "<= 0.02", delta <= 0.02),
        (f"runtime {elapsed:.1f} s <= 120 s", elapsed <= 120),
    ])
