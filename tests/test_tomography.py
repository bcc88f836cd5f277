"""Tests for simulated photon-counting tomography: settings, Born
probabilities, count simulation, reconstruction, and error bars."""

import hashlib

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from dickekw import correlations as corr
from dickekw import qmat, states, tomography as tomo


def w1_dm():
    return qmat.dm(states.dicke(3, 1))


def test_settings_full_lexicographic():
    s2 = tomo.settings_full(2)
    assert len(s2) == 9
    assert s2[:4] == ["XX", "XY", "XZ", "YX"]
    assert s2 == sorted(s2)
    assert len(tomo.settings_full(3)) == 27


def test_setting_basis_orthonormal_and_complete():
    for setting in ("X", "Y", "Z", "XY", "ZYX"):
        b = tomo.setting_basis(setting)
        d = b.shape[0]
        np.testing.assert_allclose(b @ b.conj().T, np.eye(d), atol=1e-12)
        proj = tomo.setting_projectors(setting)
        np.testing.assert_allclose(proj.sum(axis=0), np.eye(d), atol=1e-12)
    with pytest.raises(ValueError):
        tomo.setting_basis("XQ")


def test_born_probabilities_bell_pair():
    bell = states.psi_plus()
    np.testing.assert_allclose(tomo.born_probabilities(bell, "XX"),
                               [0.5, 0, 0, 0.5], atol=1e-12)
    np.testing.assert_allclose(tomo.born_probabilities(bell, "YY"),
                               [0.5, 0, 0, 0.5], atol=1e-12)
    np.testing.assert_allclose(tomo.born_probabilities(bell, "ZZ"),
                               [0, 0.5, 0.5, 0], atol=1e-12)


def test_born_outcome_zero_is_plus_eigenvalue():
    probs = tomo.born_probabilities(qmat.KET0, "Z")
    np.testing.assert_allclose(probs, [1, 0], atol=1e-12)
    plus = np.array([1, 1]) / np.sqrt(2)
    np.testing.assert_allclose(tomo.born_probabilities(plus, "X"), [1, 0],
                               atol=1e-12)
    y_plus = np.array([1, 1j]) / np.sqrt(2)
    np.testing.assert_allclose(tomo.born_probabilities(y_plus, "Y"), [1, 0],
                               atol=1e-12)


def test_born_ket_and_matrix_agree():
    rng = np.random.default_rng(20)
    psi = qmat.random_state_vector(2, rng)
    for setting in tomo.settings_full(2):
        np.testing.assert_allclose(
            tomo.born_probabilities(psi, setting),
            tomo.born_probabilities(qmat.dm(psi), setting), atol=1e-12)


def test_born_matches_projector_trace():
    rng = np.random.default_rng(21)
    rho = qmat.random_density_matrix(2, rng)
    for setting in tomo.settings_full(2):
        proj = tomo.setting_projectors(setting)
        direct = np.real(np.einsum("oij,ji->o", proj, rho))
        np.testing.assert_allclose(tomo.born_probabilities(rho, setting),
                                   direct, atol=1e-12)


def test_simulate_counts_reproducible():
    rho = w1_dm()
    settings = tomo.settings_full(3)
    a = tomo.simulate_counts(rho, settings, 1000, 5)
    b = tomo.simulate_counts(rho, settings, 1000, 5)
    assert [(r.setting, r.outcome, r.count) for r in a] == \
        [(r.setting, r.outcome, r.count) for r in b]
    c = tomo.simulate_counts(rho, settings, 1000, 6)
    assert [r.count for r in a] != [r.count for r in c]
    assert len(a) == 27 * 8 and a.counts.shape == (27, 8)
    assert all(type(r.count) is int and r.count >= 0 for r in a)


def test_simulate_counts_zero_probability_outcomes():
    bell = qmat.dm(states.psi_plus())
    records = tomo.simulate_counts(bell, ["XX"], 5000, 1)
    by_outcome = {r.outcome: r.count for r in records}
    assert by_outcome["01"] == 0
    assert by_outcome["10"] == 0
    assert by_outcome["00"] > 0


def test_exact_counts_are_probabilities():
    bell = qmat.dm(states.psi_plus())
    records = tomo.exact_counts(bell, ["ZZ"], 2.0)
    by_outcome = {r.outcome: r.count for r in records}
    assert by_outcome["01"] == pytest.approx(1.0, abs=1e-12)
    assert by_outcome["10"] == pytest.approx(1.0, abs=1e-12)
    assert by_outcome["00"] == pytest.approx(0.0, abs=1e-12)


def test_linear_inversion_round_trip():
    rng = np.random.default_rng(22)
    for n in (1, 2, 3):
        rho = qmat.random_density_matrix(n, rng)
        counts = tomo.exact_counts(rho, tomo.settings_full(n))
        np.testing.assert_allclose(tomo.linear_inversion(counts), rho,
                                   atol=1e-10)


def test_linear_inversion_on_sampled_counts():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 300, 9)
    rho = tomo.linear_inversion(counts)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1, abs=1e-9)


def test_linear_inversion_missing_coverage():
    counts = tomo.exact_counts(qmat.dm(states.psi_plus()), ["XX"])
    with pytest.raises(ValueError, match="covers"):
        tomo.linear_inversion(counts)


def test_linear_inversion_is_bit_stable():
    # digest of the bytes that the former per-setting loop produced; the
    # sum over Pauli strings runs in the same order, so it must match exactly
    counts = tomo.simulate_counts(states.noisy_dicke(0.765),
                                  tomo.settings_full(4), 1000, 11)
    rho = tomo.linear_inversion(counts)
    assert rho.dtype == np.complex128 and rho.shape == (16, 16)
    assert hashlib.sha256(rho.tobytes()).hexdigest() == (
        "b1007563907c6ddbbad377454e602508995c15e669955a1543a9ed2ea67a5570")


producers = pytest.mark.parametrize("simulate", [
    lambda rho, s: tomo.simulate_counts(rho, s, 100, 0),
    lambda rho, s: tomo.exact_counts(rho, s),
], ids=["simulate_counts", "exact_counts"])


@producers
def test_count_simulation_validates_state_once(monkeypatch, simulate):
    calls = []
    check = qmat.check_density_matrix
    monkeypatch.setattr(qmat, "check_density_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    simulate(w1_dm(), tomo.settings_full(3))
    assert len(calls) == 1


@producers
@pytest.mark.parametrize("settings", [["ZZZ"], ["XX", "Z"], []])
def test_count_simulation_needs_settings_that_fit_the_state(simulate, settings):
    with pytest.raises(ValueError, match="2-qubit state needs one or more "
                                         "settings of 2 letters"):
        simulate(qmat.dm(states.psi_plus()), settings)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(1, 3), st.data())
def test_count_table_rebuilds_from_its_records(n, data):
    settings = data.draw(st.lists(st.sampled_from(tomo.settings_full(n)),
                                  min_size=1, max_size=4, unique=True))
    values = data.draw(st.lists(st.one_of(st.integers(0, 10**9), st.floats(0, 1e9)),
                                min_size=len(settings) * 2**n,
                                max_size=len(settings) * 2**n))
    table = tomo.CountTable(tuple(settings),
                            np.reshape(values, (len(settings), 2**n)))
    records = list(table)
    assert len(records) == len(table) == len(settings) * 2**n
    assert tomo.count_table(table) is table
    again = tomo.count_table(records)
    assert again.settings == table.settings
    np.testing.assert_array_equal(again.counts, table.counts)
    # shuffled records fill the same rows; settings keep first appearance
    shuffled = data.draw(st.permutations(records))
    mixed = tomo.count_table(shuffled)
    assert mixed.settings == tuple(dict.fromkeys(r.setting for r in shuffled))
    for setting, row in zip(mixed.settings, mixed.counts):
        np.testing.assert_array_equal(row, table.counts[settings.index(setting)])
    doubled = tomo.count_table(records + shuffled)
    assert doubled.settings == table.settings
    np.testing.assert_array_equal(doubled.counts, 2 * table.counts)


@pytest.mark.parametrize("records, message", [
    ([("ZZ", "00", 1), ("ZZ", "-1", 7)], "bad count cell ZZ,-1"),
    ([("ZZZ", "1_0", 7)], "bad count cell ZZZ,1_0"),
    ([("ZZ", "00", 1), ("ZZZ", "000", 3)], "bad count cell ZZZ,000"),
    ([("QQ", "00", 1)], "bad measurement setting 'QQ'"),
    ([("ZZ", "00", -1)], "not a finite number >= 0"),
    ([("ZZ", "00", float("nan"))], "not a finite number >= 0"),
    ([], "no count records"),
    ([("Z", "0", 1e308), ("Z", "1", 1e308)], "past the largest float"),
    ([("X", "0", 1e308), ("Z", "0", 1e308)], "past the largest float"),
])
def test_count_table_rejects_malformed_records(records, message):
    with pytest.raises(ValueError, match=message):
        tomo.count_table([tomo.CountRecord(*r) for r in records])


def test_coarse_graining_consistency():
    # an estimate of a coarse observable agrees across refining settings
    rho = qmat.random_density_matrix(2, np.random.default_rng(23))
    est = {}
    for setting in ("ZX", "ZY", "ZZ"):
        counts = tomo.exact_counts(rho, [setting])
        recs = tomo.correlators_from_counts(counts, ["ZI"])
        est[setting] = recs[0].value
    vals = list(est.values())
    assert max(vals) - min(vals) < 1e-12
    assert vals[0] == pytest.approx(qmat.pauli_expectation(rho, "ZI"),
                                    abs=1e-12)


def test_mle_exact_counts_recover_state():
    rng = np.random.default_rng(24)
    for n in (1, 2):
        rho = qmat.random_density_matrix(n, rng)
        counts = tomo.exact_counts(rho, tomo.settings_full(n))
        result = tomo.mle_reconstruct(counts)
        assert result.converged
        np.testing.assert_allclose(result.rho, rho, atol=1e-6)


def test_mle_w_state_counts():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 10000, 42)
    result = tomo.mle_reconstruct(counts)
    assert result.converged
    fid = qmat.fidelity_pure(states.dicke(3, 1), result.rho)
    assert fid > 0.99
    qmat.check_density_matrix(result.rho)
    trace = np.asarray(result.log_likelihood_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    assert result.iterations == len(trace) - 1


def test_mle_fidelity_improves_with_counts():
    target = states.dicke(3, 1)
    settings = tomo.settings_full(3)
    medians = []
    for mean in (100.0, 1000.0, 10000.0):
        fids = []
        for seed in range(10):
            counts = tomo.simulate_counts(w1_dm(), settings, mean, seed)
            fit = tomo.mle_reconstruct(counts)
            fids.append(qmat.fidelity_pure(target, fit.rho))
        medians.append(float(np.median(fids)))
    assert medians[0] <= medians[1] + 1e-6
    assert medians[1] <= medians[2] + 1e-6
    assert medians[2] > 0.999


def test_mle_rejects_empty_counts():
    with pytest.raises(ValueError):
        tomo.mle_reconstruct([])


def test_bootstrap_fidelity():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 2000, 42)
    target = states.dicke(3, 1)
    mean1, sig1 = tomo.bootstrap_fidelity(counts, target, n_boot=60, seed=3)
    mean2, sig2 = tomo.bootstrap_fidelity(counts, target, n_boot=60, seed=3)
    assert mean1 == mean2 and sig1 == sig2
    assert 0.98 < mean1 <= 1.0
    assert 0 < sig1 < 0.01
    mean3, sig3 = tomo.bootstrap_fidelity(counts, target, n_boot=60, seed=4)
    assert (mean3, sig3) != (mean1, sig1)
    with pytest.raises(ValueError):
        tomo.bootstrap_fidelity(counts, target, n_boot=10, seed=0)


def test_correlators_from_exact_counts_match_expectations():
    rho = 0.765 * w1_dm() + 0.235 * np.eye(8) / 8
    counts = tomo.exact_counts(rho, tomo.settings_full(3))
    records = tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())
    assert len(records) == 20
    for record in records:
        assert record.value == pytest.approx(
            qmat.pauli_expectation(rho, record.pauli), abs=1e-12)
        assert record.sigma >= 0


def test_correlators_from_sampled_counts():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 10000, 42)
    records = {r.pauli: r for r in
               tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())}
    # every event in a Z-basis setting has odd parity on this state
    assert records["ZZZ"].value == pytest.approx(-1, abs=1e-12)
    assert records["ZZZ"].sigma == pytest.approx(0, abs=1e-12)
    assert records["III"].value == pytest.approx(1, abs=1e-9)
    assert records["III"].sigma == pytest.approx(0, abs=1e-9)
    assert records["XXZ"].value == pytest.approx(2 / 3, abs=0.05)
    assert records["XXZ"].sigma > 0


def test_correlators_default_paulis():
    counts = tomo.exact_counts(qmat.dm(states.psi_plus()),
                               tomo.settings_full(2))
    records = tomo.correlators_from_counts(counts)
    assert len(records) == 16
    table = {r.pauli: r.value for r in records}
    assert table["XX"] == pytest.approx(1, abs=1e-12)
    assert table["ZZ"] == pytest.approx(-1, abs=1e-12)
    assert table["ZI"] == pytest.approx(0, abs=1e-12)


def bell_counts():
    return tomo.simulate_counts(qmat.dm(states.psi_plus()),
                                tomo.settings_full(2), 200, 43)


# (mean, sigma) of 100 bootstrap replicas of psi-plus counts (200 mean
# counts, seed 43), recorded from the R rho R fit that reference_mle keeps
BELL_BOOTSTRAP = {
    44: (0.9976417582092033, 0.001134996049530829),
    9: (0.9976240615059059, 0.0013304833188934801),
}


@pytest.mark.parametrize("seed", sorted(BELL_BOOTSTRAP))
def test_bootstrap_fidelity_is_bit_stable(seed):
    # the accelerated fit reaches the R rho R optimum along another path, so
    # it agrees with the oracle's floats to 1e-6 and with itself exactly
    counts = bell_counts()
    first = tomo.bootstrap_fidelity(counts, states.psi_plus(), n_boot=100, seed=seed)
    assert tomo.bootstrap_fidelity(counts, states.psi_plus(), n_boot=100,
                                   seed=seed) == first
    assert first == pytest.approx(BELL_BOOTSTRAP[seed], abs=1e-6)


def reference_mle(settings, counts, max_iter=5000, tol=1e-10):
    """The former per-table R rho R loop, kept as the oracle of the
    accelerated fit, plus a count of the iterations that took a diluted
    step."""
    dim = counts.shape[1]
    projs = np.concatenate([tomo.setting_projectors(s)[vec > 0]
                            for s, vec in zip(settings, counts)])
    weights = counts[counts > 0]
    if not len(weights):
        raise ValueError("all settings have zero total counts")
    total = weights.sum()

    def probs_of(rho):
        return np.clip(np.real(np.einsum("kij,ji->k", projs, rho)), 1e-12, None)

    def loglike(p):
        return float(weights @ np.log(p))

    rho = tomo._project(tomo._linear_inversion(settings, counts)[None])[0]
    ll = loglike(probs_of(rho))
    trace = [ll]
    iterations = 0
    converged = False
    diluted = 0
    eye = np.eye(dim)
    for iterations in range(1, max_iter + 1):
        p = probs_of(rho)
        r_op = np.einsum("k,kij->ij", weights / (total * p), projs)
        candidate = r_op @ rho @ r_op
        candidate /= np.trace(candidate).real
        ll_new = loglike(probs_of(candidate))
        if ll_new < ll - 1e-11 * (1 + abs(ll)):
            diluted += 1
            accepted = False
            eps = 0.5
            while eps > 1e-10:
                damped = eye + eps * r_op
                candidate = damped @ rho @ damped
                candidate /= np.trace(candidate).real
                ll_new = loglike(probs_of(candidate))
                if ll_new >= ll - 1e-11 * (1 + abs(ll)):
                    accepted = True
                    break
                eps /= 2
            if not accepted:
                converged = True
                break
        gain = ll_new - ll
        rho = candidate
        ll = ll_new
        trace.append(ll)
        if gain < tol:
            converged = True
            break
    rho = (rho + rho.conj().T) / 2
    return tomo.TomographyResult(
        rho=rho, log_likelihood=ll, iterations=iterations,
        converged=converged, log_likelihood_trace=np.array(trace)), diluted


def bootstrap_tables(counts, n_boot, seed):
    """The bootstrap's resampled tables as a (replicas, settings, outcomes)
    stack, drawn one table cell at a time in table order."""
    table = tomo.count_table(counts)
    stack = []
    for stream in np.random.SeedSequence(seed).spawn(n_boot):
        rng = np.random.default_rng(stream)
        stack.append([rng.poisson(r.count) for r in table])
    return table.settings, np.reshape(stack, (n_boot, *table.counts.shape))


# one-qubit tables whose setting totals differ by three orders of
# magnitude: full R rho R steps overshoot, so the fits take diluted steps
UNBALANCED = (
    {"X": [1000.0, 4000.0], "Y": [10.0, 0.0], "Z": [2.0, 2.0]},
    {"X": [0.0, 4.0], "Y": [3000.0, 4000.0], "Z": [1.0, 0.0]},
    {"X": [3000.0, 1000.0], "Y": [1.0, 3.0], "Z": [0.0, 4.0]},
)


def w1_tables():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 50, 8)
    return bootstrap_tables(counts, 6, 3)


def acceptance_09_tables():
    settings = tomo.settings_full(3)
    runs = [tomo.simulate_counts(w1_dm(), settings, 10000, 42),
            tomo.exact_counts(w1_dm(), settings)]
    runs += [tomo.simulate_counts(w1_dm(), settings, 1000, seed) for seed in range(5)]
    return tuple(settings), np.array([r.counts for r in runs])


# (settings, stack of tables, fidelity target, fit options) per case
ORACLE_CASES = {
    "psi-plus, seed 44": lambda: (*bootstrap_tables(bell_counts(), 100, 44),
                                  states.psi_plus(), {}),
    "psi-plus, seed 9": lambda: (*bootstrap_tables(bell_counts(), 100, 9),
                                 states.psi_plus(), {}),
    "w1 at 50 counts": lambda: (*w1_tables(), states.dicke(3, 1), {}),
    "unbalanced": lambda: (("X", "Y", "Z"),
                           np.array([list(t.values()) for t in UNBALANCED]),
                           qmat.KET0, {"max_iter": 300}),
    "acceptance 09 runs": lambda: (*acceptance_09_tables(), states.dicke(3, 1), {}),
}


# the oracle's own stopping gain: at its default of 1e-10, R rho R stops up
# to 2e-6 in fidelity short of the optimum on the near-pure w1 tables
ORACLE_TOL = 1e-12


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_batched_mle_matches_the_per_table_loop(case):
    # the two fits take different paths to the same optimum: the fit is at
    # least as likely as the oracle's, and as faithful where that converged
    settings, stack, target, options = ORACLE_CASES[case]()
    fits = tomo._mle(settings, stack, **options)
    diluted = 0
    for table, fit in zip(stack, fits):
        ref, steps = reference_mle(settings, table, tol=ORACLE_TOL, **options)
        diluted += steps
        assert fit.log_likelihood >= ref.log_likelihood - 1e-8 * abs(ref.log_likelihood)
        if ref.converged:
            assert fit.converged
            assert qmat.fidelity_pure(target, fit.rho) == pytest.approx(
                qmat.fidelity_pure(target, ref.rho), abs=1e-6)
    if case == "w1 at 50 counts":
        assert (stack == 0).any()
    if case == "unbalanced":
        assert diluted > 0


@pytest.mark.parametrize("case", ["psi-plus, seed 44", "w1 at 50 counts",
                                  "acceptance 09 runs"])
def test_a_table_fits_alike_in_a_block_and_alone(case):
    settings, stack, target, _ = ORACLE_CASES[case]()
    fits = tomo._mle(settings, stack)
    assert len({fit.iterations for fit in fits}) > 1  # tables leave the block
    for table, fit in zip(stack, fits):
        alone = tomo._mle(settings, table[None])[0]
        assert qmat.fidelity_pure(target, fit.rho) == pytest.approx(
            qmat.fidelity_pure(target, alone.rho), abs=1e-9)
        assert fit.log_likelihood == pytest.approx(
            alone.log_likelihood, rel=1e-9, abs=0)


def test_bootstrap_blocks_match_the_per_replica_loop():
    n_boot = tomo._BOOTSTRAP_BLOCK + 1
    settings, stack = bootstrap_tables(bell_counts(), n_boot, 17)
    fids = [qmat.fidelity_pure(states.psi_plus(),
                               tomo._mle(settings, table[None])[0].rho)
            for table in stack]
    mean, sigma = tomo.bootstrap_fidelity(bell_counts(), states.psi_plus(),
                                          n_boot=n_boot, seed=17)
    assert mean == pytest.approx(np.mean(fids), abs=1e-12)
    assert sigma == pytest.approx(np.std(fids, ddof=1), abs=1e-12)


def test_mle_converges_where_the_per_table_loop_stalls():
    w_noisy, _ = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    counts = tomo.simulate_counts(w_noisy, tomo.settings_full(3), 1000, 1)
    ref, _ = reference_mle(counts.settings, counts.counts)
    fit = tomo.mle_reconstruct(counts)
    assert not ref.converged and ref.iterations == 5000
    assert fit.converged and fit.iterations < 500
    assert fit.log_likelihood >= ref.log_likelihood


# (p, mean counts, seed) of two four-qubit benchmark inputs, and the
# log-likelihood that the R rho R oracle reached on each (in over 10 s)
DICKE4_ORACLE = {
    (0.765, 10000, 3506230538): -2085096.3786223475,
    (0.9, 1000, 1922987891): -200580.19557714465,
}


@pytest.mark.parametrize("p, mean, seed", sorted(DICKE4_ORACLE))
def test_mle_converges_on_four_qubits(p, mean, seed):
    counts = tomo.simulate_counts(states.noisy_dicke(p), tomo.settings_full(4),
                                  mean, seed)
    fit = tomo.mle_reconstruct(counts)
    assert fit.converged
    qmat.check_density_matrix(fit.rho)
    oracle = DICKE4_ORACLE[p, mean, seed]
    assert fit.log_likelihood >= oracle - 1e-8 * abs(oracle)
    assert qmat.fidelity_pure(states.dicke(4, 2), fit.rho) == pytest.approx(
        p + (1 - p) / 16, abs=0.02)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.integers(1, 2), st.integers(0, 2**32 - 1),
       st.sampled_from([30.0, 300.0, 3000.0]), st.sampled_from([1, None]))
def test_mle_is_at_least_as_likely_as_the_true_state(n, seed, mean, rank):
    # an optimality oracle that needs no solver: the maximum of the
    # likelihood is at least its value at the state that drew the counts
    rng = np.random.default_rng(seed)
    rho = qmat.random_density_matrix(n, rng, rank=rank)
    counts = tomo.simulate_counts(rho, tomo.settings_full(n), mean, seed)
    fit = tomo.mle_reconstruct(counts)
    qmat.check_density_matrix(fit.rho)
    truth = sum(r.count * np.log(max(
        tomo.born_probabilities(rho, r.setting)[int(r.outcome, 2)], 1e-12))
        for r in counts)
    assert fit.converged
    assert fit.log_likelihood >= truth - 1e-8 * abs(truth)


def test_simplex_projection_matches_a_bisection():
    # the projection onto the simplex is max(v - shift, 0) with the shift
    # that makes it sum to one; bisect for that shift independently
    rng = np.random.default_rng(25)
    vals = np.concatenate([rng.normal(size=(50, 6)),
                           rng.dirichlet(np.ones(6), size=5),
                           np.full((1, 6), 1 / 6), 1e3 * rng.normal(size=(5, 6))])
    projected = tomo._simplex(vals)
    for v, x in zip(vals, projected):
        lo, hi = v.min() - 1, v.max()
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if np.clip(v - mid, 0, None).sum() > 1 else (lo, mid)
        np.testing.assert_allclose(x, np.clip(v - lo, 0, None), atol=1e-12)
        assert x.min() >= 0 and x.sum() == pytest.approx(1, abs=1e-12)


def test_bootstrap_raises_for_the_first_replica_without_coverage():
    # one XY count: about a third of the replicas resample XY to zero, and
    # the XY correlator then has no setting with data
    counts = [tomo.CountRecord(r.setting, r.outcome, int(r.outcome == "00"))
              if r.setting == "XY" else r for r in bell_counts()]
    settings, stack = bootstrap_tables(counts, 60, 2)
    assert not stack[:, settings.index("XY")].any(axis=1).all()
    with pytest.raises(ValueError) as expected:
        for table in stack:
            reference_mle(settings, table)
    with pytest.raises(ValueError) as raised:
        tomo.bootstrap_fidelity(counts, states.psi_plus(), n_boot=60, seed=2)
    assert str(raised.value) == str(expected.value) == "no setting with data covers XY"
    # a table with no counts at all fails as a one-table fit of it does
    stack = np.array([bell_counts().counts] * 2)
    stack[1] = 0
    with pytest.raises(ValueError, match="all settings have zero total counts"):
        tomo._mle(settings, stack)


def test_correlators_build_their_layout_once_per_table_shape(monkeypatch):
    builds = []
    strings = tomo.pauli_strings
    monkeypatch.setattr(tomo, "pauli_strings",
                        lambda n: builds.append(n) or strings(n))
    tomo._correlator_layout.cache_clear()
    counts = bell_counts()
    tomo.bootstrap_fidelity(counts, states.psi_plus(), n_boot=100, seed=44)
    assert builds == [2]
    tomo.correlators_from_counts(counts, ["XX"])
    assert builds == [2]
    tomo.correlators_from_counts([r for r in counts if r.setting == "XX"], ["XX"])
    assert builds == [2, 2]


def test_bootstrap_resampling_equals_per_record_draws():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 50, 8)
    observed = np.array([float(r.count) for r in counts])
    stream = np.random.SeedSequence(5).spawn(1)[0]
    rng = np.random.default_rng(stream)
    scalar = [int(rng.poisson(float(r.count))) for r in counts]
    assert list(np.random.default_rng(stream).poisson(observed)) == scalar


def test_fixed_tables_are_cached_read_only():
    for table in (tomo.setting_projectors("XYZ"), tomo._sign_vector("XIZ"),
                  qmat.pauli_matrix("XYZ"), bell_counts().counts):
        with pytest.raises(ValueError):
            table.flat[0] = 0
    layout = tomo._correlator_layout(("XZ", "ZZ"))
    assert layout["IZ"][1] == (0, 1)
    with pytest.raises(TypeError):
        layout["IZ"] = layout["ZZ"]
    assert tomo.setting_projectors("XYZ") is tomo.setting_projectors("XYZ")
    with pytest.raises(ValueError):
        tomo.setting_projectors("XQ")
