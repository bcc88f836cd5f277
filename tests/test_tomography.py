"""Tests for simulated photon-counting tomography: settings, Born
probabilities, count simulation, reconstruction, and error bars."""

import hashlib

import numpy as np
import pytest

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
    assert len(a) == 27 * 8
    assert all(r.count >= 0 and float(r.count).is_integer() for r in a)


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


@pytest.mark.parametrize("simulate", [
    lambda rho, s: tomo.simulate_counts(rho, s, 100, 0),
    lambda rho, s: tomo.exact_counts(rho, s),
], ids=["simulate_counts", "exact_counts"])
def test_count_simulation_validates_state_once(monkeypatch, simulate):
    calls = []
    check = qmat.check_density_matrix
    monkeypatch.setattr(qmat, "check_density_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    simulate(w1_dm(), tomo.settings_full(3))
    assert len(calls) == 1


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


# (mean, sigma) of 100 bootstrap replicas of psi-plus counts (200 mean
# counts, seed 43), recorded when every replica rebuilt its count records
BELL_BOOTSTRAP = {
    44: (0.9976417582092033, 0.001134996049530829),
    9: (0.9976240615059059, 0.0013304833188934801),
}


@pytest.mark.parametrize("seed", sorted(BELL_BOOTSTRAP))
def test_bootstrap_fidelity_is_bit_stable(seed):
    counts = tomo.simulate_counts(qmat.dm(states.psi_plus()),
                                  tomo.settings_full(2), 200, 43)
    assert tomo.bootstrap_fidelity(counts, states.psi_plus(), n_boot=100,
                                   seed=seed) == BELL_BOOTSTRAP[seed]


def test_bootstrap_resampling_equals_per_record_draws():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 50, 8)
    observed = np.array([float(r.count) for r in counts])
    stream = np.random.SeedSequence(5).spawn(1)[0]
    rng = np.random.default_rng(stream)
    scalar = [int(rng.poisson(float(r.count))) for r in counts]
    assert list(np.random.default_rng(stream).poisson(observed)) == scalar


def test_fixed_tables_are_cached_read_only():
    for table in (tomo.setting_projectors("XYZ"), tomo._sign_vector("XIZ"),
                  qmat.pauli_matrix("XYZ")):
        with pytest.raises(ValueError):
            table.flat[0] = 0
    assert tomo.setting_projectors("XYZ") is tomo.setting_projectors("XYZ")
    with pytest.raises(ValueError):
        tomo.setting_projectors("XQ")
