"""Tests for simulated photon-counting tomography: settings, Born
probabilities, count simulation, reconstruction, and error bars."""

import hashlib
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from dickekw import correlations as corr
from dickekw import io, qmat, states, tomography as tomo


def w1_dm():
    return qmat.dm(states.dicke(3, 1))


# The former Kronecker-basis model of a measurement, kept as the oracle of
# the Born tables that the producers take from the outcome-sign layout: the
# rows of each matrix are the outcome bras, outcome 0 (eigenvalue +1) first.
BASIS_BRAS = {
    "X": qmat.H,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


def setting_basis(setting):
    """Matrix whose rows are the outcome bras of a setting."""
    if not setting or any(l not in BASIS_BRAS for l in setting):
        raise ValueError(f"bad measurement setting {setting!r}")
    return qmat.tensor(*(BASIS_BRAS[l] for l in setting))


def basis_born_table(rho, settings):
    """The former route to the outcome probabilities: one sandwich of the
    state with each setting's basis, clipped at zero."""
    probs = []
    for b in map(setting_basis, settings):
        if rho.ndim == 1:
            probs.append(np.abs(b @ rho) ** 2)
        else:
            probs.append(np.real(np.einsum("oi,ij,oj->o", b, rho, b.conj())))
    return np.clip(probs, 0.0, None)


def projectors(setting):
    """The rank-1 projectors onto the outcome kets of a setting, by outcome."""
    b = setting_basis(setting)
    return np.einsum("oi,oj->oij", b.conj(), b)


def test_settings_full_lexicographic():
    s2 = tomo.settings_full(2)
    assert len(s2) == 9
    assert s2[:4] == ["XX", "XY", "XZ", "YX"]
    assert s2 == sorted(s2)
    assert len(tomo.settings_full(3)) == 27


def test_setting_basis_orthonormal_and_complete():
    for setting in ("X", "Y", "Z", "XY", "ZYX"):
        b = setting_basis(setting)
        d = b.shape[0]
        np.testing.assert_allclose(b @ b.conj().T, np.eye(d), atol=1e-12)
        proj = projectors(setting)
        np.testing.assert_allclose(proj.sum(axis=0), np.eye(d), atol=1e-12)
    with pytest.raises(ValueError):
        setting_basis("XQ")


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
        proj = projectors(setting)
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


def test_exact_counts_match_the_basis_route():
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 4):
        settings = tomo.settings_full(n)
        for _ in range(3):
            for rho in (qmat.random_state_vector(n, rng),
                        qmat.random_density_matrix(n, rng),
                        qmat.random_density_matrix(n, rng, rank=1)):
                table = tomo.exact_counts(rho, settings)
                assert table.settings == tuple(settings)
                assert np.abs(table.counts - basis_born_table(rho, settings)).max() <= 1e-15


def report_and_acceptance_draws():
    """(state, settings, mean counts, seed) of every simulation that
    ``dickekw report --seed 42/7/3`` and the acceptance tests make."""
    w1 = w1_dm()
    bell = qmat.dm(states.psi_plus())
    w_noisy, _ = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    s2, s3 = tomo.settings_full(2), tomo.settings_full(3)
    draws = [(w1, s3, 1000, seed) for seed in range(5)]
    for seed in (42, 7, 3):
        draws += [(w1, s3, 10000, seed), (bell, s2, 200, seed + 1),
                  (w_noisy, s3, 10000, seed)]
    return draws


def test_simulate_counts_match_the_basis_route_bit_for_bit():
    for rho, settings, mean, seed in report_and_acceptance_draws():
        oracle = np.random.default_rng(seed).poisson(mean * basis_born_table(rho, settings))
        table = tomo.simulate_counts(rho, settings, mean, seed)
        assert table.counts.dtype == oracle.dtype
        assert np.array_equal(table.counts, oracle)


PAULI_EIGENKETS = [qmat.KET0, qmat.KET1, np.array([1, 1]) / np.sqrt(2),
                   np.array([1, -1]) / np.sqrt(2), np.array([1, 1j]) / np.sqrt(2),
                   np.array([1, -1j]) / np.sqrt(2)]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.integers(1, 4), st.data())
def test_zero_probability_outcomes_draw_no_events(n, data):
    # Dicke states and products of Pauli eigenstates have outcomes of
    # probability zero.  Rounding may leave 1e-17 there at four qubits, in
    # the basis route too; at a mean of 1e6 counts that draws an event once
    # in 1e10 cells.
    if data.draw(st.booleans(), label="dicke"):
        psi = states.dicke(n, data.draw(st.integers(0, n), label="excitations"))
    else:
        psi = qmat.tensor(*data.draw(st.lists(st.sampled_from(PAULI_EIGENKETS),
                                              min_size=n, max_size=n)))
    rho = psi if data.draw(st.booleans(), label="ket") else qmat.dm(psi)
    # the all-Z setting has zero cells for every Dicke state
    settings = ["Z" * n] + data.draw(st.lists(st.sampled_from(tomo.settings_full(n)[:-1]),
                                              max_size=8, unique=True))
    zero = basis_born_table(qmat.dm(psi), settings) < 1e-12
    assert (tomo.exact_counts(rho, settings).counts[zero] <= 1e-15).all()
    mean = data.draw(st.sampled_from([1e2, 1e4, 1e6]))
    drawn = tomo.simulate_counts(rho, settings, mean, data.draw(st.integers(0, 2**32 - 1)))
    assert not drawn.counts[zero].any()


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


def loop_correlators(settings, counts, paulis=None):
    """The former per-string loop, kept as the oracle of the outcome-sign
    layout: each string's sign vector dotted with the frequencies of every
    refining setting with data."""
    n = len(settings[0])
    totals = [vec.sum() for vec in counts]
    freqs = [vec / tot if tot > 0 else None for vec, tot in zip(counts, totals)]
    paulis = qmat.pauli_strings(n) if paulis is None else paulis
    values, sigmas = [], []
    for pauli in paulis:
        if len(pauli) != n:
            raise ValueError(f"Pauli string {pauli!r} does not match {n} qubits")
        sign = np.array([1.0])
        for letter in pauli:
            sign = np.kron(sign, [1.0, 1.0] if letter == "I" else [1.0, -1.0])
        refining = [k for k, s in enumerate(settings) if freqs[k] is not None
                    and all(p == "I" or p == s[i] for i, p in enumerate(pauli))]
        if not refining:
            raise ValueError(f"no setting with data covers {pauli}")
        ests = np.array([sign @ freqs[k] for k in refining])
        variances = np.array([max(0.0, 1 - e * e) / totals[k]
                              for e, k in zip(ests, refining)])
        values.append(float(ests.mean()))
        sigmas.append(float(np.sqrt(variances.sum()) / len(refining)))
    return corr.CorrelatorTable(paulis, values, sigmas)


def loop_linear_inversion(settings, counts):
    """The former sum of 4**n Pauli matrices, the oracle of the contraction."""
    dim = counts.shape[1]
    rho = np.zeros((dim, dim), dtype=complex)
    table = loop_correlators(settings, counts)
    for pauli, value in zip(table.paulis, table.values):
        rho += value * qmat.tensor(*(qmat.PAULI[l] for l in pauli))
    return rho / dim


def assert_matches_the_loop(new, old):
    """A table agrees with the loop oracle's to 1e-15.  The oracle divides
    before it signs, so a string whose events all carry one sign can land
    one ulp inside |<P>| = 1, and the root of (1 - <P>^2) / N magnifies that
    ulp to up to 1e-8 of sigma: there, sigma is exactly 0 and the oracle's
    sigma squared is below 1e-15."""
    assert new.paulis == old.paulis
    assert np.abs(new.values - old.values).max() <= 1e-15
    for a, b in zip(new.sigmas, old.sigmas):
        assert abs(a - b) <= 1e-15 or (a == 0 and b**2 <= 1e-15)


def test_linear_inversion_is_bit_stable():
    # digest of the contraction's bytes; the former sum over Pauli matrices
    # added in another order, so it is an oracle to within 1e-15
    counts = tomo.simulate_counts(states.noisy_dicke(0.765),
                                  tomo.settings_full(4), 1000, 11)
    rho = tomo.linear_inversion(counts)
    assert rho.dtype == np.complex128 and rho.shape == (16, 16)
    assert hashlib.sha256(rho.tobytes()).hexdigest() == (
        "4442458bb3b00fdc7047f54d86900f6aca0322fda568ac93143cb4cf98433da9")
    oracle = loop_linear_inversion(counts.settings, counts.counts)
    assert np.abs(rho - oracle).max() <= 1e-15
    assert_matches_the_loop(tomo.correlators_from_counts(counts),
                            loop_correlators(counts.settings, counts.counts))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.integers(1, 3), st.data())
def test_layout_matches_the_per_string_loop(n, data):
    settings = tuple(data.draw(st.lists(st.sampled_from(tomo.settings_full(n)),
                                        min_size=1, max_size=3**n, unique=True)))
    stack = np.array([data.draw(st.lists(
        st.lists(st.integers(0, 30), min_size=2**n, max_size=2**n)
        | st.just([0] * 2**n),
        min_size=len(settings), max_size=len(settings))) for _ in range(3)], dtype=float)
    paulis = data.draw(st.none() | st.lists(st.sampled_from(qmat.pauli_strings(n)),
                                            min_size=1, max_size=8))
    for table in stack:
        try:
            old = loop_correlators(settings, table, paulis)
        except ValueError as expected:
            with pytest.raises(ValueError) as raised:
                tomo.correlators_from_counts(tomo.CountTable(settings, table), paulis)
            assert str(raised.value) == str(expected)
        else:
            new = tomo.correlators_from_counts(tomo.CountTable(settings, table), paulis)
            assert_matches_the_loop(new, old)
    # a block of tables gives each table's numbers bit for bit
    values, sigmas = tomo._correlators(settings, stack)
    for table, v, s in zip(stack, values, sigmas):
        (v1,), (s1,) = tomo._correlators(settings, table[None])
        assert np.array_equal(v, v1, equal_nan=True)
        assert np.array_equal(s, s1, equal_nan=True)
    # a block's linear inversions equal each table's, or the block fails as
    # the oracle does on its first table without coverage
    failures = []
    for table in stack:
        try:
            loop_correlators(settings, table)
        except ValueError as error:
            failures.append(str(error))
    if failures:
        with pytest.raises(ValueError) as raised:
            tomo._linear_inversion(settings, stack)
        assert str(raised.value) == failures[0]
    else:
        rhos = tomo._linear_inversion(settings, stack)
        for table, rho in zip(stack, rhos):
            assert np.array_equal(rho, tomo._linear_inversion(settings, table[None])[0])
            assert np.abs(rho - loop_linear_inversion(settings, table)).max() <= 1e-15


def test_block_starts_stay_small_in_memory():
    # the starts of a full 4-qubit bootstrap block share one sign layout
    # instead of a dense (strings, settings, outcomes) sign tensor
    counts = tomo.simulate_counts(states.noisy_dicke(0.765), tomo.settings_full(4), 1000, 11)
    rng = np.random.default_rng(0)
    block = np.array([rng.poisson(counts.counts) for _ in range(tomo._BOOTSTRAP_BLOCK)])
    tomo._project(tomo._linear_inversion(counts.settings, block[:1]))
    tracemalloc.start()
    try:
        tomo._project(tomo._linear_inversion(counts.settings, block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("pauli, message", [
    ("QQ", "bad Pauli string 'QQ'"),
    ("xz", "bad Pauli string 'xz'"),
    ("", "bad Pauli string ''"),
    ("XZI", "Pauli string 'XZI' does not match 2 qubits"),
])
def test_correlators_name_a_malformed_pauli_string(pauli, message):
    with pytest.raises(ValueError, match=message):
        tomo.correlators_from_counts(bell_counts(), ["XX", pauli])


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


@hypothesis.settings(max_examples=60, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(n=st.integers(1, 3), data=st.data())
def test_count_table_rebuilds_from_its_records(tmp_path, n, data):
    # the counts reader turns rows into a table: settings in the order they
    # first appear, rows of the same cell added up
    settings = data.draw(st.lists(st.sampled_from(tomo.settings_full(n)),
                                  min_size=1, max_size=4, unique=True))
    values = data.draw(st.lists(st.one_of(st.integers(0, 10**9), st.floats(0, 1e9)),
                                min_size=len(settings) * 2**n,
                                max_size=len(settings) * 2**n))
    table = tomo.CountTable(tuple(settings),
                            np.reshape(values, (len(settings), 2**n)))
    records = list(table)
    assert len(records) == len(table) == len(settings) * 2**n
    path = tmp_path / "counts.csv"

    def reread(rows):
        io.save_counts(path, rows)
        return io.load_counts(path)

    again = reread(records)
    assert again.settings == table.settings
    np.testing.assert_array_equal(again.counts, table.counts)
    shuffled = data.draw(st.permutations(records))
    mixed = reread(shuffled)
    assert mixed.settings == tuple(dict.fromkeys(r.setting for r in shuffled))
    for setting, row in zip(mixed.settings, mixed.counts):
        np.testing.assert_array_equal(row, table.counts[settings.index(setting)])
    doubled = reread(records + shuffled)
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
    ([("X", "0", 4e306), ("Z", "0", 4e306)], "past the largest float / 28"),
])
def test_count_table_rejects_malformed_records(tmp_path, records, message):
    # records become a table only through the counts reader, which names the
    # file and the reason
    path = tmp_path / "counts.csv"
    path.write_text("".join(f"{s},{o},{c!r}\n" for s, o, c in records))
    with pytest.raises(ValueError, match=message) as raised:
        io.load_counts(path)
    assert str(path) in str(raised.value)


@pytest.mark.parametrize("settings, shape, message", [
    ((), (0, 4), "need settings of one length"),
    (("QZ", "ZZ"), (2, 4), "bad measurement setting 'QZ'"),
    (("XZ", ""), (2, 4), "bad measurement setting ''"),
    (("XZ", "Z"), (2, 4), "need settings of one length"),
    (("XZ", "ZZ"), (2, 2), r"counts of shape .*got \['XZ', 'ZZ'\] and \(2, 2\)"),
    (("XZ", "ZZ"), (3, 4), r"got \['XZ', 'ZZ'\] and \(3, 4\)"),
    (("XZ", "ZZ"), (8,), r"got \['XZ', 'ZZ'\] and \(8,\)"),
])
def test_count_table_checks_its_settings_and_counts(settings, shape, message):
    with pytest.raises(ValueError, match=message):
        tomo.CountTable(settings, np.ones(shape))


@pytest.mark.parametrize("counts", [
    [[50, 50], [50, 50], [90, -3]],
    [[50, 50], [50, np.nan], [50, 50]],
    [[50, np.inf], [50, 50], [50, 50]],
    [[50, 50], [50, 50], [-np.inf, 50]],
    [[tomo.MAX_TOTAL_COUNT, 0], [0, 0], [1e300, 0]],
    [[1e308, 1e308], [1e308, 1e308], [0, 0]],
    [["50", "50"], ["a", "b"], ["50", "50"]],
    [[50, 50j], [50, 50], [50, 50]],
])
@pytest.mark.filterwarnings("error")
def test_count_table_rejects_bad_count_values(counts):
    # a table built directly is checked as one read from a file: before,
    # [90, -3] gave <Z> = 1.069 and a fit that reported converged=True
    with pytest.raises(ValueError, match="counts must be finite numbers >= 0"):
        tomo.CountTable(("X", "Y", "Z"), counts)


def test_coarse_graining_consistency():
    # an estimate of a coarse observable agrees across refining settings
    rho = qmat.random_density_matrix(2, np.random.default_rng(23))
    est = {}
    for setting in ("ZX", "ZY", "ZZ"):
        counts = tomo.exact_counts(rho, [setting])
        est[setting] = tomo.correlators_from_counts(counts, ["ZI"]).values[0]
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
    with pytest.raises(ValueError, match="all settings have zero total counts"):
        tomo.mle_reconstruct(tomo.CountTable(("ZZ",), np.zeros((1, 4))))


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
    table = tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())
    assert table.paulis == corr.kw_correlator_paulis()
    for pauli, value in zip(table.paulis, table.values):
        assert value == pytest.approx(qmat.pauli_expectation(rho, pauli), abs=1e-12)
    assert (table.sigmas >= 0).all()


def test_correlators_from_sampled_counts():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 10000, 42)
    table = tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())
    rows = {p: (v, s) for p, v, s in zip(table.paulis, table.values, table.sigmas)}
    # every event in a Z-basis setting has odd parity on this state
    assert rows["ZZZ"] == pytest.approx((-1, 0), abs=1e-12)
    # each setting's total is its signed sum for III, so III is exact
    assert rows["III"] == (1.0, 0.0)
    assert rows["XXZ"][0] == pytest.approx(2 / 3, abs=0.05)
    assert rows["XXZ"][1] > 0


def test_correlators_default_paulis():
    counts = tomo.exact_counts(qmat.dm(states.psi_plus()),
                               tomo.settings_full(2))
    correlators = tomo.correlators_from_counts(counts)
    assert correlators.paulis == tuple(qmat.pauli_strings(2))
    table = dict(zip(correlators.paulis, correlators.values))
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
    projs = np.concatenate([projectors(s)[vec > 0]
                            for s, vec in zip(settings, counts)])
    weights = counts[counts > 0]
    if not len(weights):
        raise ValueError("all settings have zero total counts")
    total = weights.sum()

    def probs_of(rho):
        return np.clip(np.real(np.einsum("kij,ji->k", projs, rho)), 1e-12, None)

    def loglike(p):
        return float(weights @ np.log(p))

    rho = tomo._project(tomo._linear_inversion(settings, counts[None]))[0]
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


def bootstrap_tables(table, n_boot, seed):
    """The bootstrap's resampled tables as a (replicas, settings, outcomes)
    stack, drawn one table cell at a time in table order."""
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


def assert_fit_maps_match_the_projectors(settings, rhos, ratio):
    # the fit's probabilities are Tr[rho Pi] and its gradient sum ratio * Pi
    # over the outcome projectors Pi, setting by setting
    projs = np.concatenate([projectors(s) for s in settings])
    probs = np.real(np.einsum("kij,rji->rk", projs, rhos))[:, None]
    assert np.abs(tomo._fit_probabilities(settings, rhos) - probs).max() <= 1e-15
    grad = np.einsum("rk,kij->rij", ratio[:, 0], projs)
    new = tomo._fit_gradient(settings, ratio)
    assert new.shape == grad.shape
    assert np.abs(new - grad).max() <= 1e-14 * np.abs(grad).max()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_fit_maps_match_the_projectors(n, seed, data):
    settings = tuple(data.draw(st.lists(st.sampled_from(tomo.settings_full(n)),
                                        min_size=1, max_size=3**n, unique=True)))
    rng = np.random.default_rng(seed)
    rhos = np.array([qmat.random_density_matrix(n, rng, rank=rank)
                     for rank in data.draw(st.lists(st.sampled_from([1, None]),
                                                    min_size=1, max_size=3))])
    # counts / probability: zero for an outcome without counts, up to 1e12
    # times the count where the fit clips a probability
    shape = (len(rhos), 1, len(settings) * 2**n)
    ratio = (rng.choice([0.0, 1.0, 1e12], shape, p=[0.3, 0.6, 0.1])
             * rng.exponential(100.0, shape))
    assert_fit_maps_match_the_projectors(settings, rhos, ratio)


def test_fit_maps_match_the_projectors_on_four_qubits():
    rng = np.random.default_rng(4)
    rhos = np.array([qmat.random_density_matrix(4, rng), qmat.dm(states.dicke(4, 2))])
    ratio = rng.exponential(100.0, (2, 1, 81 * 16))
    assert_fit_maps_match_the_projectors(tuple(tomo.settings_full(4)), rhos, ratio)


def test_four_qubit_fit_stays_small_in_memory():
    # the fit works on the Pauli coordinates of its states: no step builds a
    # (settings x outcomes, 4**n) stack of outcome projectors (5.3 MB here)
    counts = tomo.simulate_counts(states.noisy_dicke(0.9), tomo.settings_full(4), 1000, 1)
    tomo.linear_inversion(counts)  # builds the cached layout and Pauli stack
    tracemalloc.start()
    try:
        fit = tomo.mle_reconstruct(counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 2e6


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
    table = bell_counts()
    cells = table.counts.copy()
    cells[table.settings.index("XY")] = [1, 0, 0, 0]
    counts = tomo.CountTable(table.settings, cells)
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


def test_correlators_build_their_layout_once_per_table_shape():
    tomo._layout.cache_clear()
    counts = bell_counts()
    tomo.bootstrap_fidelity(counts, states.psi_plus(), n_boot=100, seed=44)
    assert tomo._layout.cache_info().misses == 1
    tomo.correlators_from_counts(counts, ["XX"])
    assert tomo._layout.cache_info().misses == 1
    tomo.correlators_from_counts(tomo.CountTable(("XX",), counts.counts[:1]), ["XX"])
    assert tomo._layout.cache_info().misses == 2


def test_bootstrap_resampling_equals_per_record_draws():
    counts = tomo.simulate_counts(w1_dm(), tomo.settings_full(3), 50, 8)
    observed = np.array([float(r.count) for r in counts])
    stream = np.random.SeedSequence(5).spawn(1)[0]
    rng = np.random.default_rng(stream)
    scalar = [int(rng.poisson(float(r.count))) for r in counts]
    assert list(np.random.default_rng(stream).poisson(observed)) == scalar


def test_fixed_tables_are_cached_read_only():
    for table in (*tomo._layout(("XZ", "ZZ")), qmat._pauli_stack(2),
                  bell_counts().counts):
        with pytest.raises(ValueError):
            table.flat[0] = 0
    # keeping qubit b only (mask 01), both settings measure IZ
    signs, index = tomo._layout(("XZ", "ZZ"))
    assert list(index[:, 1]) == [qmat.pauli_strings(2).index("IZ")] * 2
    assert list(signs[1]) == [1, -1, 1, -1]
    assert tomo._layout(("XZ", "ZZ")) is tomo._layout(("XZ", "ZZ"))
    with pytest.raises(ValueError):
        projectors("XQ")
