"""Tests for entanglement measures, the measurement optimizer, the symmetric
closed forms, and correlator-table ingestion.

Reference constants were computed with an independent high-precision
implementation and are frozen here.
"""

import dataclasses
import functools
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickekw import correlations as corr
from dickekw import io, qmat, states
from dickekw import tomography as tomo
from test_tomography import loop_correlators

# pure single-excitation point, p = c = 1/3
S_PURE = 0.91829583405449
E_PURE = 0.550047759582757
J_PURE = 0.368248074471732

# measured-table point, (p, c) = (0.31, 0.30375)
TABLE_POINT = {
    "S": 0.9513836878307,
    "E": 0.492936485056244,
    "J": 0.424561771307767,
    "KW": 0.0338854314666889,
}

# white-noise projection point, (p, c) = (0.284375, 0.255)
NOISY_POINT = {
    "S": 0.978932603531268,
    "E": 0.432266106756658,
    "J": 0.442356225329274,
    "KW": 0.104310271445336,
}


def w1_dm():
    return qmat.dm(states.dicke(3, 1))


def test_pauli_expectations_on_w1():
    rho = w1_dm()
    assert qmat.pauli_expectation(rho, "ZZZ") == pytest.approx(-1, abs=1e-12)
    for p in corr.pauli_class("ZZI"):
        assert qmat.pauli_expectation(rho, p) == pytest.approx(-1 / 3, abs=1e-12)
    for p in corr.pauli_class("ZII"):
        assert qmat.pauli_expectation(rho, p) == pytest.approx(1 / 3, abs=1e-12)
    for rep in ("XXZ", "YYZ", "XXI", "YYI"):
        for p in corr.pauli_class(rep):
            assert qmat.pauli_expectation(rho, p) == pytest.approx(2 / 3,
                                                                   abs=1e-12)
    assert qmat.pauli_expectation(rho, "III") == pytest.approx(1, abs=1e-12)


def test_expectations_of_a_state_with_an_anti_hermitian_residue_are_real():
    # the check accepts a residue below its tolerance; the coordinates read
    # the state's Hermitian part, w1
    rho = w1_dm() + 1j * 4.9e-10 * np.ones((8, 8))
    qmat.check_density_matrix(rho)
    exact, new = corr.correlator_table(w1_dm()), corr.correlator_table(rho)
    assert new.paulis == exact.paulis
    assert np.abs(new.values - exact.values).max() <= 1e-15
    for pauli, value in zip(exact.paulis, exact.values):
        assert abs(qmat.pauli_expectation(rho, pauli) - value) <= 1e-15


def test_pauli_expectation_rejects_bad_label():
    with pytest.raises(ValueError):
        qmat.pauli_expectation(w1_dm(), "ZZQ")
    with pytest.raises(ValueError):
        qmat.pauli_expectation(w1_dm(), "ZZ")


def test_concurrence_and_eof():
    assert corr.concurrence(qmat.dm(states.psi_plus())) == pytest.approx(
        1, abs=1e-12)
    pair = qmat.partial_trace(w1_dm(), (1, 2))
    assert corr.concurrence(pair) == pytest.approx(2 / 3, abs=1e-12)
    assert corr.entanglement_of_formation(pair) == pytest.approx(
        E_PURE, abs=1e-12)
    product = qmat.tensor(np.diag([1.0, 0.0]), np.eye(2) / 2)
    assert corr.concurrence(product) == pytest.approx(0, abs=1e-12)
    assert corr.eof_from_concurrence(0.0) == 0.0
    assert corr.eof_from_concurrence(1.0) == pytest.approx(1, abs=1e-12)


def test_classical_correlations_product_state():
    rng = np.random.default_rng(12)
    rho = qmat.tensor(qmat.random_density_matrix(1, rng),
                      qmat.random_density_matrix(1, rng))
    j, _ = corr.classical_correlations(rho)
    assert abs(j) < 1e-9


def test_classical_correlations_bell_pair():
    j, _ = corr.classical_correlations(qmat.dm(states.psi_plus()))
    assert j == pytest.approx(1, abs=1e-6)


def test_classical_correlations_w_reduction():
    rho_ab = qmat.partial_trace(w1_dm(), (0, 1))
    j, (theta, _) = corr.classical_correlations(rho_ab, measured=0)
    assert j == pytest.approx(J_PURE, abs=1e-6)
    assert theta == pytest.approx(np.pi / 4, abs=1e-3)
    # measuring the other qubit is equivalent by symmetry of the pair
    j_other, _ = corr.classical_correlations(rho_ab, measured=1)
    assert j_other == pytest.approx(j, abs=1e-9)


def test_classical_correlations_local_unitary_invariance():
    rng = np.random.default_rng(13)
    rho = qmat.partial_trace(w1_dm(), (0, 1))
    u = qmat.tensor(qmat.random_unitary(2, rng), qmat.random_unitary(2, rng))
    rotated = u @ rho @ u.conj().T
    j0, _ = corr.classical_correlations(rho)
    j1, _ = corr.classical_correlations(rotated)
    assert j1 == pytest.approx(j0, abs=1e-5)


def test_assignment_parsing():
    assert corr.parse_assignment("b|a,c") == (0, 1, 2)
    assert corr.parse_assignment("a|b,d") == (1, 0, 3)
    assert corr.format_assignment(0, 1, 2) == "b|a,c"
    with pytest.raises(ValueError):
        corr.parse_assignment("b|b,c")
    with pytest.raises(ValueError):
        corr.parse_assignment("b|a")


def test_kw_exact_on_pure_state_balances():
    report = corr.kw_exact(w1_dm(), "b|a,c")
    assert report.method == "exact"
    assert report.S == pytest.approx(S_PURE, abs=1e-9)
    assert report.E == pytest.approx(E_PURE, abs=1e-9)
    assert report.J == pytest.approx(J_PURE, abs=1e-6)
    assert report.KW == pytest.approx(0, abs=1e-6)
    assert report.theta_opt == pytest.approx(np.pi / 4, abs=1e-3)


def test_kw_exact_accepts_tuple_assignment():
    r1 = corr.kw_exact(w1_dm(), (0, 1, 2))
    r2 = corr.kw_exact(w1_dm(), "b|a,c")
    assert r1.KW == pytest.approx(r2.KW, abs=1e-12)
    assert r1.assignment == r2.assignment == "b|a,c"
    numpy_indices = corr.kw_exact(w1_dm(), (np.int64(1), np.int64(0), np.int64(2)))
    assert numpy_indices == corr.kw_exact(w1_dm(), "a|b,c")
    assert corr.kw_exact(w1_dm(), np.array([0, 1, 2])) == r1


@pytest.mark.parametrize("assignment", [
    (0, 1, 2.0), (0, 2, True), 5, np.float64(1.0), (0, 1), (0, 1, 3), "a|b,d",
    np.array([[0, 1, 2]]), ("a", "b", "c")])
def test_kw_exact_names_an_assignment_that_is_not_three_qubit_indices(assignment):
    # a float or bool equal to an index, or an int, used to pass the check and
    # fail deep inside with a Python or numpy message
    with pytest.raises(ValueError, match="^assignment .* must name qubits 0, 1, 2 once each"):
        corr.kw_exact(w1_dm(), assignment)
    with pytest.raises(ValueError, match="^assignment "):
        corr.kw_exact_many([w1_dm()], assignment)


@pytest.mark.parametrize("measured", [True, False, 1.0, 0.0, 2, -1, "0"])
def test_classical_correlations_needs_an_integer_measured_qubit(measured):
    pair = qmat.partial_trace(w1_dm(), (0, 1))
    with pytest.raises(ValueError, match="^measured qubit must be 0 or 1$"):
        corr.classical_correlations(pair, measured=measured)
    j, _ = corr.classical_correlations(pair, measured=np.int64(1))
    assert j == corr.classical_correlations(pair, measured=1)[0]


# J of 36 seeded two-qubit states (ranks 1-4 in turn, generator seed
# 20241018), recorded from the scipy Nelder-Mead optimizer that the
# closed-form search replaced
NELDER_MEAD_J = (
    0.24236436309238918, 0.25782209340087586, 0.2553599894528811,
    0.15750435437894628, 0.16073500141671512, 0.4305856518177672,
    0.42411809328770345, 0.21304359119703753, 0.1873912027973364,
    0.41912598839529314, 0.08734317847685469, 0.22108021451351423,
    0.19690757534017897, 0.29583841132262273, 0.45811342724698106,
    0.1850239333717747, 0.4250425174212251, 0.642913340500792,
    0.5326625386010868, 0.16140652881630324, 0.28384761355178034,
    0.43672326891237667, 0.2665782612502159, 0.39355533535750287,
    0.8283031625099616, 0.6641033580049568, 0.24041976710023738,
    0.3654020262852993, 0.939902140009902, 0.41151993237073425,
    0.42707950125937333, 0.3556558140267846, 0.7191922338941001,
    0.16390685778155029, 0.6477639879635693, 0.3336045364300205,
)


def test_classical_correlations_nelder_mead_panel():
    rng = np.random.default_rng(20241018)
    for i, j_old in enumerate(NELDER_MEAD_J):
        rho = qmat.random_density_matrix(2, rng, rank=(1, 2, 3, 4)[i % 4])
        j_new, _ = corr.classical_correlations(rho)
        assert j_new >= j_old - 1e-9
        assert abs(j_new - j_old) <= 1e-6


# (S, J, E, KW, theta_opt, phi_opt) of kw_all_permutations from the best
# cell of the 16 x 16 sweep, polished by trust-region Newton steps on the
# sphere, with the Pauli coordinates of qmat._pauli_coords, E from singular
# values and the direction reported with theta <= pi/4 (re-recorded when the
# Newton round became one pass over the outcome kernel's derivatives: S and E
# did not move, J and KW moved by at most 5.6e-16, theta by 2.7e-15 and phi by
# 7.6e-15, apart from the noisy state's phi, 3.9e-12: its minimum is a circle,
# so the curvature floor turns the first step's rounding into its phi): the
# projected noisy_dicke(0.765), whose six splits agree (its minimum is the
# circle theta = pi/4, so phi is free: the polish ends within 3e-11 of
# phi = 5 pi/4), then
# random three-qubit states of rank 1, 2 and 8 (generator seed 20261018,
# drawn in that order)
NOISY_SPLIT = (0.9525723357984601, 0.20182474310372656, 0.10886971542924147,
               0.6418778772654921, 0.7853981618699373, 3.9269908169681544)
J_KERNEL_PIN = {
    "noisy": (NOISY_SPLIT,) * 6,
    1: (
        (0.6673952495309627, 0.20451369751131931, 0.4628815520196429,
         5.551115123125783e-16, 0.4968373771328946, 0.2556242559835542),
        (0.665124348712502, 0.20224279669285827, 0.4628815520196429,
         8.881784197001252e-16, 0.496837377132893, 0.25562425598355615),
        (0.48764337284737946, 0.24088965545001612, 0.24675371739736254,
         8.049116928532385e-16, 0.29336746359711613, 1.930482192250363),
        (0.665124348712502, 0.4183706313151388, 0.24675371739736254,
         6.938893903907228e-16, 0.29336746359711435, 1.9304821922503546),
        (0.48764337284737946, 0.2376327845697317, 0.250010588277647,
         7.771561172376096e-16, 0.7337180100875272, 0.01767504533780763),
        (0.667395249530963, 0.41738466125331497, 0.250010588277647,
         9.992007221626409e-16, 0.733718010087527, 0.017675045337806793),
    ),
    2: (
        (0.89214393198861, 0.24605539943835597, 0.0,
         0.646088532550254, 0.17343850582299583, 2.1225388762829893),
        (0.7684377455418973, 0.3728312994080123, 0.0,
         0.39560644613388496, 0.5779285454862189, 4.606176730718818),
        (0.9808775613397405, 0.24865940561096977, 0.2819660255063193,
         0.4502521302224514, 0.3687569412160741, 5.343446053058578),
        (0.7684377455418973, 0.08794449190978748, 0.2819660255063193,
         0.3985272281257905, 0.5328966845420153, 3.2229291697961107),
        (0.9808775613397405, 0.3357295188491527, 0.04569330923730532,
         0.5994547332532825, 0.20071009846355792, 4.7970158408354),
        (0.8921439319886099, 0.0915942078738855, 0.04569330923730532,
         0.7548564148774191, 0.5234327746965546, 3.8473988998263917),
    ),
    8: (
        (0.9842270687924105, 0.12525816048473992, 0.0,
         0.8589689083076706, 0.3320585229817814, 2.4627212498736526),
        (0.9929618152234547, 0.055297633444623684, 0.0,
         0.937664181778831, 0.5819923976396469, 1.6056353062014486),
        (0.9978165919527129, 0.12507651786791252, 0.0,
         0.8727400740848004, 0.7521432064869917, 1.0016741165340701),
        (0.9929618152234547, 0.09527060933510878, 0.0,
         0.8976912058883459, 0.6516285354129422, 6.040495029895729),
        (0.9978165919527129, 0.05512982742876282, 0.0,
         0.9426867645239501, 0.7534683001996443, 2.461647658663013),
        (0.9842270687924104, 0.09558205753047022, 0.0,
         0.8886450112619402, 0.5500679498191046, 5.946048911394878),
    ),
}


# the same rows from the 64 x 64 sweep and the 5 x 5 zoom that halved its
# width each round, with E from the square roots of the eigenvalues of
# rho (Y x Y) rho* (Y x Y); kept as the tolerance oracle of the retuned search.
# That zoom stopped at a width of 1e-6, so the angles are those of a 5 x 5
# zoom of the outcome-ket formula of ``outcome_entropies`` in 40-digit
# arithmetic (mpmath) around each row, down to a width of 1e-15 (restarts
# 3e-5 away agree to 1e-15), given with theta <= pi/4 as the search reports
# them.  The noisy state's phi is the 64-grid's own: its minimum is a circle.
NOISY_SPLIT_64 = (0.9525723357984601, 0.20182474310372034, 0.10886971542924256,
               0.6418778772654972, 0.7853981633974481, 0.930994737852879)
J_KERNEL_64_GRID = {
    "noisy": (NOISY_SPLIT_64,) * 6,
    1: (
        (0.6673952495309629, 0.2045136975113187, 0.4628815391256169,
         1.2894027234811034e-08, 0.49683737712782017, 0.2556242559901958),
        (0.665124348712502, 0.2022427966928576, 0.46288154462794084,
         7.391703582548814e-09, 0.49683737712782017, 0.25562425599019506),
        (0.48764337284737946, 0.24088965545001192, 0.24675371343530592,
         3.9620616232305395e-09, 0.29336746374893435, 1.9304821927515547),
        (0.665124348712502, 0.4183706313151345, 0.2467537080031898,
         9.39417771350648e-09, 0.2933674637489336, 1.9304821927515516),
        (0.48764337284737946, 0.2376327845697308, 0.2500105839656847,
         4.311963952563502e-09, 0.7337180100687143, 0.017675045317022745),
        (0.667395249530963, 0.4173846612533143, 0.25001058725677294,
         1.0208757172947003e-09, 0.7337180100687143, 0.017675045317022745),
    ),
    2: (
        (0.89214393198861, 0.24605539943834753, 0.0,
         0.6460885325502624, 0.17343850582299328, 2.12253887628299),
        (0.7684377455418974, 0.3728312994079784, 0.0,
         0.395606446133919, 0.5779285454862311, 4.606176730718909),
        (0.9808775613397407, 0.24865940561093425, 0.28196602550631705,
         0.4502521302224894, 0.3687569412163998, 5.343446053056086),
        (0.7684377455418974, 0.08794449190978137, 0.2819660255063156,
         0.3985272281258004, 0.5328966499116083, 3.2229292849314883),
        (0.9808775613397407, 0.33572951884914515, 0.04569330923730498,
         0.5994547332532906, 0.20071009846294538, 4.797015840846512),
        (0.89214393198861, 0.09159420787387484, 0.04569330923730498,
         0.7548564148774302, 0.5234327747061533, 3.8473988998710222),
    ),
    8: (
        (0.9842270687924105, 0.1252581604847377, 0.0,
         0.8589689083076728, 0.3320585230091529, 2.4627212501371956),
        (0.9929618152234547, 0.05529763344462002, 0.0,
         0.9376641817788347, 0.5819923972075698, 1.605635308135121),
        (0.9978165919527129, 0.12507651786789764, 0.0,
         0.8727400740848152, 0.7521432064869836, 1.00167411653409),
        (0.9929618152234547, 0.09527060933510367, 0.0,
         0.897691205888351, 0.6516285354129385, 6.040495029895716),
        (0.9978165919527129, 0.05512982742876227, 0.0,
         0.9426867645239506, 0.7534683009559408, 2.461647670958598),
        (0.9842270687924105, 0.09558205753046634, 0.0,
         0.8886450112619442, 0.550067950496725, 5.946048911792479),
    ),
}


def projected_noisy_dicke():
    return states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])[0]


def j_kernel_states():
    """The pinned three-qubit states, keyed as in ``J_KERNEL_PIN``."""
    rng = np.random.default_rng(20261018)
    for key in J_KERNEL_PIN:
        yield key, (projected_noisy_dicke() if key == "noisy"
                    else qmat.random_density_matrix(3, rng, rank=key))


def j_kernel_rows(rho):
    reports, _ = corr.kw_all_permutations(rho)
    return [(r.S, r.J, r.E, r.KW, r.theta_opt, r.phi_opt) for r in reports]


def pauli_coords(pairs):
    """The J search's (M, 4, 4) Pauli coordinates of a list of two-qubit states."""
    return qmat._pauli_coords(np.stack(pairs)).reshape(-1, 4, 4)


def test_j_kernel_is_bit_stable():
    for key, rho in j_kernel_states():
        assert j_kernel_rows(rho) == list(J_KERNEL_PIN[key]), key
    pair = qmat.partial_trace(projected_noisy_dicke(), [0, 1])
    j, (theta, phi) = corr.classical_correlations(pair, measured=1)
    assert (j, theta, phi) == NOISY_SPLIT[1:2] + NOISY_SPLIT[4:]


def test_every_entry_reads_j_and_e_as_kw_exact_does():
    # S(beta) of a J is computed in classical_correlations and again in the
    # reports' one entropy pass, E in entanglement_of_formation and in that pass
    for key, rho in j_kernel_states():
        reports, _ = corr.kw_all_permutations(rho)
        for (alpha, beta, gamma), r in zip(itertools.permutations(range(3)), reports):
            j, angles = corr.classical_correlations(qmat.partial_trace(rho, [alpha, beta]))
            assert (j, angles) == (r.J, (r.theta_opt, r.phi_opt)), (key, r.assignment)
            pair = qmat.partial_trace(rho, sorted([beta, gamma]))
            assert corr.entanglement_of_formation(pair) == r.E, (key, r.assignment)


def test_the_j_search_makes_its_pinned_number_of_newton_evaluations(monkeypatch):
    # one call of _newton_terms per start and per Newton round, over all six
    # splits at once; a kernel change that adds rounds shows here
    calls = []
    terms = corr._newton_terms
    monkeypatch.setattr(corr, "_newton_terms", lambda *args: calls.append(args) or terms(*args))
    counts = {}
    for key, rho in j_kernel_states():
        calls.clear()
        corr.kw_all_permutations(rho)
        counts[key] = len(calls)
    assert counts == {"noisy": 3, 1: 4, 2: 4, 8: 4}


def test_a_direction_and_its_reverse_read_alike():
    # n and -n are the same measurement, so they report the same angles
    rng = np.random.default_rng(6)
    vectors = np.concatenate([rng.normal(size=(200, 3)), np.eye(3), -np.eye(3),
                              [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, -1.0, 2.0]]])
    n = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    theta, phi = corr._direction_of(n)
    assert np.array_equal(np.stack([theta, phi]), np.stack(corr._direction_of(-n)))
    assert ((0 <= theta) & (theta <= np.pi / 4) & (0 <= phi) & (phi < 2 * np.pi)).all()
    bloch = np.stack([np.sin(2 * theta) * np.cos(phi), np.sin(2 * theta) * np.sin(phi),
                      np.cos(2 * theta)], axis=1)
    assert (np.minimum(np.abs(bloch - n).max(1), np.abs(bloch + n).max(1)) <= 1e-12).all()
    for k in range(len(n)):
        (one_theta,), (one_phi,) = corr._direction_of(n[k:k + 1])
        assert (one_theta, one_phi) == (theta[k], phi[k]), k


def test_j_kernel_agrees_with_the_64_grid_search():
    # S and J moved by at most 3e-14 in the retune; E and KW by up to 1.3e-8,
    # the error of the eigenvalue concurrence on rank-deficient pairs.  The
    # noisy state's minimum is a circle at theta = pi/4, so its phi is free.
    for key, rho in j_kernel_states():
        for row, old in zip(j_kernel_rows(rho), J_KERNEL_64_GRID[key]):
            diff = np.abs(np.subtract(row[:4], old[:4]))
            assert (diff[:2] <= 1e-12).all() and (diff[2:] <= 1e-7).all(), key
            assert abs(row[4] - old[4]) <= 1e-6, key
            dphi = (row[5] - old[5] + np.pi) % (2 * np.pi) - np.pi
            assert key == "noisy" or abs(dphi) <= 1e-6, key


def xlog2x(x):
    return x * np.log2(np.where(x > 0, x, 1.0))


def outcome_products(theta, phi):
    """conj(v_i) v_j of the two outcome kets |theta_1>, |theta_2> at arrays
    of (theta, phi), shape (2, 4, K)."""
    phase = np.exp(1j * phi)
    kets = np.array([[np.cos(theta), phase * np.sin(theta)],
                     [np.sin(theta) / phase, -np.cos(theta)]])
    return (kets.conj()[:, :, None] * kets[:, None, :]).reshape(2, 4, -1)


@functools.cache
def dense_outcome_products():
    """``outcome_products`` on a 256 x 512 (theta, phi) grid of the
    theta <= pi/4 half."""
    return outcome_products(np.repeat(np.linspace(0.0, np.pi / 4, 256), 512),
                            np.tile(np.linspace(0.0, 2 * np.pi, 512, endpoint=False), 256))


def outcome_entropies(rho, products):
    """The entropy of qubit b left by measuring qubit a along each direction
    of ``products``, from each outcome's unnormalized 2 x 2 state of b and
    its eigenvalues."""
    # blocks[(k, l), (i, j)] = <i k| rho |j l>, qubit a first: rows b00, b11, b01
    blocks = rho.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)[[0, 3, 1]]
    total = 0.0
    for outcome in products:
        m00, m11, m01 = blocks @ outcome
        p = (m00 + m11).real
        gap = np.sqrt(np.maximum(((m00 - m11).real / 2) ** 2 + np.abs(m01) ** 2, 0.0))
        lam = np.maximum(p / 2 + gap, 0.0), np.maximum(p / 2 - gap, 0.0)
        total = total + xlog2x(p) - xlog2x(lam[0]) - xlog2x(lam[1])
    return total


def dense_min_conditional_entropy(rho):
    """Minimum of ``outcome_entropies`` over the dense grid."""
    return outcome_entropies(rho, dense_outcome_products()).min()


def test_the_64_grid_angles_are_minima_of_the_outcome_kets():
    # central differences of the independent formula vanish at the recorded
    # angles to the level of their own error; at the 5 x 5 zoom's angles
    # they were up to 1.6e-7, here they are at most 3.1e-11
    h = 1e-5
    for key, rho in j_kernel_states():
        for (alpha, beta, _), row in zip(itertools.permutations(range(3)),
                                         J_KERNEL_64_GRID[key]):
            theta = row[4] + h * np.array([1, -1, 0, 0])
            phi = row[5] + h * np.array([0, 0, 1, -1])
            f = outcome_entropies(qmat.partial_trace(rho, [alpha, beta]),
                                  outcome_products(theta, phi))
            assert np.abs(f[::2] - f[1::2]).max() / (2 * h) <= 1e-9, (key, alpha, beta)


def test_j_search_reaches_the_minimum_of_a_dense_sweep():
    rng = np.random.default_rng(20261019)
    pairs = [qmat.random_density_matrix(2, rng, rank=1 + i % 4) for i in range(40)]
    for _, rho in j_kernel_states():
        pairs += [qmat.partial_trace(rho, [alpha, beta])
                  for alpha, beta, _ in itertools.permutations(range(3))]
    cond, _ = corr._min_measured_entropy(pauli_coords(pairs))
    for k, (rho, h) in enumerate(zip(pairs, cond)):
        assert h <= dense_min_conditional_entropy(rho) + 1e-12, k


def x_state(rng):
    """A random two-qubit X state: populations on the diagonal, coherences
    on the anti-diagonal, so its local Bloch vectors lie along z."""
    p = rng.dirichlet(np.ones(4))
    rho = np.diag(p).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        rho[i, j] = np.sqrt(p[i] * p[j]) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        rho[j, i] = rho[i, j].conjugate()
    return rho


def test_one_start_reaches_the_best_of_every_sweep_start():
    # the search polishes only the sweep's best cell; polishing from every
    # one of the 113 cells finds nothing lower (by at most 6e-15 here)
    rng = np.random.default_rng(20261023)
    pairs = [qmat.random_density_matrix(2, rng, rank=1 + k % 4) for k in range(200)]
    pairs += [x_state(rng) for _ in range(200)]
    for _ in range(200):
        w = rng.uniform()
        kets = [qmat.dm(qmat.random_state_vector(2, rng)) for _ in range(2)]
        pairs.append(w * kets[0] + (1 - w) * kets[1])
    coords = pauli_coords(pairs)
    cond, _ = corr._min_measured_entropy(coords)
    frames = corr._SWEEP_FRAME
    with np.errstate(all="ignore"):
        f, _ = corr._polish(np.repeat(coords, len(frames), axis=0),
                            np.tile(frames, (len(pairs), 1, 1)))
    best = f.reshape(len(pairs), len(frames)).min(1)
    assert (cond <= best + 1e-12).all(), np.argmax(cond - best)


def test_a_split_reads_alike_alone_and_in_its_stack():
    # a stopped start stays where it is while the others run, so a split's J
    # and direction do not depend on which states share its stack
    rng = np.random.default_rng(20261020)
    for k in range(40):
        rho = qmat.random_density_matrix(3, rng, rank=1 + k % 8)
        reports, _ = corr.kw_all_permutations(rho)
        for split, row in zip(itertools.permutations(range(3)), reports):
            alone = corr.kw_exact(rho, split)
            assert dataclasses.astuple(alone) == dataclasses.astuple(row), (k, split)
            j, (theta, phi) = corr.classical_correlations(qmat.partial_trace(rho, split[:2]))
            assert (j, theta, phi) == (row.J, row.theta_opt, row.phi_opt), (k, split)


PAULI4 = np.stack([qmat.PAULI[l] for l in "IXYZ"])


def pauli_coordinates(rho):
    """(4, 4) real Tr[rho (P_i x P_j)] over P = I, X, Y, Z: the former
    coordinates of the J search, kept as an oracle apart from qmat's."""
    return np.einsum("ijkl,ski,tlj->st", rho.reshape(2, 2, 2, 2), PAULI4, PAULI4).real


def binary_entropy(x):
    p, q = (1 + x) / 2, (1 - x) / 2
    return -p * np.log2(np.maximum(p, 1e-300)) - q * np.log2(np.maximum(q, 1e-300))


def bloch_measured_entropy(r, n):
    """The former sweep, kept as the oracle of the outcome-column product:
    outcome s has probability q = (1 + s a.n) / 2 and leaves beta with Bloch
    vector (b + s T^T n) / (2q); the entropy of each, weighted by q.  r is
    one state's Pauli coordinates, n (K, 3)."""
    a, b, t = r[1:, 0], r[0, 1:], r[1:, 1:]
    total = 0.0
    for s in (1.0, -1.0):
        q = np.maximum((1 + s * (n @ a)) / 2, 1e-300)
        v = b + s * (n @ t)
        total = total + q * binary_entropy(np.minimum(np.linalg.norm(v, axis=1) / (2 * q), 1.0))
    return total


def test_sweep_matches_the_bloch_vector_entropy():
    rng = np.random.default_rng(20261022)
    pairs = ([qmat.random_density_matrix(2, rng, rank=1 + k % 4) for k in range(40)]
             + cusp_pairs(10, rng) + [qmat.dm(states.psi_plus())])
    grid_n, columns = corr._SWEEP_N, corr._SWEEP_COLUMNS
    # 113 distinct directions: the pole once, then 7 rows of 16
    assert grid_n.shape == (113, 3) and columns.shape == (4, 226)
    assert len(np.unique(grid_n.round(12), axis=0)) == len(grid_n)
    coords = np.stack([pauli_coordinates(rho) for rho in pairs])
    with np.errstate(all="ignore"):
        values = corr._measured_entropy(coords, columns)
    kernel = pauli_coords(pairs)
    s_beta = corr._binary_entropy(kernel[:, 0, 0], np.linalg.norm(kernel[:, 0, 1:], axis=1))
    # rounding level: up to 8.4e-15 where a pure pair leaves entropies near 0.
    # S(beta) is the closed form h((1 + |b|) / 2)
    for k, r in enumerate(coords):
        assert np.abs(values[k] - bloch_measured_entropy(r, grid_n)).max() <= 1e-14, k
        assert abs(s_beta[k] - binary_entropy(np.linalg.norm(r[0, 1:]))) <= 1e-14, k


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_newton_terms_match_finite_differences(seed):
    # mixed with white noise, every outcome leaves beta mixed, so f is smooth.
    # The retraction (n + x u + y w) / |...| is second order, so the Hessian
    # of f along it at 0 is the Riemannian Hessian: central differences.
    rng = np.random.default_rng(seed)
    rho = (0.9 * qmat.random_density_matrix(2, rng, rank=int(rng.integers(1, 5)))
           + 0.1 * np.eye(4) / 4)
    r = pauli_coordinates(rho)
    n = rng.normal(size=3)
    frame = corr._frame(n[None] / np.linalg.norm(n))
    (f,), (grad,), (hess,) = corr._newton_terms(r[None], frame)
    terms = np.concatenate([[f], grad, hess.ravel()])
    basis = frame[0, 2:, 1:]  # rows m, u, w
    assert np.allclose(basis @ basis.T, np.eye(3), rtol=0, atol=1e-15)
    h = 1e-4
    offsets = np.array([(x, y) for x in (-h, 0, h) for y in (-h, 0, h)])
    points = basis[0] + offsets @ basis[1:]
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    columns = np.vstack([np.ones(2 * len(points)), np.concatenate([points, -points]).T])
    v = corr._measured_entropy(r[None], columns)[0].reshape(3, 3)
    assert abs(terms[0] - v[1, 1]) <= 1e-14
    fd_grad = np.array([v[2, 1] - v[0, 1], v[1, 2] - v[1, 0]]) / (2 * h)
    uu = (v[2, 1] - 2 * v[1, 1] + v[0, 1]) / h**2
    ww = (v[1, 2] - 2 * v[1, 1] + v[1, 0]) / h**2
    uw = (v[2, 2] - v[2, 0] - v[0, 2] + v[0, 0]) / (4 * h**2)
    fd_hess = np.array([uu, uw, uw, ww])
    assert np.abs(terms[1:3] - fd_grad).max() <= 1e-7
    assert np.abs(terms[3:] - fd_hess).max() <= 1e-5 * (1 + np.abs(fd_hess).max())


EYE3, EZ = np.eye(3), np.array([0.0, 0.0, 1.0])
CURVE = 1 / (8 * np.log(2))


def former_newton_terms(coords, n):
    """The former Newton terms, kept as the oracle of the fused pass: terms
    (M, 7) of f, the gradient (g_u, g_w) and the Riemannian Hessian (h_uu,
    h_uw, h_wu, h_ww) at unit vectors n (M, 3) in the tangent basis of the
    Householder reflection, and that basis (M, 3, 3) as rows (n, u, w), from
    the gradient and Hessian of each outcome's share in (alpha, beta)."""
    m = len(n)
    v = n + np.copysign(EZ, n[:, 2:])
    basis = np.empty((m, 3, 3))
    basis[:, 0] = n
    basis[:, 1:] = EYE3[:2] - v[:, :2, None] * v[:, None] / (1 + abs(n[:, 2:, None]))
    x = basis @ coords[:, 1:]  # rows (a.d, T^T d) for d = n, u, w
    ab = np.empty((m, 2, 4))  # (alpha, beta) of outcome s = +1, -1
    np.add(coords[:, 0], x[:, 0], out=ab[:, 0])
    np.subtract(coords[:, 0], x[:, 0], out=ab[:, 1])
    beta = ab[..., 1:]
    r = np.sqrt(np.add.reduce(beta * beta, -1))
    lam, log, f = corr._outcome_entropy(ab[..., 0], r)
    unit = beta / r[..., None]
    grad_ab = np.empty((m, 2, 4))
    grad_ab[..., 0] = (2 * log[0] - log[1] - log[2]) / 4
    f_r = (log[2] - log[1]) / 4
    np.multiply(f_r[..., None], unit, out=grad_ab[..., 1:])
    grad = (x @ (grad_ab[:, 0] - grad_ab[:, 1])[..., None])[..., 0]
    inv = CURVE / lam
    f_r_by_r = f_r / r
    hess_ab = np.empty((m, 4, 4))
    hess_ab[:, 0, 0] = np.add.reduce(4 * inv[0] - inv[1] - inv[2], 1)
    hess_ab[:, 0, 1:] = hess_ab[:, 1:, 0] = ((inv[2] - inv[1])[:, None] @ unit)[:, 0]
    hess_ab[:, 1:, 1:] = unit.swapaxes(1, 2) @ (-(inv[1] + inv[2] + f_r_by_r)[..., None] * unit)
    hess_ab.reshape(m, 16)[:, 5::5] += np.add.reduce(f_r_by_r, 1)[:, None]  # beta-beta diagonal
    tangent = x[:, 1:]
    terms = np.empty((m, 7))
    terms[:, 0] = np.add.reduce(f, 1)
    terms[:, 1:3] = grad[:, 1:]
    terms[:, 3:] = (tangent @ hess_ab @ tangent.swapaxes(1, 2)).reshape(m, 4)
    terms[:, 3::3] -= grad[:, :1]
    return terms, basis


def former_newton_step(terms, radius):
    """The former Newton step of ``former_newton_terms``, kept as the oracle:
    the step, its length and the decrease its quadratic model predicts."""
    grad, hess = terms[:, 1:3], terms[:, 3:].reshape(-1, 2, 2)
    uu, uw, ww = terms[:, 3], terms[:, 4], terms[:, 6]
    mid, gap = (uu + ww) / 2, np.hypot((uu - ww) / 2, uw)
    shifted = mid + np.maximum(corr._CURVATURE_FLOOR - mid + gap, 0.0)
    step = (hess @ grad[..., None])[..., 0] - (shifted + mid)[:, None] * grad
    step /= ((shifted - gap) * (shifted + gap))[:, None]
    length = np.hypot(step[:, 0], step[:, 1])
    step *= np.minimum(1.0, radius / length)[:, None]
    pred = -np.add.reduce(step * (grad + (hess @ step[..., None])[..., 0] / 2), 1)
    return step, np.minimum(length, radius), pred


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rank", "x-state", "white noise"]))
def test_newton_pass_matches_the_former_terms(seed, kind):
    # the same f, gradient, Hessian, step, length and predicted decrease in the
    # same tangent basis, the step and its length up to the condition number
    # of the shifted solve, which amplifies rounding in H by |H| over its
    # lowest curvature (at least the floor).  Where an outcome leaves beta
    # pure (every direction of a pure pair), f has a cusp: its smaller
    # eigenvalue lambda- is 0 up to a rounding error of either sign, so the
    # derivatives are finite or not by rounding, in both passes, and only f
    # is compared there
    rng = np.random.default_rng(seed)
    if kind == "x-state":
        rho = x_state(rng)
    else:
        rho = qmat.random_density_matrix(2, rng, rank=int(rng.integers(1, 5)))
        if kind == "white noise":
            rho = rng.uniform(0.5, 1) * rho + (1 - rng.uniform(0.5, 1)) * np.eye(4) / 4
            rho /= np.trace(rho).real
    coords = pauli_coordinates(rho)[None]
    n = rng.normal(size=3)
    frame = corr._frame(n[None] / np.linalg.norm(n))
    radius = np.array([rng.uniform(1e-4, 2 * np.pi / 16)])
    with np.errstate(all="ignore"):
        f, grad, hess = corr._newton_terms(coords, frame)
        new = np.concatenate([f, grad[0], hess.ravel(), *corr._newton_step(grad, hess, radius)],
                             axis=None)
        terms, basis = former_newton_terms(coords, frame[:, 2, 1:])
        old = np.concatenate([terms[0], *former_newton_step(terms, radius)], axis=None)
    assert np.abs(basis[0] - frame[0, 2:, 1:]).max() <= 1e-15
    ab = coords[0, 0] + np.outer([1, -1], frame[0, 2, 1:] @ coords[0, 1:])
    if (ab[:, 0] - np.linalg.norm(ab[:, 1:], axis=1)).min() <= 1e-9:
        new, old = new[:1], old[:1]
    finite = np.isfinite(old)
    assert (np.isfinite(new) == finite).all(), (new, old)
    tol = np.full(len(old), 1e-12)
    if finite.all() and len(old) > 1:
        low, high = np.linalg.eigvalsh(terms[0, 3:].reshape(2, 2))
        tol[7:10] *= max(1.0, abs(low), abs(high)) / max(low, corr._CURVATURE_FLOOR)
    assert (np.abs(new - old) <= tol * (1 + np.abs(old)))[finite].all(), (new, old)


def cusp_pairs(count, rng):
    """p |0><0| x |psi0><psi0| + (1 - p) |1><1| x |psi1><psi1|, alpha rotated
    by a random unitary: measuring alpha in the rotated basis leaves beta
    pure, so the minimum conditional entropy is 0, at a point where f is not
    smooth."""
    pairs = []
    for _ in range(count):
        p = rng.uniform(0.05, 0.95)
        psi0, psi1 = (qmat.dm(qmat.random_state_vector(1, rng)) for _ in range(2))
        rho = (p * qmat.tensor(np.diag([1.0, 0.0]), psi0)
               + (1 - p) * qmat.tensor(np.diag([0.0, 1.0]), psi1))
        u = qmat.tensor(qmat.random_unitary(2, rng), np.eye(2))
        pairs.append(u @ rho @ u.conj().T)
    return pairs


def test_j_search_reaches_the_cusp_minimum():
    cond, _ = corr._min_measured_entropy(pauli_coords(cusp_pairs(300, np.random.default_rng(7))))
    assert cond.max() <= 1e-11


def test_j_search_raises_no_numpy_warnings():
    # pure conditional states make the Newton terms infinite; the kernel
    # stops there without a RuntimeWarning
    rng = np.random.default_rng(20261021)
    zz = (np.eye(4) + qmat.tensor(qmat.PAULI["Z"], qmat.PAULI["Z"])) / 4
    pairs = ([qmat.dm(states.psi_plus()), zz] + cusp_pairs(20, rng)
             + [qmat.random_density_matrix(2, rng, rank=1) for _ in range(20)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in pairs:
            for measured in (0, 1):
                corr.classical_correlations(rho, measured)
        corr.kw_all_permutations(qmat.dm(qmat.random_state_vector(3, rng)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_concurrence_of_a_pair_ignores_its_order(seed):
    # the singular-value form keeps the zero eigenvalues of rank-deficient
    # reductions, so pure states balance to rounding error
    rng = np.random.default_rng(seed)
    pure = qmat.dm(qmat.random_state_vector(3, rng))
    mixed = qmat.random_density_matrix(3, rng, rank=int(rng.integers(1, 9)))
    for rho in (pure, mixed):
        for beta, gamma in itertools.combinations(range(3), 2):
            c = [corr.concurrence(qmat.partial_trace(rho, keep))
                 for keep in ([beta, gamma], [gamma, beta])]
            assert abs(c[0] - c[1]) <= 1e-12
    for r in corr.kw_all_permutations(pure)[0]:
        assert abs(r.KW) <= 1e-10


seeds = st.integers(0, 2**32 - 1)


def closed_form_eof(c):
    """Wootters' E = h((1 + sqrt(1 - C^2)) / 2) with the smaller probability
    written y = C^2 / (2 (1 + sqrt(1 - C^2))), free of the cancellation in
    1 - sqrt(1 - C^2), and x = 1 - y; an oracle apart from the J kernel's
    binary entropy."""
    # c * c, not c ** 2: numpy squares exactly rounded, Python's pow may not
    y = c * c / (2 * (1 + np.sqrt(1 - c * c)))
    x = 1 - y
    return float(-x * np.log2(x) - y * np.log2(y)) if y > 0 else 0.0


def pair_concurrence_and_eof(rho):
    """The former per-pair concurrence (one eigh, then one svd of
    Psi^T (Y x Y) Psi), kept as the oracle of the batched one, and the
    closed-form entanglement of formation."""
    w, v = np.linalg.eigh(rho)
    psi = v * np.sqrt(np.maximum(w, 0.0))
    lam = np.linalg.svd(psi.T @ qmat.tensor(qmat.Y, qmat.Y) @ psi, compute_uv=False)
    c = float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
    return c, closed_form_eof(min(c, 1.0))


# concurrences where the former E, from entropy_bits, dropped the smaller
# probability below 1e-12 (C < 2e-6) and was off by up to 3.9e-11
SMALL_AND_EDGE_CONCURRENCES = (0.0, 1e-9, 1e-7, 1.5e-6, 1.9e-6, 1.99e-6, 2.01e-6, 3e-6,
                               1e-3, 0.5, 1.0)


@pytest.mark.parametrize("c", SMALL_AND_EDGE_CONCURRENCES)
def test_eof_matches_the_closed_form(c):
    assert abs(corr.eof_from_concurrence(c) - closed_form_eof(c)) <= 2e-15


@pytest.mark.parametrize("c", SMALL_AND_EDGE_CONCURRENCES[1:])
def test_symmetric_e_is_the_eof_of_concurrence_2p(c):
    # the closed forms' E comes from the J kernel's binary entropy, as the
    # exact route's does; the former entropy_bits E was off below p = 1e-6
    report = corr.kw_symmetric(corr.SymmetricModel(c / 2, c / 4))
    assert abs(report.E - closed_form_eof(c)) <= 2e-15


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0))
def test_eof_of_any_concurrence_matches_the_closed_form(c):
    # up to 2.3e-15 near C = 2e-8, where the J kernel's smaller probability
    # (1 - sqrt(1 - C^2)) / 2 is a few ulps of 1 (measured on a dense sweep)
    assert abs(corr.eof_from_concurrence(c) - closed_form_eof(c)) <= 3e-15


BELL_KETS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)


@settings(max_examples=40, deadline=None)
@given(seeds)
# seeds on which min(c, 1.0) ** 2 in the oracle rounded apart from c * c
@example(3404)
@example(3465)
@example(5367)
@example(5514)
@example(6626)
@example(8814)
def test_batched_concurrence_matches_the_per_pair_oracle(seed):
    # LAPACK still runs per matrix, so each pair of the stack comes out bit
    # for bit as it does alone, in either qubit order; E to rounding level
    rng = np.random.default_rng(seed)
    pairs = [qmat.random_density_matrix(2, rng, rank=rank) for rank in (1, 2, 3, 4)]
    pairs += [qmat.dm(ket) for ket in BELL_KETS]
    pairs += [qmat.tensor(*(qmat.random_density_matrix(1, rng, rank=int(rng.integers(1, 3)))
                            for _ in range(2))) for _ in range(2)]
    pairs += [qmat.partial_trace(rho, [1, 0]) for rho in pairs]
    stack = np.stack(pairs)
    c = corr._concurrence(stack)
    e = corr._eof(c)
    for k, rho in enumerate(pairs):
        c_oracle, e_oracle = pair_concurrence_and_eof(rho)
        assert c[k] == c_oracle and abs(e[k] - e_oracle) <= 2e-15, k
        assert (corr.concurrence(rho), corr.entanglement_of_formation(rho)) == (c[k], e[k]), k


def random_two_qubit(seed):
    rng = np.random.default_rng(seed)
    return qmat.random_density_matrix(2, rng, rank=int(rng.integers(1, 5))), rng


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_kw_balance_on_random_three_qubit_states(seed):
    rng = np.random.default_rng(seed)
    pure = qmat.dm(qmat.random_state_vector(3, rng))
    for r in corr.kw_all_permutations(pure)[0]:
        assert abs(r.KW) <= 1e-6
    mixed = qmat.random_density_matrix(3, rng, rank=int(rng.integers(2, 9)))
    for r in corr.kw_all_permutations(mixed)[0]:
        assert r.KW >= -1e-9


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_classical_correlations_bounded_by_local_entropies(seed):
    rho, _ = random_two_qubit(seed)
    j, _ = corr.classical_correlations(rho)
    s_a = qmat.von_neumann_entropy(qmat.partial_trace(rho, [0]))
    s_b = qmat.von_neumann_entropy(qmat.partial_trace(rho, [1]))
    assert -1e-12 <= j <= min(s_a, s_b) + 1e-12


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_classical_correlations_invariant_under_local_unitaries(seed):
    rho, rng = random_two_qubit(seed)
    u = qmat.tensor(qmat.random_unitary(2, rng), qmat.random_unitary(2, rng))
    j0, _ = corr.classical_correlations(rho)
    j1, _ = corr.classical_correlations(u @ rho @ u.conj().T)
    assert j1 == pytest.approx(j0, abs=1e-9)


# correlation vectors (c_x, c_y, c_z) of the four Bell states
BELL_CORNERS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: sum(w) > 1e-3))
def test_classical_correlations_bell_diagonal_closed_form(weights):
    # Luo, PRA 77, 042303 (2008): J = 1 - h((1 + c) / 2), c = max |c_i|
    c = np.asarray(weights) @ BELL_CORNERS / sum(weights)
    rho = (np.eye(4) + sum(ci * qmat.tensor(qmat.PAULI[l], qmat.PAULI[l])
                           for ci, l in zip(c, "XYZ"))) / 4
    c_max = float(np.abs(c).max())
    luo = 1 + sum(x * np.log2(x) for x in ((1 + c_max) / 2, (1 - c_max) / 2) if x > 0)
    j, _ = corr.classical_correlations(rho)
    assert j == pytest.approx(luo, abs=1e-9)


def measured_j(rho, kets):
    """S(b) minus the entropy left on qubit b by measuring qubit a in ``kets``."""
    left = 0.0
    for ket in kets:
        post, prob = qmat.project(rho, [(0, ket)])
        left += prob * qmat.von_neumann_entropy(post)
    return qmat.von_neumann_entropy(qmat.partial_trace(rho, [1])) - left


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_classical_correlations_of_x_states_beat_the_z_and_x_candidates(
        weights, z, w):
    # Ali, Rau and Alber, PRA 81, 042105 (2010) take J of an X state from the
    # sigma_z and sigma_x measurements; Lu et al., PRA 83, 012327 (2011) show
    # the optimum can lie elsewhere, so the two are lower bounds only
    a, b, c, d = np.asarray(weights) / sum(weights)
    rho = np.diag([a, b, c, d]).astype(complex)
    rho[0, 3] = rho[3, 0] = z * np.sqrt(a * d)
    rho[1, 2] = rho[2, 1] = w * np.sqrt(b * c)
    j, _ = corr.classical_correlations(rho)
    j_z = measured_j(rho, (qmat.KET0, qmat.KET1))
    j_x = measured_j(rho, qmat.H)
    assert j >= max(j_z, j_x) - 1e-12


def test_kw_all_permutations_validates_input_once(monkeypatch):
    calls = []
    check = qmat.check_density_matrix
    monkeypatch.setattr(qmat, "check_density_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    rho = 0.6 * w1_dm() + 0.4 * np.eye(8) / 8
    corr.kw_all_permutations(rho)
    assert len(calls) == 1
    corr.kw_exact_many(np.stack([rho, w1_dm(), rho]), "c|a,b")
    assert len(calls) == 2  # one check of the whole stack


def test_kw_exact_many_names_the_state_it_rejects():
    good = 0.6 * w1_dm() + 0.4 * np.eye(8) / 8
    skew = good.copy()
    skew[0, 1] += 1e-3
    negative = good + 0.07 * np.diag([-1, 0, 0, 0, 0, 0, 0, 1])  # Hermitian, trace 1
    for k, bad, message in ((0, 2 * good, "trace"), (2, skew, "not Hermitian"),
                            (3, np.full((8, 8), np.nan), "not a finite number"),
                            (1, negative, "eigenvalue -0.02.* below -1e-08"),
                            (4, np.eye(4) / 4, "three-qubit state, got shape \\(4, 4\\)"),
                            (1, np.zeros(8), "three-qubit state, got shape \\(8,\\)")):
        rhos = [good] * 5
        rhos[k] = bad
        with pytest.raises(ValueError, match=f"^state {k}: .*{message}") as err:
            corr.kw_exact_many(rhos)
        assert "\n" not in str(err.value)
    with pytest.raises(ValueError, match="^state 1: .*not Hermitian"):
        corr.kw_exact_many([good, skew, good, 2 * good])  # the lower index of two
    with pytest.raises(ValueError, match="^state 1: .*not Hermitian"):
        corr.kw_exact_many(rho for rho in (good, skew))  # any iterable of states
    with pytest.raises(ValueError, match="^state 0: .*three-qubit state, got shape \\(8,\\)"):
        corr.kw_exact_many(good)  # one state, not a stack of them
    with pytest.raises(ValueError, match="^state 0: .*three-qubit"):
        corr.kw_exact_many(np.stack([np.eye(4) / 4] * 3))
    with pytest.raises(ValueError, match="assignment"):
        corr.kw_exact_many([good], "b|b,c")
    assert corr.kw_exact_many([]) == []


@pytest.mark.parametrize("call", [
    qmat.num_qubits, qmat.von_neumann_entropy, lambda x: qmat.partial_trace(x, [0]),
    lambda x: qmat.project(x, [(0, 0)]), lambda x: qmat.fidelity_pure(states.dicke(3, 1), x),
    lambda x: qmat.pauli_expectation(x, "ZZZ"), lambda x: tomo.born_probabilities(x, "ZZZ"),
    io.density_matrix_document, corr.kw_exact, corr.kw_all_permutations, corr.correlator_table,
    lambda x: corr.concurrence(qmat._reduce(x, ((0, 1),))[:, 0]),
    lambda x: corr.classical_correlations(qmat._reduce(x, ((0, 1),))[:, 0])],
    ids=["num_qubits", "von_neumann_entropy", "partial_trace", "project", "fidelity_pure",
         "pauli_expectation", "born_probabilities", "density_matrix_document", "kw_exact",
         "kw_all_permutations", "correlator_table", "concurrence", "classical_correlations"])
def test_an_entry_that_takes_one_state_rejects_a_stack(call):
    # check_density_matrix takes a stack; an entry for one state still rejects one
    with pytest.raises(ValueError):
        call(np.stack([w1_dm()] * 2))


def test_a_state_reads_alike_alone_and_in_a_stack():
    # each state's reports do not depend on the states batched with it
    rng = np.random.default_rng(20261023)
    rhos = [qmat.random_density_matrix(3, rng, rank=1 + k % 8) for k in range(22)]
    rhos += [w1_dm(), projected_noisy_dicke()]
    rows = [corr.kw_all_permutations(rho)[0] for rho in rhos]
    for j, split in enumerate(itertools.permutations(range(3))):
        reports = corr.kw_exact_many(np.stack(rhos), split)
        assert len(reports) == len(rhos)
        for k, report in enumerate(reports):
            row = dataclasses.astuple(report)
            assert row == dataclasses.astuple(corr.kw_exact(rhos[k], split)), (k, split)
            assert row == dataclasses.astuple(rows[k][j]), (k, split)


@settings(max_examples=60, deadline=None)
@given(seeds, st.permutations(range(3)), st.permutations(range(3)))
def test_kw_exact_is_consistent_under_a_qubit_reorder(seed, perm, split):
    # reordered by partial_trace, qubit q of rho sits at perm.index(q), so the
    # relabelled split scores the same qubits of the same state
    rng = np.random.default_rng(seed)
    rho = qmat.random_density_matrix(3, rng, rank=int(rng.integers(1, 9)))
    moved = corr.kw_exact(qmat.partial_trace(rho, perm), tuple(perm.index(q) for q in split))
    r = corr.kw_exact(rho, tuple(split))
    for field in ("S", "J", "E", "KW"):
        assert abs(getattr(moved, field) - getattr(r, field)) <= 1e-13, field


def test_kw_all_permutations_on_pure_state():
    reports, average = corr.kw_all_permutations(w1_dm())
    assert len(reports) == 6
    assert len({r.assignment for r in reports}) == 6
    for r in reports:
        assert r.KW == pytest.approx(0, abs=1e-6)
    assert average == pytest.approx(0, abs=1e-6)


def test_clip_to_domain():
    m = corr.clip_to_domain(0.5, 0.6)
    assert m.p <= 1 / 3 and -m.p / 2 <= m.c <= m.p
    assert m.p == pytest.approx(1 / 3, abs=1e-9)
    assert m.c <= m.p
    m = corr.clip_to_domain(0.2, -0.3)
    assert m.c == pytest.approx(-0.1, abs=1e-12)


def test_kw_symmetric_pure_point():
    report = corr.kw_symmetric(corr.SymmetricModel(1 / 3, 1 / 3))
    assert report.method == "symmetric-formula"
    assert report.S == pytest.approx(S_PURE, abs=1e-12)
    assert report.E == pytest.approx(E_PURE, abs=1e-12)
    assert report.J == pytest.approx(J_PURE, abs=1e-12)
    assert report.KW == pytest.approx(0, abs=1e-12)
    assert report.theta_opt == pytest.approx(np.pi / 4, abs=1e-12)


def test_kw_symmetric_frozen_points():
    for (p, c), expected in (
        ((0.31, 0.30375), TABLE_POINT),
        ((0.284375, 0.255), NOISY_POINT),
    ):
        report = corr.kw_symmetric(corr.SymmetricModel(p, c))
        assert report.S == pytest.approx(expected["S"], abs=1e-12)
        assert report.E == pytest.approx(expected["E"], abs=1e-12)
        assert report.J == pytest.approx(expected["J"], abs=1e-12)
        assert report.KW == pytest.approx(expected["KW"], abs=1e-12)


def test_kw_symmetric_zero_coherence():
    # at c = 0 the J expression collapses to -3p*log2(3p): nonnegative on the
    # model domain and zero exactly at p = 1/3
    report = corr.kw_symmetric(corr.SymmetricModel(0.2, 0.0))
    # E depends only on the populations (concurrence 2p), not on c
    assert report.E == pytest.approx(corr.eof_from_concurrence(0.4), abs=1e-12)
    assert report.E == pytest.approx(0.25022491161107063, abs=1e-12)
    assert report.J == pytest.approx(-0.6 * np.log2(0.6), abs=1e-12)
    assert report.J == pytest.approx(0.4421793564997237, abs=1e-12)
    assert report.KW == pytest.approx(report.S - report.J - report.E,
                                      abs=1e-12)
    for p in (0.05, 0.15, 0.25, 1 / 3):
        r = corr.kw_symmetric(corr.SymmetricModel(p, 0.0))
        assert r.J == pytest.approx(-3 * p * np.log2(3 * p), abs=1e-12)
        assert r.J >= -1e-12
    assert corr.kw_symmetric(corr.SymmetricModel(1 / 3, 0.0)).J == \
        pytest.approx(0, abs=1e-12)


@pytest.mark.parametrize("p, c", [(np.nan, 0.1), (0.3, np.nan), (np.inf, 0.1),
                                  (0.3, -np.inf)])
def test_kw_symmetric_rejects_non_finite_parameters(p, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite, p positive"):
            corr.kw_symmetric(corr.SymmetricModel(p, c))


@pytest.mark.parametrize("p, c", [(1e200, 0.1), (0.3, 1e200), (1e-200, 0.0), (1e-300, 0.1)])
def test_kw_symmetric_rejects_closed_forms_that_are_not_finite(p, c):
    # p**4 overflows at p = 1e200 and c*c at c = 1e200; p*p underflows to 0
    # at p = 1e-200, which leaves J = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="closed forms") as raised:
            corr.kw_symmetric(corr.SymmetricModel(p, c))
    assert f"p={p}" in str(raised.value) and "\n" not in str(raised.value)


def test_kw_symmetric_errors():
    with pytest.raises(ValueError):
        corr.kw_symmetric(corr.SymmetricModel(0.0, 0.0))
    with pytest.raises(ValueError):
        corr.kw_symmetric(corr.SymmetricModel(0.3, 0.2), strict=True)
    corr.kw_symmetric(corr.SymmetricModel(1 / 3, 0.2), strict=True)


def model_matrix(p, c):
    """The symmetric model's matrix completed to unit trace with 1 - 3p on |000>."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1 - 3 * p
    for i, j in itertools.product((1, 2, 4), repeat=2):
        rho[i, j] = p if i == j else c
    return rho


# closed forms minus the exact b|a,c balance of model_matrix(p, c)
CLOSED_FORM_GAPS = {
    (0.3, 0.3): {"S": 0.0819781355, "J": 0.1697182862, "E": 0.0, "KW": -0.0877401507},
    (0.3, 0.2): {"S": 0.0819781355, "J": 0.0838537749, "E": 0.2187706820, "KW": -0.2206463213},
}


def test_closed_forms_hold_only_at_the_pure_point():
    pure = corr.kw_exact(model_matrix(1 / 3, 1 / 3), "b|a,c")
    forms = corr.kw_symmetric(corr.SymmetricModel(1 / 3, 1 / 3))
    for key in ("S", "J", "E", "KW"):
        assert getattr(forms, key) == pytest.approx(getattr(pure, key), abs=1e-12), key
    for (p, c), gaps in CLOSED_FORM_GAPS.items():
        exact = corr.kw_exact(model_matrix(p, c), "b|a,c")
        forms = corr.kw_symmetric(corr.SymmetricModel(p, c))
        for key, gap in gaps.items():
            assert getattr(forms, key) - getattr(exact, key) == pytest.approx(gap, abs=1e-9), key


def test_two_routes_disagree_on_mixed_model_state():
    # the closed forms assume the three-level family; a white-noise admixture
    # leaves that family, so the formula route and the exact route give
    # different numbers on the same state.  Both are frozen here.
    w1 = qmat.dm(states.dicke(3, 1))
    rho = 0.765 * w1 + 0.235 * np.eye(8) / 8
    model = corr.extract_pc(corr.correlator_table(rho))
    assert model.p == pytest.approx(0.284375, abs=1e-12)
    assert model.c == pytest.approx(0.255, abs=1e-12)
    formula = corr.kw_symmetric(model)
    assert formula.KW == pytest.approx(NOISY_POINT["KW"], abs=1e-12)
    exact = corr.kw_exact(rho, "b|a,c")
    assert exact.S == pytest.approx(0.952572336, abs=1e-6)
    assert exact.J == pytest.approx(0.201824743, abs=1e-6)
    assert exact.E == pytest.approx(0.108869715429243, abs=1e-9)
    assert exact.KW == pytest.approx(0.641877877265491, abs=1e-6)
    assert exact.theta_opt == pytest.approx(np.pi / 4, abs=1e-3)
    assert abs(formula.KW - exact.KW) > 0.5


def test_correlator_table_matches_direct_expectations():
    rho = 0.6 * w1_dm() + 0.4 * np.eye(8) / 8
    table = corr.correlator_table(rho)
    assert table.paulis == corr.kw_correlator_paulis()
    assert table.sigmas.tolist() == [0.0] * 20
    for pauli, value in zip(table.paulis, table.values):
        assert value == pytest.approx(qmat.pauli_expectation(rho, pauli), abs=1e-12)


def test_pauli_class_machinery():
    assert corr.pauli_class("ZZI") == ("ZZI", "ZIZ", "IZZ")
    # a member takes the ideal sign of its class
    mapped = corr.apply_sign_map(corr.CorrelatorTable(("IZZ", "ZZZ"), [0.5, 0.5], [0.1, 0]))
    assert mapped.values.tolist() == [-0.5, -0.5]
    assert mapped.sigmas.tolist() == [0.1, 0.0]
    paulis = corr.kw_correlator_paulis()
    assert len(paulis) == 20
    assert len(set(paulis)) == 20
    assert "III" in paulis


def test_correlator_table_validates_input_once(monkeypatch):
    calls = []
    check = qmat.check_density_matrix
    monkeypatch.setattr(qmat, "check_density_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    corr.correlator_table(0.6 * w1_dm() + 0.4 * np.eye(8) / 8)
    assert len(calls) == 1


@pytest.mark.parametrize("paulis, values, sigmas", [
    (("ZZZ", "ZZI"), [0.5, 0.5], [0.1, -0.1]),
    (("ZZZ", "ZZI"), [0.5, 0.5], [0.1, np.nan]),
    (("ZZZ", "ZZI"), [0.5, 0.5], [np.inf, 0.1]),
    (("ZZZ", "ZZI"), [np.nan, 0.5], [0.1, 0.1]),
    (("ZZZ", "ZZI"), [0.5, -1 - 2e-6], [0.1, 0.1]),
    (("ZZZ", "ZZI"), [0.5, np.inf], [0.1, 0.1]),
    (("ZZZ", "ZZ"), [0.5, 0.5], [0.1, 0.1]),
    (("ZZZ", "ZQZ"), [0.5, 0.5], [0.1, 0.1]),
    (("ZZZ", "zzz"), [0.5, 0.5], [0.1, 0.1]),
    (("ZZZ", ""), [0.5, 0.5], [0.1, 0.1]),
    (("ZZZ", 5), [0.5, 0.5], [0.1, 0.1]),
    (("ZZZ", "ZZI"), [0.5], [0.1, 0.1]),
    (("ZZZ", "ZZI"), [0.5, 0.5], [0.1, 0.1, 0.1]),
    (("ZZZ",), 0.5, 0.1),
    ((), [], []),
    ("ZZZ", [0.5, 0.5, 0.5], [0.1, 0.1, 0.1]),
    (5, [0.5], [0.1]),
    (None, [], []),
    (("ZZZ",), [0.1 + 0j], [0.1]),
    (("ZZZ",), np.array([0.5 + 0j]), [0.1]),
    (("ZZZ",), [0.5], [1j]),
    (("ZZZ",), ["0.5"], [0.1]),
], ids=["negative sigma", "NaN sigma", "inf sigma", "NaN value", "value past -1",
        "inf value", "mixed lengths", "letter Q", "lower case", "empty string",
        "not a string", "short values", "long sigmas", "scalars", "empty",
        "bare string", "a number", "None", "complex value", "complex array", "complex sigma",
        "text value"])
@pytest.mark.filterwarnings("error")
def test_a_bad_correlator_table_raises_one_value_error(paulis, values, sigmas):
    with pytest.raises(ValueError) as raised:
        corr.CorrelatorTable(paulis, values, sigmas)
    assert "\n" not in str(raised.value)


def test_a_correlator_table_is_checked_read_only_arrays():
    # values pass 1 by rounding: 4.4e-16 in exact tables, more on the
    # states the density-matrix check accepts
    table = corr.CorrelatorTable(["ZZZ", "ZZI"], (1 + 1e-6, -1 - 1e-6), [0, 1])
    assert table.paulis == ("ZZZ", "ZZI")
    assert table.values.dtype == table.sigmas.dtype == np.float64
    for array in (table.values, table.sigmas):
        with pytest.raises(ValueError):
            array[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.values = np.zeros(2)
    # the table keeps copies: a caller's array may change afterwards
    values = np.array([0.5, 0.5])
    table = corr.CorrelatorTable(("XXI", "YYI"), values, [0.1, 0.1])
    values[0] = 7.0
    assert table.values.tolist() == [0.5, 0.5]


def test_kw_from_correlators_rejects_negated_sigmas():
    # the Monte Carlo draws only sigma > 0, so negated sigmas would read as
    # exact values: KW 0.0339 +/- 0.0
    ref = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE)
    with pytest.raises(ValueError, match="sigma >= 0"):
        corr.kw_from_correlators(corr.CorrelatorTable(ref.paulis, ref.values, -ref.sigmas))


def test_class_of_matches_brute_force():
    # the extraction's strings are those of exactly one class; the sign map
    # gives each the sign of its class on the ideal state, and rejects the rest
    exact = corr.correlator_table(w1_dm())
    ideal = dict(zip(exact.paulis, exact.values))
    for letters in itertools.product("IXYZ", repeat=3):
        pauli = "".join(letters)
        owners = [rep for rep in ("III",) + corr.KW_CLASS_REPS
                  if pauli in corr.pauli_class(rep)]
        assert len(owners) <= 1
        assert (pauli in corr.kw_correlator_paulis()) == bool(owners)
        single = corr.CorrelatorTable((pauli,), [-0.5], [0.0])
        if owners:
            assert corr.apply_sign_map(single).values[0] == 0.5 * np.sign(ideal[owners[0]])
        else:
            with pytest.raises(ValueError, match="no ideal sign"):
                corr.apply_sign_map(single)


def test_ideal_sign_map():
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    mapped = dict(zip(table.paulis, table.values))
    assert mapped["ZZZ"] == pytest.approx(-0.87)
    assert mapped["ZZI"] == pytest.approx(-0.35)
    assert mapped["ZII"] == pytest.approx(0.26)
    assert mapped["XXZ"] == pytest.approx(0.55)
    assert table.paulis == corr.REFERENCE_CORRELATOR_TABLE.paulis
    assert np.array_equal(table.sigmas, corr.REFERENCE_CORRELATOR_TABLE.sigmas)
    raw = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "raw")
    assert raw is corr.REFERENCE_CORRELATOR_TABLE
    with pytest.raises(ValueError):
        corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "unknown")


def expectation_table(rho, paulis):
    """The exact table of the given strings, one expectation at a time."""
    return corr.CorrelatorTable(tuple(paulis), [qmat.pauli_expectation(rho, p) for p in paulis],
                                np.zeros(len(paulis)))


def test_extract_pc_on_ideal_w1():
    model = corr.extract_pc(corr.correlator_table(w1_dm()))
    assert model.p == pytest.approx(1 / 3, abs=1e-12)
    assert model.c == pytest.approx(1 / 3, abs=1e-12)


def test_extract_pc_printed_form_disagrees():
    table = corr.correlator_table(w1_dm())
    model = corr.extract_pc(table, printed_form=True)
    assert model.p == pytest.approx(5 / 12, abs=1e-12)
    assert abs(model.p - 1 / 3) > 0.05


def test_extract_pc_fills_classes_from_representatives():
    rho = w1_dm()
    full = corr.extract_pc(corr.correlator_table(rho))
    sparse = corr.extract_pc(expectation_table(rho, corr.KW_CLASS_REPS))
    assert sparse.p == pytest.approx(full.p, abs=1e-12)
    assert sparse.c == pytest.approx(full.c, abs=1e-12)


def test_extract_pc_missing_class_raises():
    reps = [p for p in corr.KW_CLASS_REPS if p != "YYI"]
    with pytest.raises(ValueError, match="YYI"):
        corr.extract_pc(expectation_table(w1_dm(), reps))


def test_extract_pc_matches_symmetrized_state():
    # class averaging is the same as symmetrizing the state over the qubits
    rng = np.random.default_rng(14)
    rho = qmat.random_density_matrix(3, rng)
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    sym = sum(qmat.partial_trace(rho, p) for p in perms) / 6
    m1 = corr.extract_pc(corr.correlator_table(rho))
    m2 = corr.extract_pc(corr.correlator_table(sym))
    assert m1.p == pytest.approx(m2.p, abs=1e-10)
    assert m1.c == pytest.approx(m2.c, abs=1e-10)


# (KW, sigma) of the sign-mapped reference table at seeds 0-4, recorded
# before the Pauli-class lookup became a precomputed map
REFERENCE_TABLE_DRAWS = {
    0: (0.03388543146668854, 0.017493439027090153),
    1: (0.03388543146668854, 0.017583405657033736),
    2: (0.03388543146668854, 0.017159138217342246),
    3: (0.03388543146668854, 0.017664520515313125),
    4: (0.03388543146668854, 0.017050533601943356),
}


@pytest.mark.parametrize("seed", sorted(REFERENCE_TABLE_DRAWS))
def test_kw_from_correlators_is_bit_stable(seed):
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    report = corr.kw_from_correlators(table, seed=seed)
    assert (report.KW, report.sigma) == REFERENCE_TABLE_DRAWS[seed]


def test_kw_from_correlators_frozen_table():
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    report = corr.kw_from_correlators(table, samples=2000, seed=0)
    assert report.method == "correlator-estimate"
    assert report.KW == pytest.approx(TABLE_POINT["KW"], abs=1e-9)
    assert report.S == pytest.approx(TABLE_POINT["S"], abs=1e-9)
    assert 0.01 < report.sigma < 0.04
    again = corr.kw_from_correlators(table, samples=2000, seed=0)
    assert again.KW == report.KW
    assert again.sigma == report.sigma
    other = corr.kw_from_correlators(table, samples=2000, seed=1)
    assert other.sigma != report.sigma
    assert other.KW == report.KW  # central value ignores the sampling seed


def test_kw_from_correlators_zero_sigma_table():
    table = corr.correlator_table(w1_dm())
    report = corr.kw_from_correlators(table, samples=200, seed=0)
    assert report.KW == pytest.approx(0, abs=1e-9)
    assert report.sigma == pytest.approx(0, abs=1e-9)


def test_kw_from_correlators_requires_samples():
    table = corr.correlator_table(w1_dm())
    with pytest.raises(ValueError):
        corr.kw_from_correlators(table, samples=50, seed=0)


@pytest.mark.parametrize("samples", [-1, 0, 99])
def test_kw_from_correlators_rejects_fewer_than_100_samples(samples):
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    with pytest.raises(ValueError, match="100"):
        corr.kw_from_correlators(table, samples=samples, seed=0)
    assert corr.kw_from_correlators(table, samples=100, seed=0).sigma > 0


def test_kw_from_correlators_bounds_the_samples_before_it_draws(monkeypatch):
    # the Monte Carlo keeps 8 bytes of KW per draw: 10**11 samples need 800 GB
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    for samples in (corr._MAX_SAMPLES + 1, 10**11):
        with pytest.raises(ValueError, match=f"from 100 to {corr._MAX_SAMPLES}, got {samples}"):
            corr.kw_from_correlators(table, samples=samples)
    assert corr._MAX_SAMPLES == 10**7


def noisy_pipeline_table(seed):
    w_noisy, _ = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    counts = tomo.simulate_counts(w_noisy, tomo.settings_full(3), 10000, seed)
    return tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())


# (KW, sigma) of the end-to-end pipeline (noisy projection, 10000 mean
# counts, 27 settings, 20 correlators) at seeds 0-4.  III is exactly
# (1, 0) and no longer draws; the floats of the former per-string
# correlators with III set to (1, 0) reproduce these to 1e-15
PIPELINE_DRAWS = {
    0: (0.106853853913701, 0.0025893445643186464),
    1: (0.10456719643352974, 0.0024432345903764034),
    2: (0.10386669013192695, 0.0026141032034072416),
    3: (0.10671739970746758, 0.0024887793007140244),
    4: (0.10219119201393262, 0.0025142344561041212),
}


@pytest.mark.parametrize("seed", sorted(PIPELINE_DRAWS))
def test_pipeline_kw_is_bit_stable(seed):
    report = corr.kw_from_correlators(noisy_pipeline_table(seed), seed=seed)
    assert (report.KW, report.sigma) == PIPELINE_DRAWS[seed]
    w_noisy, _ = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    counts = tomo.simulate_counts(w_noisy, tomo.settings_full(3), 10000, seed)
    loop = loop_correlators(counts.settings, counts.counts, corr.kw_correlator_paulis())
    identity = np.array(loop.paulis) == "III"
    former = corr.CorrelatorTable(loop.paulis, np.where(identity, 1.0, loop.values),
                                  np.where(identity, 0.0, loop.sigmas))
    oracle = corr.kw_from_correlators(former, seed=seed)
    assert report.KW == pytest.approx(oracle.KW, abs=1e-15)
    assert report.sigma == pytest.approx(oracle.sigma, abs=1e-15)


def loop_monte_carlo(table, samples, seed):
    """The former per-draw loop, kept as an oracle: sigma of the KW draws and
    the fraction of draws that the domain clip moved.  Each draw is a table
    of its own."""
    rng = np.random.default_rng(seed)
    draws, moved = [], 0
    for _ in range(samples):
        values = [float(np.clip(rng.normal(v, s), -1.0, 1.0)) if s > 0 else v
                  for v, s in zip(table.values.tolist(), table.sigmas.tolist())]
        model = corr.extract_pc(corr.CorrelatorTable(table.paulis, values, table.sigmas))
        clipped = corr.clip_to_domain(model.p, model.c)
        moved += (clipped.p, clipped.c) != (model.p, model.c)
        draws.append(corr.kw_symmetric(clipped).KW)
    return float(np.std(draws, ddof=1)), moved / samples


@pytest.mark.parametrize("source, seed", [("reference", 0), ("reference", 3),
                                          ("pipeline", 1)])
def test_array_monte_carlo_matches_the_draw_loop(source, seed):
    table = (corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
             if source == "reference" else noisy_pipeline_table(seed))
    report = corr.kw_from_correlators(table, samples=300, seed=seed)
    assert (report.sigma, report.clipped_frac) == loop_monte_carlo(table, 300, seed)


def test_clipped_frac_counts_the_draws_the_clip_moves():
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    # c = 0.30375 sits next to the c <= p edge (p = 0.31), so about a third
    # of the draws land outside the domain
    assert corr.kw_from_correlators(table, seed=0).clipped_frac == 617 / 2000
    # exact tables draw nothing: inside the domain no draw moves, and at
    # the pure point p rounds one ulp above 1/3, which the clip's move of
    # one ulp does not count as clipping
    rho = 0.765 * w1_dm() + 0.235 * np.eye(8) / 8
    inside = corr.kw_from_correlators(corr.correlator_table(rho), samples=100)
    assert inside.clipped_frac == 0.0
    edge = corr.kw_from_correlators(corr.correlator_table(w1_dm()), samples=100)
    assert edge.clipped_frac == 0.0
    assert corr.kw_symmetric(corr.SymmetricModel(0.31, 0.30375)).clipped_frac is None


@pytest.mark.parametrize("source", ["reference", "pipeline"])
def test_monte_carlo_does_not_depend_on_the_draw_block(monkeypatch, source):
    table = (corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
             if source == "reference" else noisy_pipeline_table(2))
    whole = corr.kw_from_correlators(table, samples=2000, seed=5)
    for block in (7, 100, 1999):
        monkeypatch.setattr(corr, "_DRAW_BLOCK", block)
        report = corr.kw_from_correlators(table, samples=2000, seed=5)
        assert (report.KW, report.sigma, report.clipped_frac) == (
            whole.KW, whole.sigma, whole.clipped_frac)


def test_monte_carlo_memory_does_not_grow_with_the_draws():
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    tracemalloc.start()
    try:
        corr.kw_from_correlators(table, samples=100_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding every draw at once peaked at about 20 MB; what is left is the
    # 8-byte KW value per draw and one block of draws
    assert peak < 4e6


def test_zero_sigma_record_consumes_no_draws():
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    identity = ("III", 1.0, 0.0)  # equal to the default fill
    rows = list(zip(table.paulis, table.values, table.sigmas))
    base = corr.kw_from_correlators(table, samples=500, seed=2)
    for padded in ([identity] + rows, rows[:3] + [identity] + rows[3:]):
        report = corr.kw_from_correlators(corr.CorrelatorTable(*zip(*padded)),
                                          samples=500, seed=2)
        assert (report.KW, report.sigma, report.clipped_frac) == (
            base.KW, base.sigma, base.clipped_frac)


def scalar_closed_forms(p, c):
    """The symmetric-model closed forms as the former scalar code evaluated
    them, kept as an oracle for the array evaluation; E is the binary entropy
    with no cut below 1e-12, as the exact route's E is."""
    root = np.sqrt(4 * c * c * p * p + p**4)
    args = ((1 - root / (3 * p * p)) / 2, (1 + root / (3 * p * p)) / 2)
    s = -p * (2 + 3 * np.log2(p))
    r = np.sqrt(max(0.0, 1 - 4 * p * p))
    e = 0.0
    for x in ((1 + r) / 2, (1 - r) / 2):
        if x > 0:
            e -= x * np.log2(x)
    j = -p * np.log2(p) - 2 * p * np.log2(2 * p)
    j += ((3 * p * p - root) * np.log2(args[0])
          + (3 * p * p + root) * np.log2(args[1])) / (2 * p)
    return float(s), float(j), float(e)


physical_pc = st.tuples(
    st.floats(min_value=1e-9, max_value=1 / 3),
    st.floats(min_value=0.0, max_value=1.0),
).map(lambda pt: (pt[0], min(-pt[0] / 2 + 1.5 * pt[0] * pt[1], pt[0])))


@settings(max_examples=200, deadline=None)
@given(st.lists(physical_pc, min_size=1, max_size=40))
def test_array_closed_forms_equal_the_scalar_formula(points):
    p, c = (np.array(v) for v in zip(*points))
    s, j, e = corr._symmetric_forms(p, c)
    for k, (pk, ck) in enumerate(points):
        assert (s[k], j[k], e[k]) == scalar_closed_forms(pk, ck)
        report = corr.kw_symmetric(corr.SymmetricModel(pk, ck))
        assert (report.S, report.J, report.E) == scalar_closed_forms(pk, ck)


def test_kw_report_is_serializable():
    report = corr.kw_symmetric(corr.SymmetricModel(0.3, 0.2))
    doc = dataclasses.asdict(report)
    for key in ("assignment", "S", "J", "E", "KW", "method", "sigma",
                "theta_opt", "phi_opt"):
        assert key in doc
