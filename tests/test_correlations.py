"""Tests for entanglement measures, the measurement optimizer, the symmetric
closed forms, and correlator-table ingestion.

Reference constants were computed with an independent high-precision
implementation and are frozen here.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickekw import correlations as corr
from dickekw import qmat, states
from dickekw import tomography as tomo

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


def test_measurement_direction_kets_orthonormal():
    d = corr.MeasurementDirection(0.7, 2.1)
    k1, k2 = d.kets()
    assert abs(np.vdot(k1, k1) - 1) < 1e-12
    assert abs(np.vdot(k2, k2) - 1) < 1e-12
    assert abs(np.vdot(k1, k2)) < 1e-12


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
    j, direction = corr.classical_correlations(rho_ab, measured=0)
    assert j == pytest.approx(J_PURE, abs=1e-6)
    assert direction.theta == pytest.approx(np.pi / 4, abs=1e-3)
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


# J of 36 seeded two-qubit states (ranks 1-4 in turn, generator seed
# 20241018), recorded from the scipy Nelder-Mead optimizer that the
# closed-form zoom search replaced
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


# (S, J, E, KW, theta_opt, phi_opt) of kw_all_permutations, recorded while
# the sweep and zoom settings could still be passed in: the projected
# noisy_dicke(0.765), whose six splits agree, then random three-qubit
# states of rank 1, 2 and 8 (generator seed 20261018, drawn in that order)
NOISY_SPLIT = (0.9525723357984601, 0.20182474310372034, 0.10886971542924256,
               0.6418778772654972, 0.7853982897804557, 0.930994737852879)
J_KERNEL_PIN = {
    "noisy": (NOISY_SPLIT,) * 6,
    1: (
        (0.6673952495309629, 0.2045136975113187, 0.4628815391256169,
         1.2894027234811034e-08, 0.4968374310934603, 0.2556243048242034),
        (0.665124348712502, 0.2022427966928576, 0.46288154462794084,
         7.391703582548814e-09, 0.4968374310934603, 0.2556243048242034),
        (0.48764337284737946, 0.24088965545001192, 0.24675371343530592,
         3.9620616232305395e-09, 0.2933674191707675, 1.930481668557713),
        (0.665124348712502, 0.4183706313151345, 0.2467537080031898,
         9.39417771350648e-09, 0.2933674191707675, 1.930481668557713),
        (0.48764337284737946, 0.2376327845697308, 0.2500105839656847,
         4.311963952563502e-09, 0.7337180170456737, 0.017674953476725062),
        (0.667395249530963, 0.4173846612533143, 0.25001058725677294,
         1.0208757172947003e-09, 0.7337180170456737, 0.017674953476725062),
    ),
    2: (
        (0.89214393198861, 0.24605539943834753, 0.0,
         0.6460885325502624, 0.17343844601182262, 2.122538265897911),
        (0.7684377455418974, 0.3728312994079784, 0.0,
         0.395606446133919, 0.5779286717672799, 4.606177083150387),
        (0.9808775613397407, 0.24865940561093425, 0.28196602550631705,
         0.4502521302224894, 0.36875693704793167, 5.343446722666667),
        (0.7684377455418974, 0.08794449190978137, 0.2819660255063156,
         0.3985272281258004, 0.5328965057031398, 3.2229297995852435),
        (0.9808775613397407, 0.33572951884914515, 0.04569330923730498,
         0.5994547332532906, 0.20071020459577332, 4.797015544369512),
        (0.89214393198861, 0.09159420787387484, 0.04569330923730498,
         0.7548564148774302, 0.5234326153817032, 3.8473988082277706),
    ),
    8: (
        (0.9842270687924105, 0.1252581604847377, 0.0,
         0.8589689083076728, 0.33205859433165535, 2.4627211765448016),
        (0.9929618152234547, 0.05529763344462002, 0.0,
         0.9376641817788347, 0.5819922869674223, 1.6056356817106596),
        (0.9978165919527129, 0.12507651786789764, 0.0,
         0.8727400740848152, 0.8186531730352579, 4.143266409928467),
        (0.9929618152234547, 0.09527060933510367, 0.0,
         0.897691205888351, 0.6516286259461126, 6.0404948519271615),
        (0.9978165919527129, 0.05512982742876227, 0.0,
         0.9426867645239506, 0.8173279721914228, 5.603240235977229),
        (0.9842270687924105, 0.09558205753046634, 0.0,
         0.8886450112619442, 0.5500680063733823, 5.946048705276535),
    ),
}


def projected_noisy_dicke():
    return states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])[0]


def test_j_kernel_is_bit_stable():
    rng = np.random.default_rng(20261018)
    for key, rows in J_KERNEL_PIN.items():
        rho = (projected_noisy_dicke() if key == "noisy"
               else qmat.random_density_matrix(3, rng, rank=key))
        reports, _ = corr.kw_all_permutations(rho)
        assert [(r.S, r.J, r.E, r.KW, r.theta_opt, r.phi_opt)
                for r in reports] == list(rows), key
    pair = qmat.partial_trace(projected_noisy_dicke(), [0, 1])
    j, direction = corr.classical_correlations(pair, measured=1)
    assert (j, direction.theta, direction.phi) == NOISY_SPLIT[1:2] + NOISY_SPLIT[4:]


seeds = st.integers(0, 2**32 - 1)


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
    luo = 1 - qmat.entropy_bits([(1 + c_max) / 2, (1 - c_max) / 2])
    j, _ = corr.classical_correlations(rho)
    assert j == pytest.approx(luo, abs=1e-9)


def test_kw_all_permutations_validates_input_once(monkeypatch):
    calls = []
    check = qmat.check_density_matrix
    monkeypatch.setattr(qmat, "check_density_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    corr.kw_all_permutations(0.6 * w1_dm() + 0.4 * np.eye(8) / 8)
    assert len(calls) == 1


def test_kw_all_permutations_on_pure_state():
    reports, average = corr.kw_all_permutations(w1_dm())
    assert len(reports) == 6
    assert len({r.assignment for r in reports}) == 6
    for r in reports:
        assert r.KW == pytest.approx(0, abs=1e-6)
    assert average == pytest.approx(0, abs=1e-6)


def test_symmetric_model_validation():
    corr.SymmetricModel(1 / 3, 1 / 3).validate()
    corr.SymmetricModel(0.2, -0.05).validate()
    with pytest.raises(ValueError):
        corr.SymmetricModel(0.4, 0.1).validate()  # populations exceed one
    with pytest.raises(ValueError):
        corr.SymmetricModel(0.2, 0.25).validate()  # coherence above p
    with pytest.raises(ValueError):
        corr.SymmetricModel(0.2, -0.15).validate()  # coherence below -p/2
    with pytest.raises(ValueError):
        corr.SymmetricModel(-0.1, 0.0).validate()


def test_clip_to_domain():
    m = corr.clip_to_domain(0.5, 0.6)
    m.validate()
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


def test_kw_symmetric_errors():
    with pytest.raises(ValueError):
        corr.kw_symmetric(corr.SymmetricModel(0.0, 0.0))
    with pytest.raises(ValueError):
        corr.kw_symmetric(corr.SymmetricModel(0.3, 0.2), strict=True)
    corr.kw_symmetric(corr.SymmetricModel(1 / 3, 0.2), strict=True)


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
    table = {r.pauli: r for r in corr.correlator_table(rho)}
    assert len(table) == 20
    for pauli, record in table.items():
        assert record.sigma == 0.0
        assert record.value == pytest.approx(
            qmat.pauli_expectation(rho, pauli), abs=1e-12)


def test_pauli_class_machinery():
    assert corr.pauli_class("ZZI") == ("ZZI", "ZIZ", "IZZ")
    assert corr.class_of("IZZ") == "ZZI"
    assert corr.class_of("ZZZ") == "ZZZ"
    paulis = corr.kw_correlator_paulis()
    assert len(paulis) == 20
    assert len(set(paulis)) == 20
    assert "III" in paulis
    assert corr.canonical_setting("XXI") == "XXZ"
    assert corr.canonical_setting("III") == "ZZZ"


def test_correlator_table_validates_input_once(monkeypatch):
    calls = []
    check = qmat.check_density_matrix
    monkeypatch.setattr(qmat, "check_density_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    corr.correlator_table(0.6 * w1_dm() + 0.4 * np.eye(8) / 8)
    assert len(calls) == 1


def test_class_of_matches_brute_force():
    for letters in itertools.product("IXYZ", repeat=3):
        pauli = "".join(letters)
        owners = [rep for rep in ("III",) + corr.KW_CLASS_REPS
                  if pauli in corr.pauli_class(rep)]
        assert len(owners) <= 1
        assert corr.class_of(pauli) == (owners[0] if owners else None)


def test_ideal_sign_map():
    mapped = {r.pauli: r.value
              for r in corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE,
                                           "ideal-w1")}
    assert mapped["ZZZ"] == pytest.approx(-0.87)
    assert mapped["ZZI"] == pytest.approx(-0.35)
    assert mapped["ZII"] == pytest.approx(0.26)
    assert mapped["XXZ"] == pytest.approx(0.55)
    raw = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "raw")
    assert [r.value for r in raw] == [
        r.value for r in corr.REFERENCE_CORRELATOR_TABLE]
    with pytest.raises(ValueError):
        corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "unknown")


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
    reps = [corr.CorrelatorRecord(p, qmat.pauli_expectation(rho, p))
            for p in corr.KW_CLASS_REPS]
    sparse = corr.extract_pc(reps)
    assert sparse.p == pytest.approx(full.p, abs=1e-12)
    assert sparse.c == pytest.approx(full.c, abs=1e-12)


def test_extract_pc_missing_class_raises():
    reps = [corr.CorrelatorRecord(p, qmat.pauli_expectation(w1_dm(), p))
            for p in corr.KW_CLASS_REPS if p != "YYI"]
    with pytest.raises(ValueError, match="YYI"):
        corr.extract_pc(reps)


def test_extract_pc_matches_symmetrized_state():
    # class averaging is the same as symmetrizing the state over the qubits
    rng = np.random.default_rng(14)
    rho = qmat.random_density_matrix(3, rng)
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    sym = sum(qmat.permute_qubits(rho, p) for p in perms) / 6
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


def noisy_pipeline_records(seed):
    w_noisy, _ = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    counts = tomo.simulate_counts(w_noisy, tomo.settings_full(3), 10000, seed)
    return tomo.correlators_from_counts(counts, corr.kw_correlator_paulis())


# (KW, sigma) of the end-to-end pipeline (noisy projection, 10000 mean
# counts, 27 settings, 20 correlators) at seeds 0-4, recorded from the
# per-draw Monte-Carlo loop
PIPELINE_DRAWS = {
    0: (0.106853853913701, 0.0025739728626609395),
    1: (0.10456719643352963, 0.0024945567394349184),
    2: (0.10386669013192695, 0.00256970427175803),
    3: (0.10671739970746758, 0.002489734862904407),
    4: (0.10219119201393262, 0.0026042355064082564),
}


@pytest.mark.parametrize("seed", sorted(PIPELINE_DRAWS))
def test_pipeline_kw_is_bit_stable(seed):
    report = corr.kw_from_correlators(noisy_pipeline_records(seed), seed=seed)
    assert (report.KW, report.sigma) == PIPELINE_DRAWS[seed]


def loop_monte_carlo(records, samples, seed):
    """The former per-draw loop, kept as an oracle: sigma of the KW draws and
    the fraction of draws that the domain clip moved."""
    rng = np.random.default_rng(seed)
    draws, moved = [], 0
    for _ in range(samples):
        model = corr.extract_pc([corr.CorrelatorRecord(
            r.pauli,
            float(np.clip(rng.normal(r.value, r.sigma), -1.0, 1.0))
            if r.sigma > 0 else float(r.value), r.sigma) for r in records])
        clipped = corr.clip_to_domain(model.p, model.c)
        moved += (clipped.p, clipped.c) != (model.p, model.c)
        draws.append(corr.kw_symmetric(clipped).KW)
    return float(np.std(draws, ddof=1)), moved / samples


@pytest.mark.parametrize("source, seed", [("reference", 0), ("reference", 3),
                                          ("pipeline", 1)])
def test_array_monte_carlo_matches_the_draw_loop(source, seed):
    records = (corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
               if source == "reference" else noisy_pipeline_records(seed))
    report = corr.kw_from_correlators(records, samples=300, seed=seed)
    assert (report.sigma, report.clipped_frac) == loop_monte_carlo(records, 300, seed)


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
    records = (corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
               if source == "reference" else noisy_pipeline_records(2))
    whole = corr.kw_from_correlators(records, samples=2000, seed=5)
    for block in (7, 100, 1999):
        monkeypatch.setattr(corr, "_DRAW_BLOCK", block)
        report = corr.kw_from_correlators(records, samples=2000, seed=5)
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
    identity = corr.CorrelatorRecord("III", 1.0, 0.0)  # equal to the default fill
    base = corr.kw_from_correlators(table, samples=500, seed=2)
    for padded in ([identity] + table, table[:3] + [identity] + table[3:]):
        report = corr.kw_from_correlators(padded, samples=500, seed=2)
        assert (report.KW, report.sigma, report.clipped_frac) == (
            base.KW, base.sigma, base.clipped_frac)


def scalar_closed_forms(p, c):
    """The symmetric-model closed forms as the former scalar code evaluated
    them, kept as an oracle for the array evaluation."""
    root = np.sqrt(4 * c * c * p * p + p**4)
    args = ((1 - root / (3 * p * p)) / 2, (1 + root / (3 * p * p)) / 2)
    s = -p * (2 + 3 * np.log2(p))
    r = np.sqrt(max(0.0, 1 - 4 * p * p))
    e = 0.0
    for x in ((1 + r) / 2, (1 - r) / 2):
        if x >= 1e-12:
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
