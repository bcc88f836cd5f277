"""Tests for state constructors, the engineering circuit, and projective
reductions."""

import numpy as np
import pytest

from dickekw import qmat, states


def test_ket_xi_amplitudes():
    xi = states.ket_xi()
    s6 = np.sqrt(6)
    np.testing.assert_allclose(xi[0b0001], 1 / s6, atol=1e-15)
    np.testing.assert_allclose(xi[0b0010], -1 / s6, atol=1e-15)
    np.testing.assert_allclose(xi[0b1101], 2 / s6, atol=1e-15)
    mask = np.ones(16, dtype=bool)
    mask[[0b0001, 0b0010, 0b1101]] = False
    assert np.all(xi[mask] == 0)
    assert np.linalg.norm(xi) == pytest.approx(1, abs=1e-12)


def test_gate_unitaries():
    h = states.gate_unitary(states.GateSpec("H", 0), 1)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2),
                               atol=1e-15)
    cx = states.gate_unitary(states.GateSpec("CX", target=1, control=0), 2)
    for src, dst in ((0b00, 0b00), (0b01, 0b01), (0b10, 0b11), (0b11, 0b10)):
        np.testing.assert_allclose(cx @ qmat.basis_ket(2, src),
                                   qmat.basis_ket(2, dst), atol=1e-15)
    # the bar variant controls on |0> and applies Z to the target
    czbar = states.gate_unitary(states.GateSpec("CZbar", target=1, control=0), 2)
    expected = np.diag([1, -1, 1, 1]).astype(complex)
    np.testing.assert_allclose(czbar, expected, atol=1e-15)


def test_gate_unitaries_are_unitary():
    for gate in states.DICKE_CIRCUIT:
        u = states.gate_unitary(gate, 4)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)


def test_circuit_reaches_dicke_state():
    out = states.circuit_to_dicke()
    target = states.dicke(4, 2)
    overlap = np.vdot(target, out)
    assert abs(overlap) ** 2 == pytest.approx(1, abs=1e-12)
    # the circuit output carries an overall minus sign
    assert overlap.real == pytest.approx(-1, abs=1e-12)
    assert abs(overlap.imag) < 1e-12


def test_apply_circuit_order():
    # gates apply first-to-last: H then Z differs from Z then H on |0>
    h = states.GateSpec("H", 0)
    z = states.GateSpec("Z", 0)
    psi = states.apply_circuit(qmat.KET0, [h, z])
    np.testing.assert_allclose(psi, np.array([1, -1]) / np.sqrt(2), atol=1e-15)
    psi = states.apply_circuit(qmat.KET0, [z, h])
    np.testing.assert_allclose(psi, np.array([1, 1]) / np.sqrt(2), atol=1e-15)


def test_dicke_amplitudes():
    d42 = states.dicke(4, 2)
    amp = 1 / np.sqrt(6)
    hot = [i for i in range(16) if bin(i).count("1") == 2]
    for i in range(16):
        expected = amp if i in hot else 0.0
        assert d42[i] == pytest.approx(expected, abs=1e-15)
    np.testing.assert_allclose(states.w_state(), states.dicke(3, 1))
    np.testing.assert_allclose(states.psi_plus(),
                               np.array([0, 1, 1, 0]) / np.sqrt(2))
    with pytest.raises(ValueError):
        states.dicke(3, 4)
    with pytest.raises(ValueError):
        states.dicke(0, 0)


def test_single_qubit_decomposition_every_qubit():
    # D(4,2) = (|0>_j W2(rest) + |1>_j W1(rest)) / sqrt(2) for every qubit j
    d42 = states.dicke(4, 2)
    for j in range(4):
        branch0 = qmat.tensor(qmat.KET0, states.dicke(3, 2))
        branch1 = qmat.tensor(qmat.KET1, states.dicke(3, 1))
        combined = (branch0 + branch1) / np.sqrt(2)
        rest = [q for q in range(4) if q != j]
        perm = [0] * 4
        perm[j] = 0
        for out_pos, in_pos in zip(rest, range(1, 4)):
            perm[out_pos] = in_pos
        rebuilt = qmat.permute_qubits(combined, perm)
        np.testing.assert_allclose(rebuilt, d42, atol=1e-12)


def test_bell_pair_decomposition():
    d42 = states.dicke(4, 2)
    bell = states.psi_plus()
    rebuilt = (qmat.basis_ket(4, int("0011", 2))
               + qmat.basis_ket(4, int("1100", 2))) / np.sqrt(6)
    rebuilt = rebuilt + np.sqrt(2 / 3) * qmat.tensor(bell, bell)
    np.testing.assert_allclose(rebuilt, d42, atol=1e-12)


def test_projection_decomposition_probabilities():
    d42 = states.dicke(4, 2)
    for j in range(4):
        for outcome, k in ((0, 2), (1, 1)):
            post, prob = states.reduce_state(d42, [(j, outcome)])
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert qmat.fidelity_pure(states.dicke(3, k), post) == \
                pytest.approx(1, abs=1e-12)


def test_reduce_to_bell_pair():
    d42 = states.dicke(4, 2)
    for c_out, d_out in ((0, 1), (1, 0)):
        post, prob = states.reduce_state(d42, [(2, c_out), (3, d_out)])
        assert prob == pytest.approx(1 / 3, abs=1e-12)
        assert qmat.fidelity_pure(states.psi_plus(), post) == pytest.approx(
            1, abs=1e-12)


def test_reduce_three_qubits_leaves_pure_b():
    post, prob = states.reduce_state(states.dicke(4, 2), [(0, 1), (2, 0), (3, 1)])
    assert prob == pytest.approx(1 / 6, abs=1e-12)
    np.testing.assert_allclose(np.abs(post) ** 2, [1, 0], atol=1e-12)


def test_noisy_dicke():
    np.testing.assert_allclose(states.noisy_dicke(1.0),
                               qmat.dm(states.dicke(4, 2)), atol=1e-15)
    np.testing.assert_allclose(states.noisy_dicke(0.0), np.eye(16) / 16,
                               atol=1e-15)
    rho = states.noisy_dicke(0.765)
    qmat.check_density_matrix(rho)
    with pytest.raises(ValueError):
        states.noisy_dicke(1.2)
    with pytest.raises(ValueError):
        states.noisy_dicke(-0.1)


def test_reduce_noisy_dicke_gives_noisy_w():
    rho, prob = states.reduce_state(states.noisy_dicke(0.765), [(3, 1)])
    assert prob == pytest.approx(0.5, abs=1e-12)
    w1 = qmat.dm(states.dicke(3, 1))
    expected = 0.765 * w1 + 0.235 * np.eye(8) / 8
    np.testing.assert_allclose(rho, expected, atol=1e-12)


def test_reduce_state_zero_probability():
    with pytest.raises(ValueError):
        states.reduce_state(qmat.basis_ket(2, int("00", 2)), [(0, 1)])


def test_parse_projections():
    assert states.parse_projections("d=1,c=0", 4) == [(3, 1), (2, 0)]
    assert states.parse_projections(" a=0 ", 4) == [(0, 0)]
    with pytest.raises(ValueError):
        states.parse_projections("e=1", 4)
    with pytest.raises(ValueError):
        states.parse_projections("d=2", 4)
    with pytest.raises(ValueError):
        states.parse_projections("d=1", 3)
    with pytest.raises(ValueError):
        states.parse_projections("", 4)


def test_state_by_name():
    np.testing.assert_allclose(states.state_by_name("xi"), states.ket_xi())
    np.testing.assert_allclose(states.state_by_name("dicke-4-2"),
                               states.dicke(4, 2))
    np.testing.assert_allclose(states.state_by_name("w1"), states.dicke(3, 1))
    np.testing.assert_allclose(states.state_by_name("w2"), states.dicke(3, 2))
    np.testing.assert_allclose(states.state_by_name("psi-plus"),
                               states.psi_plus())
    np.testing.assert_allclose(states.state_by_name("noisy-dicke:p=0.765"),
                               states.noisy_dicke(0.765))
    with pytest.raises(ValueError):
        states.state_by_name("ghz")
    with pytest.raises(ValueError):
        states.state_by_name("noisy-dicke:p=nan")


def test_gate_unitaries_are_cached_read_only():
    gate = states.GateSpec("CX", target=0, control=2)
    u = states.gate_unitary(gate, 4)
    assert states.gate_unitary(states.GateSpec("CX", target=0, control=2), 4) is u
    with pytest.raises(ValueError):
        u[0, 0] = 0
    with pytest.raises(ValueError):
        states.gate_unitary(states.GateSpec("CX", target=0, control=7), 4)


def test_one_qubit_gate_unitary_leaves_the_hadamard_writable():
    # a one-qubit gate is a tensor product of one factor; caching it
    # read-only must not freeze the module's Hadamard
    u = states.gate_unitary(states.GateSpec("H", target=0), 1)
    assert u is not qmat.H and not u.flags.writeable
    assert qmat.H.flags.writeable
