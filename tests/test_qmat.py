"""Tests for the linear-algebra core: tensor products, partial traces,
eigendecomposition, entropies, fidelities, and projections."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickekw import qmat, states

H13 = 0.91829583405449  # binary entropy of 1/3, equal to log2(3) - 2/3


def test_tensor_kets_msb_first():
    # leftmost factor is the most significant qubit
    v = qmat.tensor(qmat.KET1, qmat.KET0)
    np.testing.assert_allclose(v, [0, 0, 1, 0])
    v = qmat.tensor(qmat.KET0, qmat.KET1)
    np.testing.assert_allclose(v, [0, 1, 0, 0])


def test_tensor_matches_bell_outer_product():
    bell = states.psi_plus()
    rho = qmat.dm(bell)
    expected = np.array([
        [0, 0, 0, 0],
        [0, 0.5, 0.5, 0],
        [0, 0.5, 0.5, 0],
        [0, 0, 0, 0],
    ])
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_basis_ket_and_bits():
    v = qmat.basis_ket(3, 5)
    assert v[5] == 1 and np.count_nonzero(v) == 1
    np.testing.assert_allclose(qmat.tensor(qmat.KET1, qmat.KET0, qmat.KET1), v)
    with pytest.raises(ValueError):
        qmat.basis_ket(2, 4)


def test_permute_qubits_swap():
    psi = qmat.basis_ket(2, int("01", 2))
    swapped = qmat.permute_qubits(psi, (1, 0))
    np.testing.assert_allclose(swapped, qmat.basis_ket(2, int("10", 2)))


def test_permute_qubits_identity_and_composition():
    rng = np.random.default_rng(4)
    psi = qmat.random_state_vector(3, rng)
    np.testing.assert_allclose(qmat.permute_qubits(psi, (0, 1, 2)), psi)
    once = qmat.permute_qubits(psi, (2, 0, 1))
    thrice = qmat.permute_qubits(qmat.permute_qubits(once, (2, 0, 1)), (2, 0, 1))
    np.testing.assert_allclose(thrice, psi, atol=1e-12)


def test_permute_qubits_density_matrix():
    rng = np.random.default_rng(5)
    rho = qmat.random_density_matrix(2, rng)
    perm = qmat.permute_qubits(rho, (1, 0))
    np.testing.assert_allclose(qmat.permute_qubits(perm, (1, 0)), rho, atol=1e-12)
    assert abs(np.trace(perm) - 1) < 1e-12


def test_partial_trace_w_state_pair():
    rho = qmat.dm(states.dicke(3, 1))
    third = 1 / 3
    expected = np.array([
        [third, 0, 0, 0],
        [0, third, third, 0],
        [0, third, third, 0],
        [0, 0, 0, 0],
    ])
    np.testing.assert_allclose(qmat.partial_trace(rho, (0, 1)), expected,
                               atol=1e-14)


def test_partial_trace_keep_order_reorders():
    rng = np.random.default_rng(6)
    rho = qmat.random_density_matrix(3, rng)
    ab = qmat.partial_trace(rho, (0, 1))
    ba = qmat.partial_trace(rho, (1, 0))
    np.testing.assert_allclose(qmat.permute_qubits(ab, (1, 0)), ba, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(7)
    a = qmat.random_density_matrix(1, rng)
    b = qmat.random_density_matrix(2, rng)
    rho = qmat.tensor(a, b)
    np.testing.assert_allclose(qmat.partial_trace(rho, (0,)), a, atol=1e-12)
    np.testing.assert_allclose(qmat.partial_trace(rho, (1, 2)), b, atol=1e-12)
    assert abs(np.trace(qmat.partial_trace(rho, (2,))) - 1) < 1e-12


def test_entropy_reference_points():
    assert qmat.von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0, abs=1e-12)
    assert qmat.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1, abs=1e-12)
    assert qmat.von_neumann_entropy(np.diag([2 / 3, 1 / 3])) == pytest.approx(
        H13, abs=1e-12)
    assert qmat.entropy_bits([0.5, 0.5, 0.0]) == pytest.approx(1, abs=1e-12)


def test_entropy_additive_on_products():
    rng = np.random.default_rng(9)
    a = qmat.random_density_matrix(1, rng)
    b = qmat.random_density_matrix(2, rng)
    total = qmat.von_neumann_entropy(qmat.tensor(a, b))
    parts = qmat.von_neumann_entropy(a) + qmat.von_neumann_entropy(b)
    assert total == pytest.approx(parts, abs=1e-9)


def test_entropy_negative_eigenvalue_policy():
    eps = 5e-10
    rho = np.diag([1 + eps, -eps])
    assert qmat.von_neumann_entropy(rho) == pytest.approx(0, abs=1e-7)
    with pytest.raises(ValueError):
        qmat.von_neumann_entropy(np.diag([1 + 1e-6, -1e-6]))


def test_fidelity_pure():
    psi = states.psi_plus()
    assert qmat.fidelity_pure(psi, psi) == pytest.approx(1, abs=1e-12)
    assert qmat.fidelity_pure(psi, qmat.dm(psi)) == pytest.approx(1, abs=1e-12)
    orth = qmat.basis_ket(2, int("00", 2))
    assert qmat.fidelity_pure(psi, orth) == pytest.approx(0, abs=1e-12)
    mixed = np.eye(4) / 4
    assert qmat.fidelity_pure(psi, mixed) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_of_noisy_dicke():
    fid = qmat.fidelity_pure(states.dicke(4, 2), states.noisy_dicke(0.765))
    p = 0.765
    assert fid == pytest.approx(p + (1 - p) / 16, abs=1e-12)
    assert fid == pytest.approx(0.7796875, abs=1e-12)


def test_project_kets():
    d42 = states.dicke(4, 2)
    post, prob = qmat.project(d42, [(3, 1)])
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert post.shape == (8,)
    assert qmat.fidelity_pure(states.dicke(3, 1), post) == pytest.approx(
        1, abs=1e-12)
    post, prob = qmat.project(d42, [(2, 0), (3, 1)])
    assert prob == pytest.approx(1 / 3, abs=1e-12)
    assert qmat.fidelity_pure(states.psi_plus(), post) == pytest.approx(
        1, abs=1e-12)


def test_project_density_matrix_matches_ket():
    d42 = states.dicke(4, 2)
    post_k, prob_k = qmat.project(d42, [(0, 1), (3, 0)])
    post_m, prob_m = qmat.project(qmat.dm(d42), [(0, 1), (3, 0)])
    assert prob_m == pytest.approx(prob_k, abs=1e-12)
    np.testing.assert_allclose(post_m, qmat.dm(post_k), atol=1e-12)


def test_project_outcome_ket():
    plus = np.array([1, 1]) / np.sqrt(2)
    post, prob = qmat.project(states.psi_plus(), [(0, plus)])
    assert prob == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(np.abs(post), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_project_completeness_and_errors():
    rng = np.random.default_rng(10)
    psi = qmat.random_state_vector(3, rng)
    total = sum(qmat.project(psi, [(1, o)])[1] for o in (0, 1))
    assert total == pytest.approx(1, abs=1e-12)
    with pytest.raises(ValueError):
        qmat.project(qmat.KET0, [(0, 1)])  # zero-probability branch
    with pytest.raises(ValueError):
        qmat.project(psi, [(0, 1), (0, 0)])  # duplicate qubit
    with pytest.raises(ValueError):
        qmat.project(psi, [(5, 1)])  # out of range


def test_checks_reject_malformed_input():
    with pytest.raises(ValueError):
        qmat.check_state_vector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        qmat.check_density_matrix(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        qmat.check_density_matrix(np.diag([1.5, -0.5]))
    qmat.check_density_matrix(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("call", [
    qmat.num_qubits, lambda x: qmat.partial_trace(x, [0]),
    lambda x: qmat.permute_qubits(x, [0]), lambda x: qmat.project(x, [(0, 0)])])
def test_a_scalar_array_is_not_a_state(call):
    with pytest.raises(ValueError):
        call(np.array(1.0))


def kron_pauli(labels):
    """The Kronecker product of a string's single-qubit Paulis: the oracle of
    the Pauli stack and coordinates."""
    return qmat.tensor(*(qmat.PAULI[l] for l in labels))


def test_pauli_stack_matches_the_kronecker_route():
    for n in (1, 2, 3, 4):
        kron = np.stack([kron_pauli(p).ravel() for p in qmat.pauli_strings(n)])
        assert np.array_equal(qmat._pauli_stack(n), kron)


def test_pauli_coords_match_the_trace_and_invert():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 4):
        matrices = [kron_pauli(p) for p in qmat.pauli_strings(n)]
        rhos = np.array([qmat.random_density_matrix(n, rng, rank=r)
                         for r in (1, 2, 2**n)] + [qmat.dm(qmat.random_state_vector(n, rng))])
        coords = qmat._pauli_coords(rhos)
        assert coords.shape == (len(rhos), 4**n) and coords.dtype == float
        oracle = np.array([[np.trace(rho @ m).real for m in matrices] for rho in rhos])
        assert np.abs(coords - oracle).max() <= 1e-15
        assert np.abs(qmat._from_pauli_coords(coords, n) - rhos).max() <= 1e-15
        for k, labels in enumerate(qmat.pauli_strings(n)):
            assert qmat._pauli_index(labels) == k
            assert qmat.pauli_expectation(rhos[0], labels) == coords[0, k]
        assert qmat._pauli_coords(np.zeros((0, 2**n, 2**n), complex)).shape == (0, 4**n)


def bits_index(bits):
    """The basis index of a tuple of bits, most significant first."""
    return int("".join(map(str, bits)), 2)


def index_sum_partial_trace(rho, keep):
    """out[i, j] = sum over t of rho[(i, t), (j, t)], the kept bits i and j
    read along ``keep`` and t over the other qubits: the loop oracle of
    ``qmat.partial_trace``."""
    n = qmat.num_qubits(rho)
    order = list(keep) + [q for q in range(n) if q not in keep]
    out = np.zeros((2 ** len(keep),) * 2, dtype=complex)
    for i, j in product(product((0, 1), repeat=len(keep)), repeat=2):
        for t in product((0, 1), repeat=n - len(keep)):
            row, col = (bits_index([dict(zip(order, b + t))[q] for q in range(n)])
                        for b in (i, j))
            out[bits_index(i), bits_index(j)] += rho[row, col]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(1, n), st.integers(0, 2**32 - 1))))
def test_partial_trace_is_the_index_sum_in_any_keep_order(case):
    n, order, k, seed = case
    keep = tuple(order[:k])
    rng = np.random.default_rng(seed)
    rho = qmat.random_density_matrix(n, rng, rank=1 + seed % 2**n)
    # any operator reduces alike, Hermitian or not
    op = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    for matrix in (rho, op):
        gap = qmat.partial_trace(matrix, keep) - index_sum_partial_trace(matrix, keep)
        assert np.abs(gap).max() <= 1e-15 * np.abs(matrix).sum()
    # the reversed reduction has the Pauli coordinates transposed
    block, reverse = (qmat._pauli_coords(qmat.partial_trace(rho, kept)[None]).reshape((4,) * k)
                      for kept in (keep, keep[::-1]))
    assert np.abs(reverse - block.T).max() <= 1e-15


def test_random_generators_reproducible():
    a = qmat.random_state_vector(2, np.random.default_rng(3))
    b = qmat.random_state_vector(2, np.random.default_rng(3))
    np.testing.assert_allclose(a, b)
    assert np.linalg.norm(a) == pytest.approx(1, abs=1e-12)
    rho = qmat.random_density_matrix(2, np.random.default_rng(3), rank=2)
    qmat.check_density_matrix(rho)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 2
    u = qmat.random_unitary(4, np.random.default_rng(3))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_fixed_tables_cannot_change_module_constants():
    x_before = qmat.X.copy()
    assert qmat.tensor(qmat.X) is not qmat.X
    single = qmat.tensor(qmat.X)
    single[0, 0] = 7
    # the one-qubit Pauli stack is built from the module's matrices
    stack = qmat._pauli_stack(1)
    assert not np.shares_memory(stack, qmat.X) and stack is qmat._pauli_stack(1)
    with pytest.raises(ValueError):
        stack[1, 0] = 7
    np.testing.assert_array_equal(qmat.X, x_before)
    np.testing.assert_array_equal(qmat._pauli_stack(1)[1], x_before.ravel())


def test_entropy_bits_of_a_stack_matches_each_column():
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(4), size=50).T
    probs[3, :10] = 1e-13  # below EIG_ZERO: contributes nothing
    stacked = qmat.entropy_bits(probs)
    assert stacked.shape == (50,)
    assert list(stacked) == [qmat.entropy_bits(col) for col in probs.T]
    with pytest.raises(ValueError, match="below"):
        qmat.entropy_bits(np.array([[0.5, 1.0], [0.5, -1e-6]]))
