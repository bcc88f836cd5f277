"""Dense linear algebra for few-qubit states.

Qubits are named by ``QUBIT_NAMES``.  All states live in the computational
basis with qubit ``a`` as the most significant bit: the four-qubit basis
ket ``|abcd>`` has index ``8a + 4b + 2c + d``.  ``Z|0> = +|0>``, and
``|0>`` encodes the physical ``H`` / ``r`` carriers.  Entropies are in bits.

State vectors are 1-D complex arrays of length ``2**n``; density matrices
are 2-D complex arrays of shape ``(2**n, 2**n)``.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": X, "Y": Y, "Z": Z}
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

QUBIT_NAMES = "abcd"

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)

# eigenvalues and probabilities below EIG_ZERO count as zero (in entropies
# and projections); an eigenvalue more negative than EIG_FLOOR signals an
# invalid state
EIG_ZERO = 1e-12
EIG_FLOOR = -1e-8
# the state checks' tolerance on norm, trace and Hermiticity
ATOL = 1e-9


def num_qubits(obj) -> int:
    """Number of qubits of a ket, density matrix, or plain dimension.

    Raises ValueError if the dimension is not a power of two.
    """
    if isinstance(obj, (int, np.integer)):
        dim = int(obj)
    else:
        arr = np.asarray(obj)
        dim = arr.shape[0] if arr.ndim else 0
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def basis_ket(n: int, index: int) -> np.ndarray:
    """Computational basis ket |index> on n qubits (qubit a = MSB)."""
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def check_state_vector(psi) -> np.ndarray:
    """Validate a ket: 1-D, power-of-two length, unit norm within ATOL."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    num_qubits(psi)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"state vector norm {norm} differs from 1 beyond {ATOL}")
    return psi


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: finite, Hermitian and of unit trace within
    ATOL, spectrum >= EIG_FLOOR."""
    return _check_matrix(rho, ATOL, physical=True)


def _check_matrix(rho, trace_atol: float, physical: bool) -> np.ndarray:
    """:func:`check_density_matrix` with a trace tolerance of ``trace_atol``,
    and no spectrum check unless ``physical``; files share it."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    num_qubits(rho)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has an entry that is not a finite number")
    if np.abs(rho - rho.conj().T).max() > ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_atol:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond {trace_atol}")
    if physical:
        lo = float(np.linalg.eigvalsh(rho).min())
        if lo < EIG_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {lo} below {EIG_FLOOR}")
    return rho


def check_state(state) -> np.ndarray:
    """Validate a ket (1-D input) or a density matrix (2-D input)."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return check_state_vector(state)
    return check_density_matrix(state)


def dm(psi) -> np.ndarray:
    """Outer product |psi><psi| of a ket."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def tensor(*factors) -> np.ndarray:
    """Kronecker product of the given vectors or matrices, left to right.

    The leftmost factor owns the most significant qubits, matching the
    ``|abcd>`` index convention.
    """
    if not factors:
        raise ValueError("tensor needs at least one factor")
    out = np.array(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def frozen_cache(fn):
    """Cache a function of hashable arguments that builds a fixed array or a
    tuple of them; the cached arrays are read-only, so no caller can change
    them for the next."""
    @lru_cache(maxsize=1024)
    @wraps(fn)
    def cached(*args, **kwargs):
        out = fn(*args, **kwargs)
        for array in out if isinstance(out, tuple) else (out,):
            array.setflags(write=False)
        return out
    return cached


def check_pauli(labels: str) -> str:
    """A Pauli string of one or more letters I, X, Y, Z, or ValueError."""
    if not isinstance(labels, str) or not labels or any(l not in PAULI for l in labels):
        raise ValueError(f"bad Pauli string {labels!r}")
    return labels


def pauli_strings(n: int) -> list[str]:
    """All 4**n Pauli strings in lexicographic order over I < X < Y < Z."""
    return ["".join(p) for p in product("IXYZ", repeat=n)]


# a Pauli string read as a base-4 numeral is its place in pauli_strings
_BASE4 = str.maketrans("IXYZ", "0123")


def _pauli_index(labels: str) -> int:
    """The place of a checked Pauli string in :func:`pauli_strings`."""
    return int(check_pauli(labels).translate(_BASE4), 4)


@frozen_cache
def _pauli_stack(n: int) -> np.ndarray:
    """Row k is the flattened matrix of ``pauli_strings(n)[k]``: the Kronecker
    products of the single-qubit Paulis, one qubit appended at a time."""
    single = stack = np.stack([PAULI[l] for l in "IXYZ"])
    for _ in range(n - 1):
        d = 2 * stack.shape[1]
        stack = (stack[:, None, :, None, :, None]
                 * single[None, :, None, :, None, :]).reshape(-1, d, d)
    return stack.reshape(4**n, -1)


def _pauli_coords(rhos: np.ndarray) -> np.ndarray:
    """(R, 4**n) Pauli coordinates Re Tr[rho P] = Re sum conj(rho) * P of an
    (R, 2**n, 2**n) stack, P in ``pauli_strings`` order."""
    d = rhos.shape[-1]
    return (rhos.conj().reshape(len(rhos), 1, d * d) @ _pauli_stack(num_qubits(d)).T)[:, 0].real


def _from_pauli_coords(coords: np.ndarray, n: int) -> np.ndarray:
    """(R, 2**n, 2**n) matrices 2**-n sum_P coords[r, P] P: the inverse map."""
    return (coords[:, None] @ _pauli_stack(n)).reshape(len(coords), 2**n, 2**n) / 2**n


def pauli_expectation(rho, labels: str) -> float:
    """<P> = Re Tr[rho P] for a Pauli string."""
    rho = check_density_matrix(rho)
    if num_qubits(rho) != len(labels):
        raise ValueError("Pauli string length does not match qubit count")
    return float(_pauli_coords(rho[None])[0, _pauli_index(labels)])


def permute_qubits(state, perm) -> np.ndarray:
    """Reorder qubits so that output qubit i is input qubit perm[i]."""
    state = np.asarray(state, dtype=complex)
    n = num_qubits(state)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    if state.ndim == 1:
        return state.reshape((2,) * n).transpose(perm).reshape(-1)
    axes = perm + [n + p for p in perm]
    return state.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out all qubits not listed in ``keep``.

    Parameters
    ----------
    rho : array, shape (2**n, 2**n)
        Density matrix.
    keep : sequence of int
        Qubit indices to retain; the output qubit order follows the order
        given here, so ``keep=[2, 0]`` both reduces and reorders.

    Returns
    -------
    array, shape (2**k, 2**k)
    """
    rho = np.asarray(rho, dtype=complex)
    n = num_qubits(rho)
    keep = list(keep)
    if len(set(keep)) != len(keep) or not keep:
        raise ValueError("keep must be a nonempty set of distinct qubit indices")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"qubit index out of range for {n} qubits: {keep}")
    return _reduce(rho, (tuple(keep),))[0]


@frozen_cache
def _kept_index(n: int, keeps: tuple) -> np.ndarray:
    """(K, 2**k, 2**(n - k)) basis indices: [j, i, t] is the index at which the
    qubits keeps[j] read i in that order and the other qubits read t."""
    qubits = np.arange(2**n).reshape((2,) * n)
    return np.stack([qubits.transpose([*keep, *(q for q in range(n) if q not in keep)])
                     .reshape(2 ** len(keep), -1) for keep in keeps])


def _reduce(rhos, keeps):
    """``partial_trace`` of a trusted (..., 2**n, 2**n) stack to each of K
    keeps of one length k, (..., K, 2**k, 2**k): each entry the sum over t of
    the entries whose rows and columns read t on the traced qubits."""
    index = _kept_index(num_qubits(rhos.shape[-1]), keeps)
    return rhos[..., index[:, :, None], index[:, None]].sum(-1)


def entropy_bits(probs):
    """Shannon entropy in bits of a probability vector, or an array of the
    entropies of the columns of a (k, B) stack.

    Values in [-1e-8, 0) clamp to zero, values below 1e-12 contribute
    nothing, and anything under -1e-8 raises (invalid state).
    """
    x = np.real(np.asarray(probs))
    if np.any(x < EIG_FLOOR):
        raise ValueError(f"probability {np.min(x)} below {EIG_FLOOR}")
    total = 0.0
    for term in np.where(x < EIG_ZERO, 0.0, x * np.log2(np.maximum(x, EIG_ZERO))):
        total = total - term
    return total if np.ndim(total) else float(total)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits of a density matrix."""
    rho = check_density_matrix(rho)
    return entropy_bits(np.linalg.eigvalsh(rho))


def fidelity_pure(target, rho) -> float:
    """Fidelity <psi|rho|psi> of a state against a pure target.

    ``rho`` may be a density matrix or a ket (in which case the squared
    overlap is returned).  The result is real within 1e-9 by construction;
    the imaginary residue is checked and discarded.
    """
    psi = check_state_vector(target)
    other = np.asarray(rho, dtype=complex)
    if other.ndim == 1:
        val = abs(np.vdot(psi, other)) ** 2 + 0j
    else:
        if other.shape[0] != psi.shape[0]:
            raise ValueError("target and state dimensions differ")
        val = np.vdot(psi, other @ psi)
    if abs(val.imag) > 1e-9:
        raise ValueError(f"fidelity has imaginary part {val.imag}")
    return float(min(max(val.real, 0.0), 1.0))


def _outcome_ket(outcome) -> np.ndarray:
    if isinstance(outcome, (int, np.integer)):
        if outcome not in (0, 1):
            raise ValueError("integer outcome must be 0 or 1")
        return KET0 if outcome == 0 else KET1
    v = np.asarray(outcome, dtype=complex)
    if v.shape != (2,):
        raise ValueError("outcome ket must have shape (2,)")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > ATOL:
        raise ValueError("outcome ket must be normalized")
    return v


def project(state, assignments):
    """Project chosen qubits onto single-qubit outcomes and renormalize.

    Parameters
    ----------
    state : ket or density matrix
    assignments : iterable of (qubit, outcome)
        ``outcome`` is 0, 1, or a normalized single-qubit ket.  Qubits must
        be distinct.  The surviving qubits keep their relative order.
        An outcome with probability at or below EIG_ZERO (1e-12) raises
        ValueError.

    Returns
    -------
    (post_state, probability)
        A ket for ket input, a density matrix for matrix input.
    """
    state = np.asarray(state, dtype=complex)
    n = num_qubits(state)
    assignments = list(assignments)
    qubits = [q for q, _ in assignments]
    if len(set(qubits)) != len(qubits):
        raise ValueError("projection qubits must be distinct")
    if any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"qubit index out of range for {n} qubits: {qubits}")
    bras = {q: _outcome_ket(v).conj()[None, :] for q, v in assignments}
    factors = [bras.get(q, I2) for q in range(n)]
    B = tensor(*factors)
    if state.ndim == 1:
        post = B @ state
        prob = float(np.real(np.vdot(post, post)))
        if prob <= EIG_ZERO:
            raise ValueError(f"projection outcome has probability {prob}")
        return post / np.sqrt(prob), prob
    post = B @ state @ B.conj().T
    prob = float(np.trace(post).real)
    if prob <= EIG_ZERO:
        raise ValueError(f"projection outcome has probability {prob}")
    return post / prob, prob


def random_state_vector(n: int, rng) -> np.ndarray:
    """Haar-random pure state on n qubits."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_density_matrix(n: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state: normalized G G+ with Ginibre G of given rank."""
    d = 2**n
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
