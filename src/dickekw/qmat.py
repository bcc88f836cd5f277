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

# a projection outcome of probability at most EIG_ZERO raises; an eigenvalue
# more negative than EIG_FLOOR signals an invalid state
EIG_ZERO = 1e-12
EIG_FLOOR = -1e-8
# the state checks' tolerance on norm, trace and Hermiticity
ATOL = 1e-9


def num_qubits(obj) -> int:
    """Number of qubits of a ket, density matrix, or plain dimension.

    Raises ValueError if the dimension is not a power of two, or for a stack.
    """
    shape = (int(obj),) if isinstance(obj, (int, np.integer)) else np.shape(obj)
    if len(shape) > 2:
        raise ValueError(f"expected one state, got a stack of shape {shape}")
    dim = shape[0] if shape else 0
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _qubits(qubits, n: int):
    """The tuple of an iterable of distinct qubit indices of an n-qubit state, each an int
    or numpy integer, not a bool, in range(n), else None: the one rule for a qubit index."""
    try:
        qubits = tuple(qubits)
    except TypeError:  # not iterable
        return None
    valid = all(isinstance(q, (int, np.integer)) and not isinstance(q, bool) and 0 <= q < n
                for q in qubits)
    return qubits if valid and len(set(qubits)) == len(qubits) else None


def check_state_vector(psi) -> np.ndarray:
    """Validate a ket: 1-D, power-of-two length, unit norm within ATOL."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    num_qubits(psi)
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= ATOL:  # a NaN norm fails too
        raise ValueError(f"state vector norm {norm} differs from 1 beyond {ATOL}")
    return psi


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix or a (..., d, d) stack of them: finite, Hermitian and of
    unit trace within ATOL, spectrum >= EIG_FLOOR; a stack's error names the state k."""
    return _check_matrix(rho, ATOL, physical=True)


def _check_matrix(rho, trace_atol: float, physical: bool) -> np.ndarray:
    """:func:`check_density_matrix` with a trace tolerance of ``trace_atol``,
    and no spectrum check unless ``physical``; files share it."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ValueError("density matrix must be square")
    num_qubits(rho.shape[-1])
    finite = np.logical_and.reduce(np.isfinite(rho), (-2, -1))
    # zeros for a state that is not finite: inf - inf would warn and a NaN stop eigvalsh
    clean = np.where(finite[..., None, None], rho, 0)
    tr = clean.trace(0, -2, -1).real
    lo = np.minimum.reduce(np.linalg.eigvalsh(clean), -1) if physical else 0 * tr
    passes = [finite,
              np.maximum.reduce(abs(clean - clean.conj().swapaxes(-2, -1)), (-2, -1)) <= ATOL,
              abs(tr - 1.0) <= trace_atol, lo >= EIG_FLOOR]
    ok = passes[0] & passes[1] & passes[2] & passes[3]
    if not np.logical_and.reduce(ok, None):
        k = np.argmin(ok)
        message = ("density matrix has an entry that is not a finite number",
                   "density matrix is not Hermitian within tolerance",
                   f"density matrix trace {np.ravel(tr)[k]} differs from 1 beyond {trace_atol}",
                   f"density matrix has eigenvalue {np.ravel(lo)[k]} below {EIG_FLOOR}",
                   )[[np.ravel(test)[k] for test in passes].index(False)]
        raise ValueError(message if rho.ndim == 2 else f"state {k}: {message}")
    return rho


def check_state(state) -> np.ndarray:
    """The density matrix of a checked ket (1-D input) or density matrix (2-D input)."""
    return _state_matrix(state, physical=True)


def _state_matrix(state, physical: bool) -> np.ndarray:
    """The density matrix of a checked ket (1-D input) or matrix, whose spectrum
    goes unchecked unless ``physical``; projections, fidelities and files share it."""
    if np.ndim(state) == 1:
        return dm(check_state_vector(state))
    return check_density_matrix(state) if physical else _check_matrix(state, ATOL, False)


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
    if num_qubits(rho) != len(check_pauli(labels)):
        raise ValueError("Pauli string length does not match qubit count")
    return float(_pauli_coords(rho[None])[0, _pauli_index(labels)])


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out all qubits not listed in ``keep``.

    Parameters
    ----------
    rho : array, shape (2**n, 2**n)
        Density matrix, checked by :func:`check_density_matrix`.
    keep : sequence of int
        Qubit indices to retain; the output qubit order follows the order
        given here, so ``keep=[2, 0]`` both reduces and reorders.

    Returns
    -------
    array, shape (2**k, 2**k)
    """
    rho = check_density_matrix(rho)
    n = num_qubits(rho)
    qubits = _qubits(keep, n)
    if not qubits:
        raise ValueError(f"keep must be one or more distinct qubit indices below {n}, got {keep!r}")
    return _reduce(rho, (qubits,))[0]


@frozen_cache
def _kept_index(n: int, keeps: tuple) -> np.ndarray:
    """(K, 2**k, 2**k, 2**(n - k)) indices into a flattened 2**n x 2**n matrix: [j, i, l, t]
    is the entry whose row reads i and column l on the qubits keeps[j], in that order,
    and both read t on the other qubits."""
    qubits = np.arange(2**n).reshape((2,) * n)
    index = np.stack([qubits.transpose([*keep, *(q for q in range(n) if q not in keep)])
                      .reshape(2 ** len(keep), -1) for keep in keeps])
    return index[:, :, None] * 2**n + index[:, None]


def _reduce(rhos, keeps):
    """``partial_trace`` of a trusted (..., 2**n, 2**n) stack to each of K
    keeps of one length k, (..., K, 2**k, 2**k): each entry the sum over t of
    the entries whose rows and columns read t on the traced qubits."""
    d = rhos.shape[-1]
    flat = rhos.reshape(rhos.shape[:-2] + (d * d,))
    return np.add.reduce(flat[..., _kept_index(num_qubits(d), keeps)], -1)


def _xlog2x(x):
    """log2 x and x log2 x, the latter 0 where x <= 0 (0 log 0 = 0).  Call under errstate."""
    return (log := np.log2(x)), np.where(x > 0, x * log, 0.0)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits of a density matrix: -sum x log2 x over its spectrum,
    0 at x <= 0 (``_xlog2x``), with no cutoff, and +0.0, not -0.0, for a pure state."""
    rho = check_density_matrix(rho)
    num_qubits(rho)  # one state, not a stack
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.0 - float(_xlog2x(np.linalg.eigvalsh(rho))[1].sum())


def fidelity_pure(target, rho) -> float:
    """Fidelity <psi|rho|psi> of a state against a pure target.

    ``rho`` may be a ket (the squared overlap) or a matrix that is finite,
    Hermitian and of unit trace; its spectrum goes unchecked, so a
    linear-inversion estimate is scored too.
    """
    psi = check_state_vector(target)
    rho = _state_matrix(rho, physical=False)
    if rho.shape != (len(psi),) * 2:
        raise ValueError("target and state dimensions differ")
    return float(min(max(np.vdot(psi, rho @ psi).real, 0.0), 1.0))


def _outcome_ket(outcome) -> np.ndarray:
    """The ket of an outcome: 0 or 1 under the qubit-index rule, or a checked one-qubit ket."""
    if np.ndim(outcome) == 0 and _qubits((outcome,), 2):
        return (KET0, KET1)[outcome]
    if np.shape(outcome) != (2,):
        raise ValueError(f"outcome {outcome!r} must be 0, 1 or a one-qubit ket")
    return check_state_vector(outcome)


def project(state, assignments):
    """Project chosen qubits onto single-qubit outcomes and renormalize.

    Parameters
    ----------
    state : ket or density matrix, checked by :func:`check_state`
    assignments : iterable of (qubit, outcome)
        ``outcome`` is 0, 1, or a normalized single-qubit ket.  Qubits must
        be distinct.  The surviving qubits keep their relative order.
        An outcome with probability at or below EIG_ZERO (1e-12) raises
        ValueError.

    Returns
    -------
    (post-measurement density matrix, probability)
    """
    rho = check_state(state)
    n = num_qubits(rho)
    try:
        pairs = [tuple(pair) for pair in assignments]
    except TypeError:  # not iterable, or an item is not
        pairs = None
    if pairs is None or any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"assignments must be (qubit, outcome) pairs, got {assignments!r}")
    qubits = [q for q, _ in pairs]
    if _qubits(qubits, n) is None:
        raise ValueError(f"projection qubits must be distinct indices below {n}, got {qubits}")
    bras = {q: _outcome_ket(v).conj()[None, :] for q, v in pairs}
    B = tensor(*(bras.get(q, I2) for q in range(n)))
    post = B @ rho @ B.conj().T
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
