"""State engineering: source state, gate circuit, Dicke/W/Bell constructors.

Qubits are named a, b, c, d (a = most significant bit).  The photonic
carriers map to the abstract basis as H -> 0, V -> 1 (polarization) and
r -> 0, l -> 1 (momentum).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from . import qmat
from .qmat import I2, KET0, KET1, QUBIT_NAMES, H, X, Z, tensor


@dataclass(frozen=True)
class GateSpec:
    """One gate of a circuit: kind in {"H", "Z", "CX", "CZbar"}.

    ``CX`` applies X to the target when the control is |1>; ``CZbar``
    applies Z to the target when the control is |0>.
    """

    kind: str
    target: int
    control: int | None = None


def _embed_single(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    ops = [I2] * n
    ops[qubit] = u
    return tensor(*ops)


def _embed_controlled(u: np.ndarray, control: int, target: int, n: int,
                      control_value: int) -> np.ndarray:
    if control == target:
        raise ValueError("control and target must differ")
    proj_active = np.outer(KET1, KET1) if control_value else np.outer(KET0, KET0)
    proj_idle = np.outer(KET0, KET0) if control_value else np.outer(KET1, KET1)
    idle = [I2] * n
    idle[control] = proj_idle
    active = [I2] * n
    active[control] = proj_active
    active[target] = u
    return tensor(*idle) + tensor(*active)


@qmat.frozen_cache
def gate_unitary(gate: GateSpec, n: int) -> np.ndarray:
    """Full 2**n unitary for one gate; cached, so it comes read-only."""
    if not 0 <= gate.target < n:
        raise ValueError(f"target {gate.target} out of range for {n} qubits")
    if gate.kind in ("H", "Z"):
        u = _embed_single(H if gate.kind == "H" else Z, gate.target, n)
    elif gate.control is None or not 0 <= gate.control < n:
        raise ValueError(f"gate {gate.kind} needs an in-range control qubit")
    elif gate.kind == "CX":
        u = _embed_controlled(X, gate.control, gate.target, n, control_value=1)
    elif gate.kind == "CZbar":
        u = _embed_controlled(Z, gate.control, gate.target, n, control_value=0)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return u


# Gate sequence mapping the hyperentangled source state onto the two-excitation
# Dicke state, in application order (first gate acts first).  Qubits: a=0, b=1,
# c=2, d=3.
DICKE_CIRCUIT: tuple[GateSpec, ...] = (
    GateSpec("H", target=2),
    GateSpec("H", target=3),
    GateSpec("CX", target=0, control=2),
    GateSpec("CX", target=1, control=3),
    GateSpec("CZbar", target=0, control=2),
    GateSpec("CZbar", target=1, control=3),
    GateSpec("Z", target=0),
)


def apply_circuit(psi, gates) -> np.ndarray:
    """Apply a gate sequence (first entry first) to a ket."""
    psi = qmat.check_state_vector(psi)
    n = qmat.num_qubits(psi)
    for gate in gates:
        psi = gate_unitary(gate, n) @ psi
    return psi


def ket_xi() -> np.ndarray:
    """Four-qubit source state: (|0001> - |0010> + 2|1101>) / sqrt(6).

    Polarization qubits a, b carry |00>/|11>; momentum qubits c, d carry the
    (|01> - |10>) singlet on the |00> branch and |01> on the |11> branch.
    """
    psi = np.zeros(16, dtype=complex)
    psi[0b0001] = 1 / sqrt(6)
    psi[0b0010] = -1 / sqrt(6)
    psi[0b1101] = 2 / sqrt(6)
    return psi


def circuit_to_dicke(psi=None) -> np.ndarray:
    """Run the engineering circuit; defaults to the source state as input."""
    if psi is None:
        psi = ket_xi()
    return apply_circuit(psi, DICKE_CIRCUIT)


def dicke(n: int, k: int) -> np.ndarray:
    """Symmetric Dicke state of n qubits with k excitations.

    Equal superposition of all basis kets of Hamming weight k, with
    amplitude 1/sqrt(C(n, k)).
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"invalid Dicke parameters n={n}, k={k}")
    psi = np.zeros(2**n, dtype=complex)
    amp = 1 / sqrt(comb(n, k))
    for ones in combinations(range(n), k):
        index = sum(1 << (n - 1 - q) for q in ones)
        psi[index] = amp
    return psi


def w_state() -> np.ndarray:
    """Three-qubit single-excitation W state."""
    return dicke(3, 1)


def psi_plus() -> np.ndarray:
    """Two-qubit triplet Bell state (|01> + |10>) / sqrt(2)."""
    return dicke(2, 1)


def noisy_dicke(p: float) -> np.ndarray:
    """White-noise model: p |D(2,4)><D(2,4)| + (1 - p) I/16.

    The fidelity against the pure Dicke state is p + (1 - p)/16.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p={p} outside [0, 1]")
    return p * qmat.dm(dicke(4, 2)) + (1 - p) * np.eye(16, dtype=complex) / 16


def reduce_state(state, assignments, min_prob: float = 1e-12):
    """Project qubits onto outcomes; pure input yields a ket, mixed a matrix.

    Thin workflow wrapper over :func:`dickekw.qmat.project` that accepts
    either a ket or a density matrix and returns ``(post_state, probability)``.
    """
    return qmat.project(qmat.check_state(state), assignments, min_prob=min_prob)


def parse_projections(text: str, n: int):
    """Parse a projection list such as "d=1,c=0" into (qubit, outcome) pairs."""
    assignments = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            name, value = part.split("=")
            qubit = QUBIT_NAMES.index(name.strip())
            outcome = int(value)
        except (ValueError, IndexError):
            raise ValueError(f"bad projection {part!r}; expected e.g. d=1")
        if qubit >= n:
            raise ValueError(f"qubit {name!r} out of range for {n} qubits")
        if outcome not in (0, 1):
            raise ValueError(f"projection outcome must be 0 or 1, got {value!r}")
        assignments.append((qubit, outcome))
    if not assignments:
        raise ValueError("empty projection list")
    return assignments


STATE_NAMES = ("xi", "dicke-4-2", "w1", "w2", "psi-plus", "noisy-dicke:p=<float>")


def state_by_name(name: str) -> np.ndarray:
    """Named state for the CLI: ket for pure states, matrix for mixed ones."""
    if name == "xi":
        return ket_xi()
    if name == "dicke-4-2":
        return dicke(4, 2)
    if name == "w1":
        return dicke(3, 1)
    if name == "w2":
        return dicke(3, 2)
    if name == "psi-plus":
        return psi_plus()
    if name.startswith("noisy-dicke:"):
        arg = name.split(":", 1)[1]
        if not arg.startswith("p="):
            raise ValueError(f"bad name {name!r}; expected noisy-dicke:p=<float>")
        return noisy_dicke(float(arg[2:]))
    raise ValueError(f"unknown state {name!r}; known: {', '.join(STATE_NAMES)}")
