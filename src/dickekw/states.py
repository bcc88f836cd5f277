"""State engineering: source state, gate circuit, Dicke and Bell constructors.

Qubits are named a, b, c, d (a = most significant bit).  The photonic
carriers map to the abstract basis as H -> 0, V -> 1 (polarization) and
r -> 0, l -> 1 (momentum).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from . import io, qmat
from .qmat import I2, H, X, Z, tensor


@dataclass(frozen=True)
class GateSpec:
    """One gate of a circuit: kind in {"H", "Z", "CX", "CZbar"}.

    ``CX`` applies X to the target when the control is |1>; ``CZbar``
    applies Z to the target when the control is |0>.
    """

    kind: str
    target: int
    control: int | None = None


# each gate kind's single-qubit operator and the control value that applies it
# (None for a gate without a control)
_GATES = {"H": (H, None), "Z": (Z, None), "CX": (X, 1), "CZbar": (Z, 0)}


def gate_unitary(gate: GateSpec, n: int) -> np.ndarray:
    """Full 2**n unitary for one gate, checked, then built once per kind, qubits and n
    by a cache, so it comes read-only."""
    if not qmat._whole(n, 1):
        raise ValueError(f"gate_unitary needs a qubit count n >= 1, an int, got n={n!r}")
    if not (isinstance(gate.kind, str) and gate.kind in _GATES):
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    qubits = (gate.target,) if _GATES[gate.kind][1] is None else (gate.control, gate.target)
    if qmat._qubits(qubits, n) is None:
        raise ValueError(f"gate {gate.kind} needs distinct qubit indices below {n}, "
                         f"got target {gate.target!r} and control {gate.control!r}")
    return _gate_unitary(gate.kind, tuple(map(int, qubits)), int(n))


@qmat.frozen_cache
def _gate_unitary(kind: str, qubits: tuple, n: int) -> np.ndarray:
    """The unitary of a checked kind on qubits (target,) or (control, target), as ints: u
    on the target, or the identity where the control does not read the kind's value
    plus u on the target where it does."""
    u, value = _GATES[kind]
    active = [I2] * n
    active[qubits[-1]] = u
    if value is None:
        return tensor(*active)
    idle = [I2] * n
    idle[qubits[0]], active[qubits[0]] = np.diag([value, 1 - value]), np.diag([1 - value, value])
    return tensor(*idle) + tensor(*active)


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
    if not (qmat._whole(n, 1) and qmat._whole(k, 0, n)):
        raise ValueError(f"invalid Dicke parameters n={n}, k={k}")
    psi = np.zeros(2**n, dtype=complex)
    amp = 1 / sqrt(comb(n, k))
    for ones in combinations(range(n), k):
        index = sum(1 << (n - 1 - q) for q in ones)
        psi[index] = amp
    return psi


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


# projects qubits onto outcomes: (post-measurement density matrix, probability)
reduce_state = qmat.project


def parse_projections(text: str, n: int):
    """Parse a projection list such as "d=1,c=0" into (qubit, outcome) pairs."""
    assignments = []
    for part in filter(None, map(str.strip, text.split(","))):
        name, _, value = part.partition("=")
        if value not in ("0", "1"):
            raise ValueError(f"bad projection {part!r}; expected a qubit, '=' and 0 or 1, e.g. d=1")
        assignments.append((qmat._qubit_name(name, n), int(value)))
    if not assignments:
        raise ValueError("empty projection list")
    return assignments


_NAMED_STATES = {"xi": ket_xi, "dicke-4-2": lambda: dicke(4, 2), "w1": lambda: dicke(3, 1),
                 "w2": lambda: dicke(3, 2), "psi-plus": psi_plus}
STATE_NAMES = (*_NAMED_STATES, "noisy-dicke:p=<float>")


def state_by_name(name: str) -> np.ndarray:
    """Named state for the CLI: ket for pure states, matrix for mixed ones."""
    if name in _NAMED_STATES:
        return _NAMED_STATES[name]()
    if name.startswith("noisy-dicke:"):
        try:  # p reads as numbers in files do; text without the p= prefix is no number
            p = io._number(name.removeprefix("noisy-dicke:p="))
        except ValueError:
            raise ValueError(f"bad name {name!r}; expected noisy-dicke:p=<float>") from None
        return noisy_dicke(p)
    raise ValueError(f"unknown state {name!r}; known: {', '.join(STATE_NAMES)}")
