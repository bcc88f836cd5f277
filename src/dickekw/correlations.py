"""Correlation analysis: entropies, concurrence, classical correlations, and
the monogamy balance S(beta) = J(beta|alpha) + E(beta, gamma).

The residual KW = S - J - E is zero for pure tripartite states (projective
measurements are optimal on the rank-2 reductions involved) and nonnegative
for mixed ones.  J maximizes the entropy reduction of beta over projective
measurements on alpha, parametrized by

    |theta_1> = cos(theta)|0> + e^{i phi} sin(theta)|1>
    |theta_2> = e^{-i phi} sin(theta)|0> - cos(theta)|1>

with theta in [0, pi/2] and phi in [0, 2 pi).
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from dataclasses import astuple, dataclass, replace
from functools import lru_cache, reduce
from itertools import permutations
from math import isfinite, pi

import numpy as np

from . import qmat
from .qmat import PAULI, QUBIT_NAMES


# ---------------------------------------------------------------------------
# Two-qubit entanglement
# ---------------------------------------------------------------------------

def concurrence(rho) -> float:
    """Two-qubit concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the descending singular values of Psi^T (Y x Y) Psi for
    rho = Psi Psi^dagger (Wootters, PRL 80, 2245 (1998)), the square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y) without their rounding error
    on rank-deficient states.
    """
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    return float(_concurrence(rho[None])[0])


def _concurrence(rhos):
    """``concurrence`` of every state of a trusted (..., 4, 4) stack."""
    w, v = np.linalg.eigh(rhos)
    psi = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    lam = np.linalg.svd(psi.swapaxes(-1, -2) @ _YY @ psi, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation in bits from a concurrence value."""
    if not -1e-9 <= c <= 1 + 1e-9:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    return float(_eof(np.array([c]))[0])


def _eof(c):
    """``eof_from_concurrence`` of an array, each value clipped to [0, 1]."""
    return _binary_entropy(1.0, _concurrence_radius(c))


def _concurrence_radius(c):
    """r = sqrt(1 - c^2) of each concurrence clipped to [0, 1]: E = h((1 + r) / 2)."""
    return np.sqrt(1 - np.minimum(np.maximum(c, 0.0), 1.0) ** 2)


def _binary_entropy(alpha, r):
    """alpha h((1 + r / alpha) / 2) in bits, h the binary entropy: ``_outcome_entropy``'s rule."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2 * _outcome_entropy(alpha, r)[2]


def entanglement_of_formation(rho) -> float:
    """Entanglement of formation of a two-qubit state."""
    return eof_from_concurrence(concurrence(rho))


# ---------------------------------------------------------------------------
# Classical correlations J(beta|alpha)
# ---------------------------------------------------------------------------

# the J search (see _min_measured_entropy): the best cell of a _GRID x _GRID
# sweep of (theta, phi) is each state's one start for a trust-region Newton
# polish that stops below _ANGLE_TOL radians or a predicted decrease of _F_TOL
# bits, rounding level.  A larger _CURVATURE_FLOOR makes the steps crawl toward
# a minimum where f is flat to second order.  No state tried takes more than
# 20 steps; _MAX_STEPS only bounds the loop.
_GRID = 16
_ANGLE_TOL = 1e-6
_F_TOL = 4 * np.finfo(float).eps
_CURVATURE_FLOOR = 1e-6
_MAX_STEPS = 50


def _direction_grid():
    """The K = 113 distinct Bloch vectors n (K, 3), theta-major, of the theta <= pi/4 rows of
    the sweep (n and -n being the same measurement), the theta = 0 row's pole once, and
    their (4, 2K) outcome columns (1, n) then (1, -n)."""
    thetas = np.linspace(0.0, pi / 2, _GRID)[: (_GRID + 1) // 2]
    phis = np.linspace(0.0, 2 * pi, _GRID, endpoint=False)
    tt, pp = (m.ravel() for m in np.meshgrid(thetas, phis, indexing="ij"))
    n = np.delete(np.stack([np.sin(2 * tt) * np.cos(pp), np.sin(2 * tt) * np.sin(pp),
                            np.cos(2 * tt)], axis=-1), np.s_[1:_GRID], 0)
    return n, np.vstack([np.ones(2 * len(n)), np.concatenate([n, -n]).T])


_SWEEP_N, _SWEEP_COLUMNS = _direction_grid()
_YY = np.kron(PAULI["Y"], PAULI["Y"])
_EYE3, _EZ = np.eye(3), np.array([0.0, 0.0, 1.0])
_CURVE = 1 / (8 * np.log(2))  # the second derivatives' factor, in bits
# a frame's first column, then its rows from a reflection's rows (u, w, m)
_FRAME = np.array([[1.0, 0, 0, 1], [1, 0, 0, -1], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
# (alpha+-, r+-) to lambda = (alpha, (alpha + r) / 2, (alpha - r) / 2) of s = +1, -1
_LAMBDAS = np.kron(np.eye(2), [[1, 0.5, 0.5], [0, 0.5, -0.5]])[[0, 2, 1, 3]]
_SHARES = np.array([[0.5], [-0.5], [-0.5]] * 2)  # lambda log2 lambda to f
# (log2 lambda, _CURVE / lambda) to C, L and f_r of _newton_terms
_DERIVATIVES = np.zeros((12, 14))
_DERIVATIVES[6:, 0] = [4, -1, -1] * 2
_DERIVATIVES[6:9, [1, 3]] = _DERIVATIVES[9:, [2, 6]] = [[0], [-1], [1]]
_DERIVATIVES[6:9, 4] = _DERIVATIVES[9:, 8] = [0, -1, -1]
_DERIVATIVES[:6, 9] = np.array([2, -1, -1, -2, 1, 1]) / 4
_DERIVATIVES[1:3, [10, 12]] = _DERIVATIVES[4:6, [13]] = [[-0.25], [0.25]]
_DERIVATIVES[4:6, 11] = [0.25, -0.25]
_HALVES = np.array([[0.5, 0.5], [0, 0], [0, 0], [0.5, -0.5]])  # H to (mid, half)


def _outcome_entropy(alpha, r):
    """lambda = (alpha, lambda+, lambda-) on a new axis 0, its log2, and each
    outcome's share (alpha log alpha - lambda+ log lambda+ - lambda- log
    lambda-) / 2 in bits of the measured entropy, lambda+- = (alpha +- r) / 2
    being the eigenvalues of the state it leaves on beta, unnormalized."""
    lam = np.empty((3,) + r.shape)
    lam[0], lam[1], lam[2] = alpha, alpha + r, alpha - r
    lam[1:] *= 0.5
    log, xlog = qmat._xlog2x(lam)
    return lam, log, (xlog[0] - xlog[1] - xlog[2]) * 0.5


def _measured_entropy(coords, columns):
    """Entropy of beta left by measuring alpha along K directions, (M, K):
    coords^T (see ``_newton_terms``) times the outcome column (1, s n) of
    ``columns`` (4, 2K) is the outcome's (alpha, beta).  Call under errstate."""
    ab = coords.swapaxes(1, 2) @ columns
    beta = ab[:, 1:]
    f = _outcome_entropy(ab[:, 0], np.sqrt(np.add.reduce(beta * beta, 1)))[2]
    return np.add.reduce(f.reshape(len(f), 2, columns.shape[1] // 2), 1)


def _frame(n):
    """Frames (M, 5, 4) (1, m), (1, -m), (0, m), (0, u), (0, w) at unit n (M, 3), (u, w, m)
    the rows of the Householder reflection of e_z to m = -sign(n_z) n."""
    v = n + np.copysign(_EZ, n[:, 2:])
    out = np.empty((len(n), 5, 4))
    out[..., 0] = _FRAME[:, 0]
    np.matmul(_FRAME[:, 1:], _EYE3 - v[:, :, None] * (v / abs(v[:, 2:]))[:, None], out=out[..., 1:])
    return out


_SWEEP_FRAME = _frame(_SWEEP_N)


def _newton_terms(coords, frame):
    """f (M,), its gradient (M, 2) and Riemannian Hessian (M, 2, 2) in the basis (u, w)
    at the m of frames (M, 5, 4), for Pauli coordinates [[1, b], [a, T]] (M, 4, 4).  The
    shares of alpha = 1 + s a.m, r = |b + s T^T m| (s = +-1) pull back through z_d =
    (a.d, unit+ . T^T d, unit- . T^T d): L . z_d and z_d^T C z_e + (sum_s f_r / r) T^T d
    . T^T e, L and C linear in log2 lambda and 1 / lambda.  Call under errstate."""
    m = len(frame)
    v = frame @ coords  # (alpha, beta) of s = +1, -1, then (a.d, T^T d), d = m, u, w
    gram = v[..., 1:] @ v[..., 1:].swapaxes(1, 2)
    ar = np.concatenate((v[:, :2, 0], np.sqrt(gram.reshape(m, 25)[:, :7:6])), 1)
    lam = ar @ _LAMBDAS
    log, xlog = qmat._xlog2x(lam)
    coef = (np.concatenate((log, _CURVE / lam), 1)[:, None] @ _DERIVATIVES)[:, 0]
    f = xlog[:, None] @ _SHARES
    z = np.concatenate((v[:, None, 2:, 0], gram[:, :2, 2:] / ar[:, 2:, None]), 1)
    f_r_by_r = coef[:, 12:] / ar[:, 2:]
    coef[:, 4:9:4] -= f_r_by_r
    cz = coef[:, :12].reshape(m, 4, 3) @ z  # C z, then the gradient along m, u, w
    hess = z[:, :, 1:].swapaxes(1, 2) @ cz[:, :3, 1:]
    hess += (f_r_by_r[:, :1] + f_r_by_r[:, 1:])[..., None] * gram[:, 3:, 3:]
    hess.reshape(m, 4)[:, ::3] -= cz[:, 3, :1]  # the sphere's curvature
    return f[:, 0, 0], cz[:, 3, 1:].copy(), hess


def _newton_step(grad, hess, radius):
    """The Newton step, curvature floored at ``_CURVATURE_FLOOR`` and length capped
    at ``radius``, its length and its predicted decrease."""
    mid, half = (hess.reshape(-1, 4) @ _HALVES).T
    gap = np.hypot(half, hess[:, 0, 1])
    shifted = np.maximum(mid, _CURVATURE_FLOOR + gap)
    # (H + shift)^-1 g = ((tr H + shift) g - H g) / det(H + shift)
    step = (hess @ grad[..., None])[..., 0] - (shifted + mid)[:, None] * grad
    step /= ((shifted - gap) * (shifted + gap))[:, None]
    length = np.hypot(step[:, 0], step[:, 1])
    step *= np.minimum(1.0, radius / length)[:, None]
    change = step[:, None] @ (grad + (hess @ step[..., None])[..., 0] / 2)[..., None]
    return step, np.minimum(length, radius), -change[:, 0, 0]


def _min_measured_entropy(coords):
    """Min over measurements n on alpha of the entropy left on beta, and the minimizing n,
    for the Pauli coordinates (M, 4, 4) of trusted pairs: one product with the outcome
    columns sweeps the grid; ``_polish`` polishes each pair's best cell."""
    with np.errstate(all="ignore"):
        f = _measured_entropy(coords, _SWEEP_COLUMNS)
        return _polish(coords, _SWEEP_FRAME[np.argmin(f, axis=1)])


def _polish(coords, frame):
    """f (M,) and direction (M, 3) that trust-region Newton steps on the sphere reach
    from frames (M, 5, 4).  A step is taken only if f does not rise, else the radius
    becomes a quarter of the step.  A row stops, and waits, once its step or radius is
    below ``_ANGLE_TOL`` or its next step's predicted decrease is below ``_F_TOL`` or NaN.
    Call under errstate."""
    live, f_out, n_out = np.arange(len(frame)), np.empty(len(frame)), np.empty((len(frame), 3))
    moved = radius = np.full(len(frame), 2 * pi / _GRID)
    f, grad, hess = _newton_terms(coords, frame)
    step, length, pred = _newton_step(grad, hess, radius)
    for _ in range(_MAX_STEPS):
        keep = ((moved >= _ANGLE_TOL) & (pred > _F_TOL)).nonzero()[0]
        if len(keep) < len(live):
            f_out[live], n_out[live] = f, frame[:, 2, 1:]
            if not len(keep):
                return f_out, n_out
            live, coords, frame, radius, f, grad, hess, step, length = (
                v.take(keep, 0) for v in (live, coords, frame, radius, f, grad, hess, step, length))
        cand = frame[:, 2, 1:] + (step[:, None] @ frame[:, 3:, 1:])[:, 0]
        frame_c = _frame(cand / np.hypot(1.0, length)[:, None])
        f_c, grad_c, hess_c = _newton_terms(coords, frame_c)
        up, moved = f_c <= f, length
        if np.count_nonzero(up) < len(up):
            radius = np.where(up, radius, length / 4)
            moved = np.where(up, length, radius)
            for new, old in (f_c, f), (grad_c, grad), (hess_c, hess), (frame_c, frame):
                new[~up] = old[~up]
        f, grad, hess, frame = f_c, grad_c, hess_c, frame_c
        step, length, pred = _newton_step(grad, hess, radius)
    f_out[live], n_out[live] = f, frame[:, 2, 1:]
    return f_out, n_out


def _direction_of(n):
    """theta (M,) and phi in [0, 2 pi) of the Bloch vectors n (M, 3), each
    read as n or -n, the same measurement: the one whose first nonzero
    component of (n_z, n_y, n_x) is positive, so that theta <= pi/4."""
    x, y, z = n.T
    lead = np.where(z != 0, z, np.where(y != 0, y, x))
    n = np.where(lead[:, None] < 0, -n, n)
    return (0.5 * np.arccos(np.minimum(n[:, 2], 1.0)),
            np.arctan2(n[:, 1], n[:, 0]) % (2 * pi))


def classical_correlations(rho, measured: int = 0):
    """Classical correlations of a two-qubit state.

    J = S(beta) - min over projective measurements on alpha of the average
    conditional entropy of beta, a closed form in the measurement's Bloch
    vector n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta).  The
    minimum is located on the theta <= pi/4 half of a fixed 16 x 16 sweep
    of (theta, phi) (ties toward smaller theta, then smaller phi).  Its best
    cell is polished by trust-region Newton steps on the sphere, with the
    closed-form gradient and Hessian, until a step or the trust radius is
    below 1e-6 rad or the predicted decrease is at rounding level.

    Parameters
    ----------
    rho : array, shape (4, 4)
    measured : int
        Index of the measured qubit alpha (0 or 1).

    Returns
    -------
    (J, (theta, phi))
        J in bits and the optimal direction's angles, as in ``KWReport``.
    """
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("classical correlations are defined for two qubits")
    if not qmat._qubits((measured,), 2):
        raise ValueError("measured qubit must be 0 or 1")
    coords = qmat._pauli_coords(qmat._reduce(rho, ((measured, 1 - measured),))).reshape(1, 4, 4)
    (cond,), n = _min_measured_entropy(coords)
    (theta,), (phi,) = _direction_of(n)
    b = coords[:, 0, 1:]
    (s_beta,) = _binary_entropy(coords[:, 0, 0], np.sqrt(np.add.reduce(b * b, 1)))
    return float(s_beta - cond), (float(theta), float(phi))


# ---------------------------------------------------------------------------
# Exact monogamy evaluation
# ---------------------------------------------------------------------------

@dataclass
class KWReport:
    """One monogamy evaluation: KW = S - J - E for a (beta|alpha, gamma) split."""

    assignment: str
    S: float
    J: float
    E: float
    KW: float
    method: str
    sigma: float | None = None
    theta_opt: float | None = None
    phi_opt: float | None = None
    clipped_frac: float | None = None


def parse_assignment(text: str):
    """Parse "b|a,c" into qubit indices (alpha, beta, gamma)."""
    try:
        beta_part, rest = text.split("|")
        alpha_part, gamma_part = rest.split(",")
        idx = tuple(map(qmat._qubit_name, (alpha_part, beta_part, gamma_part)))
    except ValueError:
        raise ValueError(f"bad assignment {text!r}; expected e.g. b|a,c")
    if len(set(idx)) != 3:
        raise ValueError(f"assignment {text!r} must name three distinct qubits")
    return idx


def format_assignment(alpha: int, beta: int, gamma: int) -> str:
    return f"{QUBIT_NAMES[beta]}|{QUBIT_NAMES[alpha]},{QUBIT_NAMES[gamma]}"


def kw_exact(rho, assignment=(0, 1, 2)) -> KWReport:
    """Exact monogamy residual of a three-qubit state.

    Parameters
    ----------
    rho : array, shape (8, 8)
        Three-qubit density matrix.
    assignment : str or (alpha, beta, gamma)
        Either "b|a,c" style or a tuple of distinct qubit indices: J is
        computed for measurements on alpha, the entropy and the
        entanglement of formation belong to beta and (beta, gamma).
    """
    return _kw_reports(_three_qubit(rho)[None], (_split(assignment),))[0][0]


def kw_exact_many(rhos, assignment=(0, 1, 2)) -> list[KWReport]:
    """``kw_exact`` of each state of a sequence or (B, 8, 8) stack in one array pass,
    alike bit for bit (500 in 20-24 ms); an invalid state fails with its index."""
    return [row[0] for row in _kw_reports(_three_qubit(rhos, many=True), (_split(assignment),))]


def kw_all_permutations(rho):
    """Exact reports for all six (alpha, beta, gamma) splits plus the mean KW."""
    reports = _kw_reports(_three_qubit(rho)[None], tuple(permutations(range(3))))[0]
    return reports, sum(r.KW for r in reports) / len(reports)


def _three_qubit(rhos, many: bool = False):
    """A checked three-qubit state or, if ``many``, (B, 8, 8) stack: an array of that shape
    as it is, else one built from a sequence of them."""
    if isinstance(rhos, np.ndarray) and rhos.shape[many:] == (8, 8):
        return qmat.check_density_matrix(rhos)
    rhos = list(rhos) if many else [rhos]
    for k, shape in enumerate(map(np.shape, rhos)):
        if shape != (8, 8):
            raise ValueError(f"state {k}: " * many
                             + f"expected a three-qubit state, got shape {shape}")
    return qmat.check_density_matrix(np.reshape(rhos, (-1, 8, 8)) if many else rhos[0])


def _split(assignment):
    """(alpha, beta, gamma) of an assignment string or a sequence of the qubit
    indices 0, 1, 2 in some order, as ints."""
    split = qmat._qubits(parse_assignment(assignment) if isinstance(assignment, str)
                         else assignment, 3)
    if split is None or len(split) != 3:
        raise ValueError(f"assignment {assignment!r} must name qubits 0, 1, 2 once each, "
                         f"as in b|a,c or (0, 1, 2)")
    return tuple(map(int, split))


def _kw_reports(rhos, splits):
    """Reports of every checked split of every state of a trusted (B, 8, 8) stack: one
    ``qmat._reduce`` to every (alpha, beta) and (beta, gamma), the latter ascending (so a
    pair and its reverse read alike), one J search and one concurrence."""
    keeps, gammas, names = _plan(splits)
    pairs = qmat._reduce(rhos, keeps)
    coords = qmat._pauli_coords(pairs[:, :len(names)].reshape(-1, 4, 4)).reshape(-1, 4, 4)
    h, n = _min_measured_entropy(coords)
    theta, phi = _direction_of(n)
    c = _concurrence(pairs[:, len(names):])
    b = coords[:, 0, 1:]
    # S(beta) = h((1 + |b|) / 2) of every (alpha, beta) and E of every concurrence, one pass
    binary = _binary_entropy(np.concatenate((coords[:, 0, 0], np.ones(c.size))),
                             np.concatenate((np.sqrt(np.add.reduce(b * b, 1)),
                                             _concurrence_radius(c.ravel()))))
    s, e = binary[:len(b)], binary[len(b):].reshape(c.shape)[:, gammas].ravel()
    j = s - h
    columns = (v.reshape(len(rhos), len(names)).tolist()
               for v in (s, j, e, s - j - e, theta, phi))
    return [[KWReport(name, S, J, E, KW, "exact", theta_opt=t, phi_opt=p)
             for name, S, J, E, KW, t, p in zip(names, *state)] for state in zip(*columns)]


@lru_cache(maxsize=64)
def _plan(splits):
    """``_kw_reports``'s keeps, (beta, gamma) columns and names."""
    shared = sorted({tuple(sorted(split[1:])) for split in splits})
    return (tuple(split[:2] for split in splits) + tuple(shared),
            tuple(shared.index(tuple(sorted(split[1:]))) for split in splits),
            tuple(format_assignment(*split) for split in splits))


# ---------------------------------------------------------------------------
# Symmetric single-excitation model: closed forms
# ---------------------------------------------------------------------------

@dataclass
class SymmetricModel:
    """Symmetric single-excitation parametrization (population p, coherence c).

    The model matrix carries population p on each of |001>, |010>, |100> and
    real coherence c between every pair of them.  Physical domain: p >= 0,
    -p/2 <= c <= p (positivity), 3p <= 1 (trace).
    """

    p: float
    c: float


def clip_to_domain(p: float, c: float) -> SymmetricModel:
    """Clip raw (p, c) estimates into the physical model domain."""
    return SymmetricModel(*map(float, _clip_to_domain(p, c)))


def _clip_to_domain(p, c):
    """``clip_to_domain`` on arrays (or scalars) of estimates."""
    p = np.minimum(np.maximum(p, 1e-9), 1 / 3)
    return p, np.minimum(np.maximum(c, -p / 2), p)


def kw_symmetric(model: SymmetricModel, strict: bool = False) -> KWReport:
    """Closed-form monogamy quantities of the symmetric model.

    The three closed forms are evaluated exactly as written, treating
    (p, c) as free parameters, and must be finite; ``strict=True`` also
    requires 3p = 1 within 1e-6 (the pure-model normalization).  The
    optimal measurement sits at theta = pi/4, independent of phi.
    """
    p, c = model.p, model.c
    if not (isfinite(p) and isfinite(c) and p > 0):
        raise ValueError(f"population p={p} and coherence c={c} must be finite, p positive")
    if strict and abs(3 * p - 1) > 1e-6:
        raise ValueError(f"strict mode requires 3p = 1, got 3p = {3 * p}")
    s = j = e = np.nan  # if p**4 overflows
    with np.errstate(all="ignore"), suppress(OverflowError):
        (s,), (j,), (e,) = _symmetric_forms(*np.array([[p], [c]], dtype=float))
    if not np.isfinite([s, j, e]).all():
        raise ValueError(f"the closed forms are not finite at p={p}, c={c}")
    return KWReport(
        assignment=format_assignment(0, 1, 2),
        S=float(s), J=float(j), E=float(e), KW=float(s - j - e),
        method="symmetric-formula", theta_opt=pi / 4, phi_opt=0.0)


def _symmetric_forms(p, c):
    """S, J and E (of concurrence 2p) of the symmetric model on arrays of (p, c).  p**4 is Python's
    float power per element: numpy's array power can differ in the last bit."""
    root = np.sqrt(4 * c * c * p * p + np.array([x**4 for x in p.tolist()]))
    args = ((1 - root / (3 * p * p)) / 2, (1 + root / (3 * p * p)) / 2)
    if np.any(args[0] <= 0):
        k = np.argmax(args[0] <= 0)
        raise ValueError(f"coherence c={c[k]} outside the closed forms' domain for p={p[k]}")
    s = -p * (2 + 3 * np.log2(p))
    e = _eof(2 * p)
    j = -p * np.log2(p) - 2 * p * np.log2(2 * p)
    j += ((3 * p * p - root) * np.log2(args[0])
          + (3 * p * p + root) * np.log2(args[1])) / (2 * p)
    return s, j, e


# ---------------------------------------------------------------------------
# Correlator tables and extraction
# ---------------------------------------------------------------------------

_VALUE_TOL = 1e-6  # rounding: 4.4e-16 in exact tables, 3e-7 on a checked 4-qubit state


@dataclass(frozen=True, eq=False)
class CorrelatorTable:
    """Read-only Pauli correlators, checked: ``values[k]`` +/- ``sigmas[k]``
    is the expectation of ``paulis[k]``, strings over IXYZ of one length, real
    values finite and at most 1 + 1e-6 in magnitude, real sigmas finite and >= 0."""

    paulis: tuple[str, ...]
    values: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        strings = isinstance(self.paulis, Sequence) and not isinstance(self.paulis, str)
        paulis = tuple(map(qmat.check_pauli, self.paulis)) if strings else ()
        values, sigmas = map(np.asarray, (self.values, self.sigmas))
        if (len(set(map(len, paulis))) != 1
                or not values.shape == sigmas.shape == (len(paulis),)
                or not {values.dtype.kind, sigmas.dtype.kind} <= set("biuf")):
            raise ValueError(f"need a sequence of Pauli strings of one length with one real "
                             f"value and one sigma each, got {self.paulis!r}, {values.dtype} "
                             f"{values.shape} and {sigmas.dtype} {sigmas.shape}")
        values, sigmas = values.astype(float), sigmas.astype(float)
        # written so that NaN fails as well
        bad = ~((np.abs(values) <= 1 + _VALUE_TOL) & (sigmas >= 0) & (sigmas < np.inf))
        if bad.any():
            k = np.argmax(bad)
            raise ValueError(f"{paulis[k]} = {values[k]} +/- {sigmas[k]}: need a finite value "
                             f"of magnitude at most 1 + {_VALUE_TOL:g} and a finite sigma >= 0")
        values.flags.writeable = sigmas.flags.writeable = False
        self.__dict__.update(paulis=paulis, values=values, sigmas=sigmas)  # frozen


# representative members of the seven nontrivial correlator classes that
# determine the symmetric model, plus the identity
KW_CLASS_REPS = ("ZZZ", "ZZI", "ZII", "XXZ", "YYZ", "XXI", "YYI")

# published correlator magnitudes for the engineered single-excitation state,
# with one-sigma counting uncertainties
REFERENCE_CORRELATOR_TABLE = CorrelatorTable(
    KW_CLASS_REPS, [0.87, 0.35, 0.26, 0.55, 0.70, 0.66, 0.52],
    [0.02, 0.04, 0.04, 0.04, 0.03, 0.03, 0.04])


def pauli_class(pauli: str) -> tuple[str, ...]:
    """Distinct qubit permutations of a Pauli string, descending lexicographic."""
    return tuple(sorted({"".join(p) for p in permutations(pauli)}, reverse=True))


# every Pauli string entering the extraction -> its class representative
_CLASS_OF = {member: rep for rep in ("III",) + KW_CLASS_REPS
             for member in pauli_class(rep)}


def kw_correlator_paulis() -> tuple[str, ...]:
    """All Pauli strings entering the extraction: III plus the seven classes."""
    return tuple(_CLASS_OF)


def correlator_table(rho) -> CorrelatorTable:
    """Exact table of the extraction's strings on a three-qubit state (sigma = 0)."""
    coords = qmat._pauli_coords(_three_qubit(rho)[None])[0]
    return CorrelatorTable(tuple(_CLASS_OF), coords[list(map(qmat._pauli_index, _CLASS_OF))],
                           np.zeros(len(_CLASS_OF)))


_IDEAL_SIGNS = {"III": 1, "ZZZ": -1, "ZZI": -1, "ZII": 1,
                "XXZ": 1, "YYZ": 1, "XXI": 1, "YYI": 1}


def apply_sign_map(table: CorrelatorTable, mode: str = "ideal-w1") -> CorrelatorTable:
    """Resolve correlator signs before extraction.

    mode "ideal-w1": |value| times the sign of the correlator's class on the
    ideal single-excitation state (tables quoting magnitudes); mode "raw":
    the table itself.
    """
    if mode == "raw":
        return table
    if mode != "ideal-w1":
        raise ValueError(f"unknown sign map {mode!r}; use raw or ideal-w1")
    signs = [_IDEAL_SIGNS.get(_CLASS_OF.get(pauli)) for pauli in table.paulis]
    if None in signs:
        raise ValueError(f"no ideal sign for Pauli string {table.paulis[signs.index(None)]!r}")
    return CorrelatorTable(table.paulis, signs * np.abs(table.values), table.sigmas)


def _extract_pc(paulis, values, printed_form: bool = False):
    """``extract_pc`` on many tables at once: arrays of p and c.

    Every row of ``values`` is one table whose columns follow ``paulis``.
    A class sum averages its columns in table order, one column at a time,
    with symmetric fill for missing members.
    """
    columns: dict[str, list[int]] = {}
    for k, pauli in enumerate(paulis):
        rep = _CLASS_OF.get(pauli)
        if rep is not None:
            columns.setdefault(rep, []).append(k)
    missing = [rep for rep in KW_CLASS_REPS if rep not in columns]
    if missing:
        raise ValueError(f"correlator classes missing from table: {missing}")
    sums = {"III": np.ones(len(values))}
    for rep, ks in columns.items():
        total = reduce(np.add, (values[:, k] for k in ks))
        sums[rep] = (1 if rep in ("III", "ZZZ") else 3) * (total / len(ks))
    if printed_form:
        p = (-sums["ZZZ"] + sums["III"] - sums["ZZI"] / 3 + sums["ZII"]) / 8
    else:
        p = (sums["III"] + sums["ZII"] / 3 - sums["ZZI"] / 3 - sums["ZZZ"]) / 8
    return p, (sums["XXZ"] + sums["YYZ"] + sums["XXI"] + sums["YYI"]) / 24


def extract_pc(table: CorrelatorTable, printed_form: bool = False) -> SymmetricModel:
    """Symmetric-model parameters from a correlator table.

    The derived expansion of the three single-excitation populations and
    coherences gives

        p = (1/8) [ <III> + P(<ZII>)/3 - P(<ZZI>)/3 - <ZZZ> ]
        c = (1/24)[ P(<XXZ>) + P(<YYZ>) + P(<XXI>) + P(<YYI>) ]

    where P(.) sums a class over its three qubit permutations (missing
    members fill symmetrically).  ``printed_form=True`` switches p to the
    variant with P(<ZII>) unscaled; on the ideal single-excitation state it
    returns 5/12 instead of 1/3 and exists only so that difference can be
    demonstrated.
    """
    (p,), (c,) = _extract_pc(table.paulis, table.values[None], printed_form)
    return SymmetricModel(p=float(p), c=float(c))


# the Monte Carlo draws its tables this many rows at a time; the generator
# fills rows in order, so the draws do not depend on the block size
_DRAW_BLOCK = 4096
_MAX_SAMPLES = 10**7  # it keeps 8 bytes of KW per draw, 80 MB at this bound
# a draw counts as clipped when the domain clip moves p or c by more than
# this many ulp: an exact table on the domain edge lands an ulp outside it
_CLIP_ULPS = 4


def _moved(raw, clipped):
    return np.abs(clipped - raw) > _CLIP_ULPS * np.spacing(np.abs(raw))


def kw_from_correlators(table: CorrelatorTable, samples: int = 2000, seed: int = 0) -> KWReport:
    """Monogamy estimate from a measured correlator table with uncertainty.

    The central value evaluates the closed forms at the extracted (p, c).
    The uncertainty draws ``samples`` tables (a whole number from 100 to
    10**7), in blocks of a fixed number of rows, each correlator with
    sigma > 0 from a normal distribution with its sigma (values clipped to
    [-1, 1]), re-extracts, clips (p, c) to the physical domain, and takes the
    sample standard deviation.  ``clipped_frac`` is the fraction of draws
    that the domain clip moved by more than a few ulp.
    """
    if not qmat._whole(samples, 100, _MAX_SAMPLES):
        raise ValueError(f"Monte-Carlo samples must be from 100 to {_MAX_SAMPLES}, got {samples!r}")
    central = kw_symmetric(clip_to_domain(*astuple(extract_pc(table))))
    values, sigmas = table.values, table.sigmas
    live = sigmas > 0
    rng = np.random.default_rng(qmat._seed(seed))
    kw, moved = [], 0
    for lo in range(0, samples, _DRAW_BLOCK):
        tables = np.tile(values, (min(_DRAW_BLOCK, samples - lo), 1))
        tables[:, live] = np.clip(rng.normal(
            values[live], sigmas[live], size=(len(tables), live.sum())), -1.0, 1.0)
        p, c = _extract_pc(table.paulis, tables)
        p_in, c_in = _clip_to_domain(p, c)
        s, j, e = _symmetric_forms(p_in, c_in)
        kw.append(s - j - e)
        moved += int(np.count_nonzero(_moved(p, p_in) | _moved(c, c_in)))
    return replace(central, method="correlator-estimate",
                   sigma=float(np.std(np.concatenate(kw), ddof=1)),
                   clipped_frac=moved / samples)
