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
from functools import reduce
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
    x = (1 + np.sqrt(1 - np.clip(c, 0.0, 1.0) ** 2)) / 2
    return qmat.entropy_bits(np.stack([x, 1 - x]))


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
    """Bloch vectors n (K, 3), theta-major, and (4, 2K) outcome columns (1, n)
    then (1, -n) of the theta <= pi/4 rows of the sweep; as n and -n are the
    same measurement, the other rows add nothing."""
    thetas = np.linspace(0.0, pi / 2, _GRID)[: (_GRID + 1) // 2]
    phis = np.linspace(0.0, 2 * pi, _GRID, endpoint=False)
    tt, pp = (m.ravel() for m in np.meshgrid(thetas, phis, indexing="ij"))
    n = np.stack([np.sin(2 * tt) * np.cos(pp), np.sin(2 * tt) * np.sin(pp),
                  np.cos(2 * tt)], axis=-1)
    return n, np.vstack([np.ones(2 * len(n)), np.concatenate([n, -n]).T])


_SWEEP_N, _SWEEP_COLUMNS = _direction_grid()
_YY = np.kron(PAULI["Y"], PAULI["Y"])
_EYE3, _EZ, _DIAG = np.eye(3), np.array([0.0, 0.0, 1.0]), [1, 2, 3]
_CURVE = 1 / (8 * np.log(2))  # the second derivatives' factor, in bits


def _outcome_entropy(alpha, r):
    """lambda = (alpha, lambda+, lambda-) on a new axis 0, its log2, and each
    outcome's share (alpha log alpha - lambda+ log lambda+ - lambda- log
    lambda-) / 2 in bits of the measured entropy, lambda+- = (alpha +- r) / 2
    being the eigenvalues of the state it leaves on beta, unnormalized."""
    lam = np.empty((3,) + r.shape)
    lam[0], lam[1], lam[2] = alpha, alpha + r, alpha - r
    lam[1:] /= 2
    log = np.log2(lam)
    xlog = lam * log
    xlog[lam <= 0] = 0.0
    return lam, log, (xlog[0] - xlog[1] - xlog[2]) / 2


def _measured_entropy(coords, columns):
    """Entropy of beta left by measuring alpha along K directions, (M, K):
    coords^T (see ``_newton_terms``) times the outcome column (1, s n) of
    ``columns`` (4, 2K) is the outcome's (alpha, beta).  Call under errstate."""
    ab = coords.swapaxes(1, 2) @ columns
    beta = ab[:, 1:]
    f = _outcome_entropy(ab[:, 0], np.sqrt((beta * beta).sum(1)))[2]
    return f.reshape(len(f), 2, columns.shape[1] // 2).sum(1)


def _newton_terms(coords, n):
    """The measured entropy and its derivatives at unit vectors n (M, 3):
    terms (M, 7) holds f, the gradient (g_u, g_w) and the Riemannian Hessian
    (h_uu, h_uw, h_wu, h_ww) in a tangent basis (u, w), and basis (M, 3, 3)
    holds that basis as rows (n, u, w).  coords (M, 4, 4) holds each state's
    Pauli coordinates Tr[rho (P_i x P_j)]: 1 at [0, 0], then a = coords[1:, 0],
    b = coords[0, 1:] and T = coords[1:, 1:].

    f sums the shares of ``_outcome_entropy`` of the outcomes s = +-1, with
    alpha = 1 + s a.n and r = |beta|, beta = b + s T^T n.  Their gradients and
    Hessians in (alpha, beta) run through r, whose Hessian in beta is
    (I - beta beta^T / r^2) / r; along d, (alpha, beta) moves by s (a.d, T^T d).
    The sphere's curvature subtracts n . grad f from the diagonal.  Call under
    ``np.errstate``: a pure conditional state (lambda- = 0) or a vanishing r
    gives non-finite derivatives.
    """
    m = len(n)
    # rows 0 and 1 of the Householder reflection that takes e_z to -+n
    v = n + np.copysign(_EZ, n[:, 2:])
    basis = np.empty((m, 3, 3))
    basis[:, 0] = n
    basis[:, 1:] = _EYE3[:2] - v[:, :2, None] * v[:, None] / (1 + abs(n[:, 2:, None]))
    x = basis @ coords[:, 1:]  # rows (a.d, T^T d) for d = n, u, w
    ab = np.empty((m, 2, 4))  # (alpha, beta) of outcome s = +1, -1
    np.add(coords[:, 0], x[:, 0], out=ab[:, 0])
    np.subtract(coords[:, 0], x[:, 0], out=ab[:, 1])
    beta = ab[..., 1:]
    r = np.sqrt((beta * beta).sum(-1))
    lam, log, f = _outcome_entropy(ab[..., 0], r)
    f_a, f_r = (2 * log[0] - log[1] - log[2]) / 4, (log[2] - log[1]) / 4
    unit = beta / r[..., None]
    grad_ab = np.concatenate([f_a[..., None], f_r[..., None] * unit], axis=-1)
    grad = (x @ (grad_ab[:, 0] - grad_ab[:, 1])[..., None])[..., 0]
    inv = _CURVE / lam
    f_r_by_r = f_r / r
    hess_ab = np.empty((m, 4, 4))
    hess_ab[:, 0, 0] = (4 * inv[0] - inv[1] - inv[2]).sum(1)
    hess_ab[:, 0, 1:] = hess_ab[:, 1:, 0] = ((inv[2] - inv[1])[:, None] @ unit)[:, 0]
    hess_ab[:, 1:, 1:] = unit.swapaxes(1, 2) @ (-(inv[1] + inv[2] + f_r_by_r)[..., None] * unit)
    hess_ab[:, _DIAG, _DIAG] += f_r_by_r.sum(1)[:, None]
    tangent = x[:, 1:]
    terms = np.empty((m, 7))
    terms[:, 0] = f.sum(1)
    terms[:, 1:3] = grad[:, 1:]
    terms[:, 3:] = (tangent @ hess_ab @ tangent.swapaxes(1, 2)).reshape(m, 4)
    terms[:, 3::3] -= grad[:, :1]
    return terms, basis


def _newton_step(terms, radius):
    """The Newton step in the tangent plane, the lowest curvature shifted up
    to ``_CURVATURE_FLOOR`` and the length capped at ``radius``, with its
    length and the decrease the quadratic model predicts for it."""
    grad, hess = terms[:, 1:3], terms[:, 3:].reshape(-1, 2, 2)
    uu, uw, ww = terms[:, 3], terms[:, 4], terms[:, 6]
    mid, gap = (uu + ww) / 2, np.hypot((uu - ww) / 2, uw)
    shifted = mid + np.maximum(_CURVATURE_FLOOR - mid + gap, 0.0)
    # (H + shift)^-1 g = ((tr H + shift) g - H g) / det(H + shift)
    step = (hess @ grad[..., None])[..., 0] - (shifted + mid)[:, None] * grad
    step /= ((shifted - gap) * (shifted + gap))[:, None]
    length = np.hypot(step[:, 0], step[:, 1])
    step *= np.minimum(1.0, radius / length)[:, None]
    pred = -(step * (grad + (hess @ step[..., None])[..., 0] / 2)).sum(1)
    return step, np.minimum(length, radius), pred


def _min_measured_entropy(rhos):
    """S(beta), min over measurements n on alpha of the entropy left on beta,
    and the minimizing n, for a trusted (B, 4, 4) stack of states: one product
    of the stack's Pauli coordinates with the outcome columns sweeps the grid,
    and ``_polish`` polishes each state's best cell (ties toward smaller
    theta, then smaller phi)."""
    coords = qmat._pauli_coords(rhos).reshape(-1, 4, 4)
    with np.errstate(all="ignore"):
        s_beta = 2 * _outcome_entropy(1.0, np.sqrt((coords[:, 0, 1:] ** 2).sum(-1)))[2]
        start = np.argmin(_measured_entropy(coords, _SWEEP_COLUMNS), axis=1)
        return (s_beta, *_polish(coords, _SWEEP_N[start]))


def _polish(coords, n):
    """The measured entropy f (M,) and direction (M, 3) that trust-region
    Newton steps on the sphere reach from unit vectors n (M, 3), for Pauli
    coordinates (M, 4, 4) (see ``_newton_terms``).  A step is taken only if f
    does not rise, else the radius becomes a quarter of the step.  A row stops,
    and waits for the rest, once its step or radius is below ``_ANGLE_TOL``
    or its next step is not finite or predicts a decrease below ``_F_TOL``, so
    its result does not depend on the other rows.  Call under errstate."""
    n = np.array(n, dtype=float)
    live = np.arange(len(n))
    terms, basis = _newton_terms(coords, n)
    f = terms[:, 0].copy()
    radius = np.full(len(n), 2 * pi / _GRID)
    step, length, pred = _newton_step(terms, radius)
    keep = np.isfinite(step).all(-1) & (pred > _F_TOL)
    for _ in range(_MAX_STEPS):
        if not keep.all():
            live, coords, terms, basis, radius, step, length = (
                v[keep] for v in (live, coords, terms, basis, radius, step, length))
        if not len(live):
            break
        cand = basis[:, 0] + (step[:, None] @ basis[:, 1:])[:, 0]
        cand /= np.sqrt((cand * cand).sum(-1, keepdims=True))
        terms_c, basis_c = _newton_terms(coords, cand)
        up = terms_c[:, 0] <= terms[:, 0]
        if up.all():
            terms, basis, moved = terms_c, basis_c, length
        else:
            terms = np.where(up[:, None], terms_c, terms)
            basis = np.where(up[:, None, None], basis_c, basis)
            radius = np.where(up, radius, length / 4)
            moved = np.where(up, length, radius)
        n[live], f[live] = basis[:, 0], terms[:, 0]
        step, length, pred = _newton_step(terms, radius)
        keep = (moved >= _ANGLE_TOL) & np.isfinite(step).all(-1) & (pred > _F_TOL)
    return f, n


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
    if measured not in (0, 1):
        raise ValueError("measured qubit must be 0 or 1")
    rho = qmat.partial_trace(rho, [measured, 1 - measured])
    s_beta, cond, n = _min_measured_entropy(rho[None])
    theta, phi = _direction_of(n)
    return float(s_beta[0] - cond[0]), (float(theta[0]), float(phi[0]))


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
        idx = tuple(QUBIT_NAMES.index(s.strip()) for s in
                    (alpha_part, beta_part, gamma_part))
    except (ValueError, IndexError):
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
    return _kw_reports(_three_qubit(rho)[None], [assignment])[0][0]


def kw_exact_many(rhos, assignment=(0, 1, 2)) -> list[KWReport]:
    """``kw_exact`` of each state of a sequence or (B, 8, 8) stack in one array
    pass, alike bit for bit; a state that is not valid fails with its index."""
    stack = []
    for k, rho in enumerate(rhos):
        try:
            stack.append(_three_qubit(rho))
        except ValueError as err:
            raise ValueError(f"state {k}: {err}") from None
    return [row[0] for row in _kw_reports(np.array(stack).reshape(-1, 8, 8), [assignment])]


def kw_all_permutations(rho):
    """Exact reports for all six (alpha, beta, gamma) splits plus the mean KW."""
    reports = _kw_reports(_three_qubit(rho)[None], permutations(range(3)))[0]
    return reports, float(np.mean([r.KW for r in reports]))


def _three_qubit(rho):
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (8, 8):
        raise ValueError(f"expected a three-qubit state, got shape {rho.shape}")
    return rho


def _kw_reports(rhos, assignments):
    """The reports of every split of every state of a trusted (B, 8, 8) stack,
    one list per state, from one array pass: one ``qmat._reduce`` to every
    split's (alpha, beta) and every (beta, gamma) in ascending order (each
    entry a sum of the same two terms, so a pair and its reverse read alike),
    one J search of the former and one concurrence of the latter."""
    splits = [parse_assignment(x) if isinstance(x, str) else tuple(x)
              for x in assignments]
    for split in splits:
        if sorted(split) != [0, 1, 2]:
            raise ValueError(f"assignment {split} must cover qubits 0, 1, 2")
    shared = sorted({tuple(sorted(split[1:])) for split in splits})
    pairs = qmat._reduce(rhos, tuple(split[:2] for split in splits) + tuple(shared))
    s, h, n = _min_measured_entropy(pairs[:, :len(splits)].reshape(-1, 4, 4))
    theta, phi = _direction_of(n)
    e = _eof(_concurrence(pairs[:, len(splits):]))
    e = e[:, [shared.index(tuple(sorted(split[1:]))) for split in splits]].ravel()
    j = s - h
    columns = (v.reshape(len(rhos), len(splits)).tolist()
               for v in (s, j, e, s - j - e, theta, phi))
    return [[KWReport(format_assignment(*split), S, J, E, KW, "exact", theta_opt=t, phi_opt=p)
             for split, S, J, E, KW, t, p in zip(splits, *state)] for state in zip(*columns)]


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
    """S, J and E of the symmetric model on arrays of (p, c).  p**4 is Python's
    float power per element: numpy's array power can differ in the last bit."""
    root = np.sqrt(4 * c * c * p * p + np.array([x**4 for x in p.tolist()]))
    args = ((1 - root / (3 * p * p)) / 2, (1 + root / (3 * p * p)) / 2)
    if np.any(args[0] <= 0):
        k = np.argmax(args[0] <= 0)
        raise ValueError(f"coherence c={c[k]} outside the closed forms' domain for p={p[k]}")
    s = -p * (2 + 3 * np.log2(p))
    r = np.sqrt(np.maximum(0.0, 1 - 4 * p * p))
    e = qmat.entropy_bits([(1 + r) / 2, (1 - r) / 2])
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
    The uncertainty draws ``samples`` tables (100 to 10**7), in blocks of a
    fixed number of rows, each correlator with sigma > 0 from a normal
    distribution with its sigma (values clipped to [-1, 1]), re-extracts,
    clips (p, c) to the physical domain, and takes the sample standard
    deviation.  ``clipped_frac`` is the fraction of draws that the domain
    clip moved by more than a few ulp.
    """
    if not 100 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"Monte-Carlo samples must be from 100 to {_MAX_SAMPLES}, got {samples}")
    central = kw_symmetric(clip_to_domain(*astuple(extract_pc(table))))
    values, sigmas = table.values, table.sigmas
    live = sigmas > 0
    rng = np.random.default_rng(seed)
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
