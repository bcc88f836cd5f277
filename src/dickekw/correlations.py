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

from dataclasses import astuple, dataclass, replace
from functools import reduce
from itertools import permutations
from math import pi

import numpy as np

from . import qmat
from .qmat import PAULI, QUBIT_NAMES, partial_trace


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
    return _concurrence(rho)


def _concurrence(rho) -> float:
    w, v = np.linalg.eigh(rho)
    psi = v * np.sqrt(np.maximum(w, 0.0))
    lam = np.linalg.svd(psi.T @ qmat.pauli_matrix("YY") @ psi, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation in bits from a concurrence value."""
    if not -1e-9 <= c <= 1 + 1e-9:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    x = (1 + np.sqrt(1 - c * c)) / 2
    return qmat.entropy_bits([x, 1 - x])


def entanglement_of_formation(rho) -> float:
    """Entanglement of formation of a two-qubit state."""
    return eof_from_concurrence(concurrence(rho))


# ---------------------------------------------------------------------------
# Classical correlations J(beta|alpha)
# ---------------------------------------------------------------------------

@dataclass
class MeasurementDirection:
    """Projective measurement direction on the Bloch sphere."""

    theta: float
    phi: float


# the J search (see _min_measured_entropy): a _GRID x _GRID sweep of
# (theta, phi) picks three starts per state for a trust-region Newton polish
# that stops below _ANGLE_TOL radians or a predicted decrease of _F_TOL bits,
# rounding level.  A larger _CURVATURE_FLOOR makes the steps crawl toward a
# minimum where f is flat to second order.  No state tried takes more than
# 20 steps; _MAX_STEPS only bounds the loop.
_GRID = 16
_ANGLE_TOL = 1e-6
_F_TOL = 4 * np.finfo(float).eps
_CURVATURE_FLOOR = 1e-6
_MAX_STEPS = 50


def _direction_grid():
    """(theta, phi) and Bloch vectors of the theta <= pi/4 rows of the sweep;
    as n and -n are the same measurement, the other rows add nothing."""
    thetas = np.linspace(0.0, pi / 2, _GRID)[: (_GRID + 1) // 2]
    phis = np.linspace(0.0, 2 * pi, _GRID, endpoint=False)
    tt, pp = (m.ravel() for m in np.meshgrid(thetas, phis, indexing="ij"))
    n = np.stack([np.sin(2 * tt) * np.cos(pp), np.sin(2 * tt) * np.sin(pp),
                  np.cos(2 * tt)], axis=-1)
    return tt, pp, n


_SWEEP = _direction_grid()
_PAULI4 = np.stack([PAULI[l] for l in "IXYZ"])
_EYE3 = np.eye(3)
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # n x u as np.cross computes it
_SIGNS = np.array([1.0, -1.0])[:, None, None, None]  # the outcome s, on axis 0
_CURVE = 1 / (8 * np.log(2))  # the second derivatives' factor, in bits


def _binary_entropy(x):
    """Entropy in bits of a qubit state with Bloch length x."""
    p, q = (1 + x) / 2, (1 - x) / 2
    return -p * np.log2(np.maximum(p, 1e-300)) - q * np.log2(np.maximum(q, 1e-300))


def _measured_entropy(a, b, t, n):
    """Entropy of beta left by measuring Bloch vector n on alpha, (B, K).

    Outcome s = +-1 has probability q = (1 + s a.n) / 2 and leaves beta with
    Bloch vector (b + s T^T n) / (2q).  Shapes: a, b (B, 3), t (B, 3, 3),
    n (B or 1, K, 3).
    """
    an, tn = (n @ a[:, :, None])[..., 0], n @ t
    total = 0.0
    for s in (1.0, -1.0):
        q = np.maximum((1 + s * an) / 2, 1e-300)
        v = b[:, None] + s * tn
        x = np.sqrt((v * v).sum(-1)) / (2 * q)
        total = total + q * _binary_entropy(np.minimum(x, 1.0))
    return total


def _pick_starts(values, tt, pp):
    """(B, 3) indices: the best grid cell, then the best two that lie more than
    0.3 in |dtheta| + |dphi| from every earlier start (else the best again).
    Ties go to the lower index: smaller theta, then smaller phi."""
    starts = [np.argmin(values, axis=1)]
    far = np.ones(values.shape, dtype=bool)
    for _ in range(2):
        last = starts[-1][:, None]
        far &= np.abs(tt - tt[last]) + np.abs(pp - pp[last]) > 0.3
        pick = np.argmin(np.where(far, values, np.inf), axis=1)
        starts.append(np.where(far.any(axis=1), pick, starts[0]))
    return np.stack(starts, axis=1)


def _newton_terms(coords, n):
    """The measured entropy f (M,) at unit vectors n (M, 3), its gradient
    (M, 2) and Riemannian Hessian (M, 2, 2) in a tangent basis (u, w), and
    that basis as rows (n, u, w), w = n x u.  coords (M, 4, 4) holds each
    state's Pauli coordinates Tr[rho (P_i x P_j)]: 1 at [0, 0], then
    a = coords[1:, 0], b = coords[0, 1:] and T = coords[1:, 1:].

    Outcome s leaves beta unnormalized with eigenvalues lambda+- = (alpha +-
    r) / 2, where alpha = 1 + s a.n, beta = b + s T^T n and r = |beta|, and
    f = sum_s (alpha log alpha - lambda+ log lambda+ - lambda- log lambda-) / 2
    in bits.  The chain rule runs through alpha (linear in n) and r, whose
    second derivative is (T T^T - dr dr^T) / r; the sphere's curvature
    subtracts n . grad f from the diagonal.  Call under ``np.errstate``: a
    pure conditional state (lambda- = 0) or a vanishing r gives non-finite
    derivatives.
    """
    axis = _EYE3[np.argmin(np.abs(n), axis=-1)]
    u = axis - (axis * n).sum(-1, keepdims=True) * n
    u /= np.sqrt((u * u).sum(-1, keepdims=True))
    w = n[:, _NEXT] * u[:, _LAST] - n[:, _LAST] * u[:, _NEXT]
    basis = np.stack([n, u, w], axis=1)
    x = basis @ coords[:, 1:]  # rows (a.d, T^T d) for d = n, u, w
    ab = coords[:, :1] + _SIGNS * x[:, :1]  # (2, M, 1, 4): (alpha, beta) per outcome
    beta = ab[..., 1:]
    r = np.sqrt((beta * beta).sum(-1))[..., 0]
    lam = np.stack([ab[..., 0, 0], ab[..., 0, 0] + r, ab[..., 0, 0] - r])
    lam[1:] /= 2
    log = np.log2(lam)  # alpha, lambda+, lambda- on axis 0
    xlog = np.where(lam > 0, lam * log, 0.0)
    f = (xlog[0] - xlog[1] - xlog[2]).sum(0) / 2
    f_a, f_r = (2 * log[0] - log[1] - log[2]) / 4, (log[2] - log[1]) / 4
    d_a = _SIGNS[..., 0] * x[..., 0]  # (2, M, 3): d alpha along n, u, w
    d_r = (_SIGNS * (x[..., 1:] @ beta.swapaxes(-1, -2)))[..., 0] / r[..., None]
    grad = (f_a[..., None] * d_a + f_r[..., None] * d_r).sum(0)
    inv = _CURVE / lam
    f_r_by_r = f_r / r
    # rows of the (alpha, r) Hessian times the Jacobian (d_a, d_r)
    v_a = (4 * inv[0] - inv[1] - inv[2])[..., None] * d_a + (inv[2] - inv[1])[..., None] * d_r
    v_r = (inv[2] - inv[1])[..., None] * d_a - (inv[1] + inv[2] + f_r_by_r)[..., None] * d_r
    hess = (v_a[..., 1:, None] * d_a[..., None, 1:]
            + v_r[..., 1:, None] * d_r[..., None, 1:]).sum(0)
    tangent = x[:, 1:, 1:]
    hess += f_r_by_r.sum(0)[:, None, None] * (tangent @ tangent.swapaxes(-1, -2))
    hess[:, [0, 1], [0, 1]] -= grad[:, :1]
    return f, grad[:, 1:], hess, basis


def _newton_step(grad, hess, radius):
    """The Newton step in the tangent plane, the lowest curvature shifted up
    to ``_CURVATURE_FLOOR`` and the length capped at ``radius``, with its
    length and the decrease the quadratic model predicts for it."""
    uu, uw, ww = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    shift = _CURVATURE_FLOOR - (uu + ww) / 2 + np.hypot((uu - ww) / 2, uw)
    shift = np.maximum(shift, 0.0)
    gu, gw = grad[:, 0], grad[:, 1]
    su, sw = uu + shift, ww + shift
    det = su * sw - uw * uw
    step = np.stack([uw * gw - sw * gu, uw * gu - su * gw], axis=-1) / det[:, None]
    length = np.sqrt((step * step).sum(-1))
    step *= np.minimum(1.0, radius / length)[:, None]
    pu, pw = step[:, 0], step[:, 1]
    pred = -(gu * pu + gw * pw) - (uu * pu * pu + 2 * uw * pu * pw + ww * pw * pw) / 2
    return step, np.minimum(length, radius), pred


def _min_measured_entropy(rhos):
    """S(beta), min over measurements n on alpha of the entropy left on beta,
    and the minimizing n, for a trusted (B, 4, 4) stack of states.

    With rho = (I + a.sigma x I + I x b.sigma + sum T_ij sigma_i x sigma_j) / 4
    the whole stack is swept over the hemisphere grid at once.  Each of the
    three starts of every state is then polished by trust-region Newton
    steps on the sphere, from the closed-form gradient and Hessian of
    ``_newton_terms``.  A step is taken only if f does not rise; otherwise
    the radius becomes a quarter of the step.  A start stops, and stays where
    it is while the rest of the stack runs, once it has taken a step shorter
    than ``_ANGLE_TOL``, its radius is below that, or its next step is not
    finite or predicts a decrease below ``_F_TOL``.  A state's result
    therefore does not depend on the other states of the stack.
    """
    coords = np.einsum("bijkl,ski,tlj->bst", rhos.reshape(-1, 2, 2, 2, 2),
                       _PAULI4, _PAULI4).real
    a, b, t = coords[:, 1:, 0], coords[:, 0, 1:], coords[:, 1:, 1:]
    tt, pp, grid_n = _SWEEP
    starts = _pick_starts(_measured_entropy(a, b, t, grid_n[None]), tt, pp)
    n = grid_n[starts.ravel()]
    coords = np.repeat(coords, starts.shape[1], axis=0)
    live = np.arange(len(n))
    with np.errstate(all="ignore"):
        f, grad, hess, basis = _newton_terms(coords, n)
        radius = np.full(len(n), 2 * pi / _GRID)
        step, length, pred = _newton_step(grad, hess, radius)
        keep = np.isfinite(step).all(-1) & (pred > _F_TOL)
        f_live = f
        for _ in range(_MAX_STEPS):
            if not keep.all():
                live, coords, f_live, grad, hess, basis, radius, step, length = (
                    v[keep] for v in (live, coords, f_live, grad, hess, basis,
                                      radius, step, length))
            if not len(live):
                break
            cand = basis[:, 0] + (step[:, :, None] * basis[:, 1:]).sum(1)
            cand /= np.sqrt((cand * cand).sum(-1, keepdims=True))
            f_c, grad_c, hess_c, basis_c = _newton_terms(coords, cand)
            up = f_c <= f_live
            f_live = np.where(up, f_c, f_live)
            grad = np.where(up[:, None], grad_c, grad)
            hess = np.where(up[:, None, None], hess_c, hess)
            basis = np.where(up[:, None, None], basis_c, basis)
            radius = np.where(up, radius, length / 4)
            moved = np.where(up, length, radius)
            n[live], f[live] = basis[:, 0], f_live
            step, length, pred = _newton_step(grad, hess, radius)
            keep = (moved >= _ANGLE_TOL) & np.isfinite(step).all(-1) & (pred > _F_TOL)
    best = np.argmin(f.reshape(starts.shape), axis=1) + np.arange(0, len(n), starts.shape[1])
    return _binary_entropy(np.sqrt((b * b).sum(-1))), f[best], n[best]


def _direction_of(n) -> MeasurementDirection:
    """The angles of the Bloch vector n, or of -n, the same measurement: the
    one whose first nonzero component of (n_z, n_y, n_x) is positive, so
    that theta <= pi/4.  phi lies in [0, 2 pi)."""
    if tuple(n[::-1]) < (0, 0, 0):
        n = -n
    return MeasurementDirection(theta=float(0.5 * np.arccos(min(n[2], 1.0))),
                                phi=float(np.arctan2(n[1], n[0]) % (2 * pi)))


def classical_correlations(rho, measured: int = 0):
    """Classical correlations of a two-qubit state.

    J = S(beta) - min over projective measurements on alpha of the average
    conditional entropy of beta, a closed form in the measurement's Bloch
    vector n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta).  The
    minimum is located on the theta <= pi/4 half of a fixed 16 x 16 sweep
    of (theta, phi) (ties toward smaller theta, then smaller phi).  Three
    starts from the sweep are polished by trust-region Newton steps on the
    sphere, with the closed-form gradient and Hessian, until a step or the
    trust radius is below 1e-6 rad or the predicted decrease is at rounding
    level; the best of the three is the result.

    Parameters
    ----------
    rho : array, shape (4, 4)
    measured : int
        Index of the measured qubit alpha (0 or 1).

    Returns
    -------
    (J, MeasurementDirection)
    """
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (4, 4):
        raise ValueError("classical correlations are defined for two qubits")
    if measured not in (0, 1):
        raise ValueError("measured qubit must be 0 or 1")
    if measured == 1:
        rho = qmat.permute_qubits(rho, [1, 0])
    s_beta, cond, n = _min_measured_entropy(rho[None])
    return float(s_beta[0] - cond[0]), _direction_of(n[0])


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
    return _kw_reports(rho, [assignment])[0]


def kw_all_permutations(rho):
    """Exact reports for all six (alpha, beta, gamma) splits plus the mean KW."""
    reports = _kw_reports(rho, permutations(range(3)))
    return reports, float(np.mean([r.KW for r in reports]))


def _kw_reports(rho, assignments):
    """Validate rho once, then evaluate every split with one batched J."""
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (8, 8):
        raise ValueError("exact evaluation expects a three-qubit state")
    splits = [parse_assignment(x) if isinstance(x, str) else tuple(x)
              for x in assignments]
    for split in splits:
        if sorted(split) != [0, 1, 2]:
            raise ValueError(f"assignment {split} must cover qubits 0, 1, 2")
    # each unordered pair is reduced once; the swap that reverses its qubits
    # moves entries, each a sum of the same two terms in either order
    reduced = {pair: partial_trace(rho, list(pair)) for pair in
               {tuple(sorted(part)) for split in splits for part in (split[:2], split[1:])}}
    pairs = np.stack([reduced[alpha, beta] if alpha < beta else
                      qmat.permute_qubits(reduced[beta, alpha], [1, 0])
                      for alpha, beta, _ in splits])
    s_beta, cond, n = _min_measured_entropy(pairs)
    eof = {pair: eof_from_concurrence(_concurrence(reduced[pair]))
           for pair in {tuple(sorted(split[1:])) for split in splits}}
    reports = []
    for (alpha, beta, gamma), s, h, n_opt in zip(splits, s_beta, cond, n):
        s, j = float(s), float(s - h)
        e = eof[tuple(sorted((beta, gamma)))]
        direction = _direction_of(n_opt)
        reports.append(KWReport(
            assignment=format_assignment(alpha, beta, gamma),
            S=s, J=j, E=e, KW=s - j - e, method="exact",
            theta_opt=direction.theta, phi_opt=direction.phi))
    return reports


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
    (p, c) as free parameters; ``strict=True`` additionally requires 3p = 1
    within 1e-6 (the pure-model normalization).  The optimal measurement
    sits at theta = pi/4, independent of phi.
    """
    p, c = model.p, model.c
    if p <= 0:
        raise ValueError(f"population p={p} must be positive")
    if strict and abs(3 * p - 1) > 1e-6:
        raise ValueError(f"strict mode requires 3p = 1, got 3p = {3 * p}")
    (s,), (j,), (e,) = _symmetric_forms(*np.array([[p], [c]], dtype=float))
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

@dataclass
class CorrelatorRecord:
    """One measured Pauli expectation with its uncertainty."""

    pauli: str
    value: float
    sigma: float = 0.0


# representative members of the seven nontrivial correlator classes that
# determine the symmetric model, plus the identity
KW_CLASS_REPS = ("ZZZ", "ZZI", "ZII", "XXZ", "YYZ", "XXI", "YYI")

# published correlator magnitudes for the engineered single-excitation state,
# with one-sigma counting uncertainties
REFERENCE_CORRELATOR_TABLE = (
    CorrelatorRecord("ZZZ", 0.87, 0.02),
    CorrelatorRecord("ZZI", 0.35, 0.04),
    CorrelatorRecord("ZII", 0.26, 0.04),
    CorrelatorRecord("XXZ", 0.55, 0.04),
    CorrelatorRecord("YYZ", 0.70, 0.03),
    CorrelatorRecord("XXI", 0.66, 0.03),
    CorrelatorRecord("YYI", 0.52, 0.04),
)


def pauli_class(pauli: str) -> tuple[str, ...]:
    """Distinct qubit permutations of a Pauli string, descending lexicographic."""
    return tuple(sorted({"".join(p) for p in permutations(pauli)}, reverse=True))


# every Pauli string entering the extraction -> its class representative
_CLASS_OF = {member: rep for rep in ("III",) + KW_CLASS_REPS
             for member in pauli_class(rep)}


def class_of(pauli: str) -> str | None:
    """Representative class of a three-qubit Pauli string, if it has one."""
    return _CLASS_OF.get(pauli)


def kw_correlator_paulis() -> tuple[str, ...]:
    """All Pauli strings entering the extraction: III plus the seven classes."""
    return tuple(_CLASS_OF)


def correlator_table(rho) -> list[CorrelatorRecord]:
    """Exact correlator table of a three-qubit state (sigma = 0)."""
    rho = qmat.check_density_matrix(rho)
    if rho.shape != (8, 8):
        raise ValueError("correlator table expects a three-qubit state")
    return [CorrelatorRecord(p, qmat._pauli_expectation(rho, p), 0.0)
            for p in _CLASS_OF]


_IDEAL_SIGNS = {"III": 1, "ZZZ": -1, "ZZI": -1, "ZII": 1,
                "XXZ": 1, "YYZ": 1, "XXI": 1, "YYI": 1}


def ideal_sign(pauli: str) -> int:
    """Sign of the correlator on the ideal single-excitation state."""
    rep = _CLASS_OF.get(pauli)
    if rep is None:
        raise ValueError(f"no ideal sign for Pauli string {pauli!r}")
    return _IDEAL_SIGNS[rep]


def apply_sign_map(records, mode: str = "ideal-w1") -> list[CorrelatorRecord]:
    """Resolve correlator signs before extraction.

    mode "ideal-w1": |value| times the ideal single-excitation-state sign
    (tables quoting magnitudes); mode "raw": records pass through as given.
    """
    if mode == "raw":
        return [CorrelatorRecord(r.pauli, float(r.value), float(r.sigma))
                for r in records]
    if mode != "ideal-w1":
        raise ValueError(f"unknown sign map {mode!r}; use raw or ideal-w1")
    return [CorrelatorRecord(r.pauli, ideal_sign(r.pauli) * abs(float(r.value)),
                             float(r.sigma))
            for r in records]


def _extract_pc(paulis, values, printed_form: bool = False):
    """``extract_pc`` on many tables at once: arrays of p and c.

    Every row of ``values`` is one table whose columns follow ``paulis``.
    A class sum averages its columns in record order, one column at a time,
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


def extract_pc(records, printed_form: bool = False) -> SymmetricModel:
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
    records = list(records)
    (p,), (c,) = _extract_pc([r.pauli for r in records],
                             np.array([[float(r.value) for r in records]]), printed_form)
    return SymmetricModel(p=float(p), c=float(c))


# the Monte Carlo draws its tables this many rows at a time; the generator
# fills rows in order, so the draws do not depend on the block size
_DRAW_BLOCK = 4096
# a draw counts as clipped when the domain clip moves p or c by more than
# this many ulp: an exact table on the domain edge lands an ulp outside it
_CLIP_ULPS = 4


def _moved(raw, clipped):
    return np.abs(clipped - raw) > _CLIP_ULPS * np.spacing(np.abs(raw))


def kw_from_correlators(records, samples: int = 2000, seed: int = 0) -> KWReport:
    """Monogamy estimate from a measured correlator table with uncertainty.

    The central value evaluates the closed forms at the extracted (p, c).
    The uncertainty draws ``samples`` tables, in blocks of a fixed number of
    rows, each record with sigma > 0 from a normal distribution with its
    sigma (values clipped to [-1, 1]), re-extracts, clips (p, c) to the
    physical domain, and takes the sample standard deviation.
    ``clipped_frac`` is the fraction of draws that the domain clip moved by
    more than a few ulp.
    """
    records = list(records)
    if samples < 100:
        raise ValueError("at least 100 Monte-Carlo samples are required")
    central = kw_symmetric(clip_to_domain(*astuple(extract_pc(records))))
    paulis = [r.pauli for r in records]
    values, sigmas = np.array([(r.value, r.sigma) for r in records], dtype=float).T
    live = sigmas > 0
    rng = np.random.default_rng(seed)
    kw, moved = [], 0
    for lo in range(0, samples, _DRAW_BLOCK):
        tables = np.tile(values, (min(_DRAW_BLOCK, samples - lo), 1))
        tables[:, live] = np.clip(rng.normal(
            values[live], sigmas[live], size=(len(tables), live.sum())), -1.0, 1.0)
        p, c = _extract_pc(paulis, tables)
        p_in, c_in = _clip_to_domain(p, c)
        s, j, e = _symmetric_forms(p_in, c_in)
        kw.append(s - j - e)
        moved += int(np.count_nonzero(_moved(p, p_in) | _moved(c, c_in)))
    return replace(central, method="correlator-estimate",
                   sigma=float(np.std(np.concatenate(kw), ddof=1)),
                   clipped_frac=moved / samples)
