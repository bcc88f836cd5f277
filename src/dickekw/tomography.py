"""Photon-counting tomography: settings, Born statistics, Poisson counts,
linear inversion, maximum-likelihood reconstruction, and bootstrap errors.

A measurement setting is a string over {X, Y, Z}, one letter per qubit
(leftmost = qubit a).  Outcomes are bit strings in the same order; bit 0
denotes the +1 eigenvalue of that qubit's operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import sqrt
from types import MappingProxyType

import numpy as np

from . import qmat
from .correlations import CorrelatorRecord
from .qmat import tensor

# rows of each matrix are the outcome bras (outcome 0 first = +1 eigenvalue)
_BASIS_BRAS = {
    "X": qmat.H,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


@dataclass
class CountRecord:
    """Registered events for one outcome of one setting.

    ``count`` is a nonnegative number; integral for real data, fractional
    only for exact-probability pseudo-counts.
    """

    setting: str
    outcome: str
    count: float


@dataclass
class TomographyResult:
    """Maximum-likelihood reconstruction output."""

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    log_likelihood_trace: np.ndarray


def settings_full(n: int) -> list[str]:
    """All 3**n local Pauli settings in lexicographic order (X < Y < Z)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return ["".join(p) for p in product("XYZ", repeat=n)]


def _check_setting(setting: str) -> str:
    if not setting or any(l not in _BASIS_BRAS for l in setting):
        raise ValueError(f"bad measurement setting {setting!r}")
    return setting


def setting_basis(setting: str) -> np.ndarray:
    """Matrix whose rows are the outcome bras of a setting."""
    _check_setting(setting)
    return tensor(*(_BASIS_BRAS[l] for l in setting))


@qmat.frozen_cache
def setting_projectors(setting: str) -> np.ndarray:
    """Stack of rank-1 projectors, indexed by outcome; cached, so read-only."""
    b = setting_basis(setting)
    return np.einsum("oi,oj->oij", b.conj(), b)


def born_probabilities(rho, setting: str) -> np.ndarray:
    """Outcome probabilities of a setting; nonnegative, summing to one."""
    b = setting_basis(setting)
    return _born_probabilities(qmat.check_state(rho), b)


def _born_probabilities(rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``born_probabilities`` of a validated state in the basis rows ``b``."""
    if rho.ndim == 1:
        probs = np.abs(b @ rho) ** 2
    else:
        probs = np.real(np.einsum("oi,ij,oj->o", b, rho, b.conj()))
    return np.clip(probs, 0.0, None)


def _outcome_strings(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(2**n)]


# numpy's Poisson sampler accepts means up to about 9.2e18
_MAX_MEAN_COUNTS = 1e18


def simulate_counts(rho, settings, mean_counts: float, seed: int) -> list[CountRecord]:
    """Poissonian photon-counting simulation.

    Each outcome of each setting registers Poisson(mean_counts * probability)
    events; draws follow the given setting order, so a fixed seed reproduces
    the records bit-identically.
    """
    if not 0 < mean_counts <= _MAX_MEAN_COUNTS:
        raise ValueError(f"mean counts {mean_counts} outside (0, {_MAX_MEAN_COUNTS:g}]")
    rho = qmat.check_state(rho)
    rng = np.random.default_rng(seed)
    records = []
    for setting in settings:
        probs = _born_probabilities(rho, setting_basis(setting))
        counts = rng.poisson(mean_counts * probs)
        for outcome, count in zip(_outcome_strings(len(setting)), counts):
            records.append(CountRecord(setting, outcome, int(count)))
    return records


def exact_counts(rho, settings, mean_counts: float = 1.0) -> list[CountRecord]:
    """Noiseless pseudo-counts: mean_counts times the exact probabilities."""
    rho = qmat.check_state(rho)
    records = []
    for setting in settings:
        probs = _born_probabilities(rho, setting_basis(setting))
        for outcome, p in zip(_outcome_strings(len(setting)), probs):
            records.append(CountRecord(setting, outcome, mean_counts * float(p)))
    return records


def _gather(counts):
    """Group records into {setting: outcome-count vector}; infer qubit count.
    ``_correlators``, ``_linear_inversion`` and ``_mle`` take its output."""
    table: dict[str, np.ndarray] = {}
    n = None
    for r in counts:
        setting = _check_setting(r.setting)
        if n is None:
            n = len(setting)
        if len(setting) != n or len(r.outcome) != n:
            raise ValueError("inconsistent setting/outcome lengths in counts")
        if float(r.count) < 0:
            raise ValueError("counts must be nonnegative")
        vec = table.setdefault(setting, np.zeros(2**n))
        vec[int(r.outcome, 2)] += float(r.count)
    if not table:
        raise ValueError("no count records given")
    return n, table


@qmat.frozen_cache
def _sign_vector(pauli: str) -> np.ndarray:
    """Outcome-indexed eigenvalue signs of a Pauli string within any
    setting that refines it."""
    single = {True: np.array([1.0, 1.0]), False: np.array([1.0, -1.0])}
    out = np.array([1.0])
    for letter in pauli:
        out = np.kron(out, single[letter == "I"])
    return out


def linear_inversion(counts) -> np.ndarray:
    """Direct inversion rho = 2**-n sum_P <P> P over the full correlator
    table of :func:`correlators_from_counts`.

    The output is Hermitian with unit trace but can fail positivity on noisy
    data; consumers decide whether that matters.
    """
    return _linear_inversion(*_gather(counts))


def _linear_inversion(n: int, table) -> np.ndarray:
    records = _correlators(n, table)
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    for r in records:
        rho += r.value * qmat.pauli_matrix(r.pauli)
    return rho / dim


def _psd_project(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        return np.eye(rho.shape[0], dtype=complex) / rho.shape[0]
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T


def mle_reconstruct(counts, max_iter: int = 5000, tol: float = 1e-14) -> TomographyResult:
    """Maximum-likelihood state reconstruction from count records.

    Runs accelerated projected-gradient ascent with restart on the
    Poisson/multinomial log-likelihood (Shang, Zhang and Ng, PRA 95,
    062336 (2017)).  Each step moves along the likelihood gradient from a
    Nesterov-extrapolated point and projects back onto the density
    matrices by putting the eigenvalues onto the probability simplex
    (Smolin, Gambetta and Smith, PRL 108, 070502 (2012)).  A step that
    would lower the likelihood is not taken: it restarts the momentum from
    the current state with a smaller step, so the likelihood trace is
    monotone.  Starts from the positivity-projected linear inversion and
    stops once a step changes the log-likelihood by at most ``tol`` times
    its magnitude, or after ``max_iter`` steps with ``converged=False``.
    This is the one-table call of the batched fit that
    :func:`bootstrap_fidelity` runs on its replicas.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n, table = _gather(counts)
    return _mle(n, tuple(table), np.array([list(table.values())]), max_iter, tol)[0]


def _simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    desc = -np.sort(-vals, axis=1)
    excess = np.cumsum(desc, axis=1) - 1
    support = (desc > excess / np.arange(1, vals.shape[1] + 1)).sum(axis=1)
    shift = excess[np.arange(len(vals)), support - 1] / support
    return np.clip(vals - shift[:, None], 0.0, None)


def _project(x: np.ndarray) -> np.ndarray:
    """Nearest density matrices, in Frobenius norm, to a Hermitian stack."""
    vals, vecs = np.linalg.eigh(x)
    return (vecs * _simplex(vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def _mle(n: int, settings, counts, max_iter: int = 5000,
         tol: float = 1e-14) -> list[TomographyResult]:
    """:func:`mle_reconstruct` of a stack of count tables, iterated together.

    ``counts[r, s]`` is the outcome vector of ``settings[s]`` in table r.
    Each table has its own step size (one over its total count, x1.5 after
    an accepted step, x0.2 after a refused one), momentum and stopping
    test.  An iteration is one batched product for the probabilities, one
    for the gradients and one batched ``eigh``; a Hermitian matrix viewed as
    real numbers is a vector whose dot product with another is the trace of
    their product.  The products keep one row per table, so a table's fit
    does not depend on the other tables of the stack.
    """
    dim = 2**n
    weights = counts.reshape(len(counts), 1, -1)
    flat = np.concatenate([setting_projectors(s) for s in settings]).reshape(
        weights.shape[-1], -1).view(float)
    starts = []
    for table in counts:
        if not (table > 0).any():
            raise ValueError("all settings have zero total counts")
        starts.append(_psd_project(_linear_inversion(n, dict(zip(settings, table)))))

    def probs_of(rho):
        return rho.reshape(len(rho), 1, -1).view(float) @ flat.T

    def loglike(p):
        return (weights * np.log(np.clip(p, 1e-12, None))).sum(axis=(1, 2))

    rows = np.arange(len(counts))
    rho = bar = np.array(starts)
    fitted = np.empty_like(rho)
    iterations = np.full(len(rows), max_iter)
    p = p_bar = probs_of(rho)
    ll = loglike(p)
    history = [ll.copy()]
    theta = np.ones(len(rows))
    step = 1 / weights.sum(axis=(1, 2))
    for it in range(1, max_iter + 1):
        grad = (weights / np.clip(p_bar, 1e-12, None)) @ flat
        candidate = _project(bar + step[:, None, None]
                             * grad.view(complex).reshape(-1, dim, dim))
        p_new = probs_of(candidate)
        ll_new = loglike(p_new)
        gain = ll_new - ll
        up = gain >= 0
        # an accepted step moves on with momentum; a refused one restarts
        # from the current state (beta = 0) with a fifth of the step
        theta_next = (1 + np.sqrt(1 + 4 * theta**2)) / 2
        beta = np.where(up, (theta - 1) / theta_next, 0.0)[:, None, None]
        previous, p_prev = rho, p
        rho = np.where(up[:, None, None], candidate, rho)
        p = np.where(up[:, None, None], p_new, p)
        bar = rho + beta * (candidate - previous)
        p_bar = p + beta * (p_new - p_prev)
        ll = np.where(up, ll_new, ll)
        theta = np.where(up, theta_next, 1.0)
        step = step * np.where(up, 1.5, 0.2)
        history.append(history[-1].copy())
        history[-1][rows] = ll
        done = np.abs(gain) <= tol * np.abs(ll)
        if done.any():
            fitted[rows[done]] = rho[done]
            iterations[rows[done]] = it
            keep = ~done
            rows, rho, p, ll, bar, p_bar, theta, step, weights = (
                x[keep] for x in (rows, rho, p, ll, bar, p_bar, theta, step, weights))
            if not len(rows):
                break
    fitted[rows] = rho
    fitted = (fitted + fitted.conj().swapaxes(1, 2)) / 2
    converged = np.ones(len(fitted), dtype=bool)
    converged[rows] = False
    history = np.array(history)
    return [TomographyResult(
        rho=fitted[r], log_likelihood=float(history[k, r]), iterations=int(k),
        converged=bool(converged[r]), log_likelihood_trace=history[:k + 1, r].copy())
        for r, k in enumerate(iterations)]


# bootstrap replicas are resampled and fitted this many at a time, which
# bounds the memory of a large replica count at four qubits
_BOOTSTRAP_BLOCK = 64


def bootstrap_fidelity(counts, target, n_boot: int = 100, seed: int = 0):
    """Bootstrap mean and standard deviation of the fidelity to a pure target.

    Each replica resamples every count from Poisson(observed value), in
    record order, and scores ``fidelity_pure(target, rho)`` of the
    maximum-likelihood reconstruction of its resampled table.  Replicas
    draw from independent seed-derived streams; they are fitted together,
    in blocks of a fixed size, by one batched accelerated projected-gradient
    iteration (see :func:`mle_reconstruct`), and the correlator layout of
    their linear-inversion starts is built once.  A replica's fit equals a
    fit of its table alone.
    """
    if n_boot < 50:
        raise ValueError("at least 50 bootstrap replicas are required")
    counts = list(counts)
    target = qmat.check_state_vector(target)
    n, table = _gather(counts)
    settings = {setting: k for k, setting in enumerate(table)}
    slots = [settings[r.setting] * 2**n + int(r.outcome, 2) for r in counts]
    observed = np.array([float(r.count) for r in counts])
    streams = np.random.SeedSequence(seed).spawn(n_boot)
    fids = []
    for lo in range(0, n_boot, _BOOTSTRAP_BLOCK):
        resampled = np.array([
            np.bincount(slots, np.random.default_rng(stream).poisson(observed),
                        len(table) * 2**n)
            for stream in streams[lo:lo + _BOOTSTRAP_BLOCK]])
        fits = _mle(n, tuple(table), resampled.reshape(len(resampled), len(table), -1))
        fids += [qmat.fidelity_pure(target, fit.rho) for fit in fits]
    return float(np.mean(fids)), float(np.std(fids, ddof=1))


def correlators_from_counts(counts, paulis=None) -> list[CorrelatorRecord]:
    """Pauli expectations with counting uncertainties from count records.

    Each requested Pauli string averages the signed frequencies over every
    refining setting with data; sigma propagates the binomial variance of a
    signed frequency, (1 - <P>_s^2) / N_s, across the settings used.
    ``paulis=None`` evaluates the full table of 4**n strings.
    """
    return _correlators(*_gather(counts), paulis)


def pauli_strings(n: int) -> list[str]:
    """All 4**n Pauli strings in lexicographic order over I < X < Y < Z."""
    return ["".join(p) for p in product("IXYZ", repeat=n)]


@lru_cache(maxsize=64)
def _correlator_layout(n: int, settings: tuple[str, ...]):
    """Read-only map from each Pauli string on n qubits to its sign vector
    and the indices of the settings that refine it; built once per table
    shape, since every bootstrap replica shares it."""
    return MappingProxyType({
        pauli: (_sign_vector(pauli), tuple(
            k for k, s in enumerate(settings)
            if all(p == "I" or p == s[i] for i, p in enumerate(pauli))))
        for pauli in pauli_strings(n)})


def _correlators(n: int, table, paulis=None) -> list[CorrelatorRecord]:
    layout = _correlator_layout(n, tuple(table))
    totals = [vec.sum() for vec in table.values()]
    freqs = [vec / tot if tot > 0 else None for vec, tot in zip(table.values(), totals)]
    records = []
    for pauli in layout if paulis is None else paulis:
        if len(pauli) != n:
            raise ValueError(f"Pauli string {pauli!r} does not match {n} qubits")
        sign, refines = layout.get(pauli, (None, ()))
        refining = [k for k in refines if freqs[k] is not None]
        if not refining:
            raise ValueError(f"no setting with data covers {pauli}")
        ests = np.array([sign @ freqs[k] for k in refining])
        variances = np.array([max(0.0, 1 - e * e) / totals[k]
                              for e, k in zip(ests, refining)])
        records.append(CorrelatorRecord(
            pauli, float(ests.mean()),
            float(np.sqrt(variances.sum()) / len(refining))))
    return records
