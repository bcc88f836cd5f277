"""Photon-counting tomography: settings, Born statistics, Poisson counts,
linear inversion, maximum-likelihood reconstruction, and bootstrap errors.

A measurement setting is a string over {X, Y, Z}, one letter per qubit
(leftmost = qubit a).  Outcomes are bit strings in the same order; bit 0
denotes the +1 eigenvalue of that qubit's operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import sqrt

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


def mle_reconstruct(counts, max_iter: int = 5000, tol: float = 1e-10) -> TomographyResult:
    """Maximum-likelihood state reconstruction from count records.

    Iterates the R rho R fixed point of the Poisson/multinomial
    log-likelihood, falling back to diluted steps whenever a full step would
    lower the likelihood, so the likelihood trace is monotone.  Starts from
    the positivity-projected linear inversion and stops once the
    log-likelihood gain drops below ``tol`` (or at ``max_iter``).
    """
    return _mle(*_gather(counts), max_iter, tol)


def _mle(n: int, table, max_iter: int = 5000, tol: float = 1e-10) -> TomographyResult:
    dim = 2**n
    projs = np.concatenate([setting_projectors(s)[vec > 0] for s, vec in table.items()])
    weights = np.concatenate([vec[vec > 0] for vec in table.values()])
    if not len(weights):
        raise ValueError("all settings have zero total counts")
    total = weights.sum()

    def probs_of(rho):
        return np.clip(np.real(np.einsum("kij,ji->k", projs, rho)), 1e-12, None)

    def loglike(p):
        return float(weights @ np.log(p))

    rho = _psd_project(_linear_inversion(n, table))
    ll = loglike(probs_of(rho))
    trace = [ll]
    iterations = 0
    converged = False
    eye = np.eye(dim)
    for iterations in range(1, max_iter + 1):
        p = probs_of(rho)
        r_op = np.einsum("k,kij->ij", weights / (total * p), projs)
        candidate = r_op @ rho @ r_op
        candidate /= np.trace(candidate).real
        ll_new = loglike(probs_of(candidate))
        if ll_new < ll - 1e-11 * (1 + abs(ll)):
            accepted = False
            eps = 0.5
            while eps > 1e-10:
                damped = eye + eps * r_op
                candidate = damped @ rho @ damped
                candidate /= np.trace(candidate).real
                ll_new = loglike(probs_of(candidate))
                if ll_new >= ll - 1e-11 * (1 + abs(ll)):
                    accepted = True
                    break
                eps /= 2
            if not accepted:
                converged = True
                break
        gain = ll_new - ll
        rho = candidate
        ll = ll_new
        trace.append(ll)
        if gain < tol:
            converged = True
            break
    rho = (rho + rho.conj().T) / 2
    return TomographyResult(
        rho=rho, log_likelihood=ll, iterations=iterations,
        converged=converged, log_likelihood_trace=np.array(trace))


def bootstrap_fidelity(counts, target, n_boot: int = 100, seed: int = 0):
    """Bootstrap mean and standard deviation of the fidelity to a pure target.

    Each replica resamples every count from Poisson(observed value), in
    record order, re-runs the maximum-likelihood reconstruction, and scores
    ``fidelity_pure(target, rho)``.  Replicas draw from independent
    seed-derived streams.
    """
    if n_boot < 50:
        raise ValueError("at least 50 bootstrap replicas are required")
    counts = list(counts)
    target = qmat.check_state_vector(target)
    n, table = _gather(counts)
    settings = {setting: k for k, setting in enumerate(table)}
    slots = [settings[r.setting] * 2**n + int(r.outcome, 2) for r in counts]
    observed = np.array([float(r.count) for r in counts])
    fids = []
    for stream in np.random.SeedSequence(seed).spawn(n_boot):
        draws = np.random.default_rng(stream).poisson(observed)
        resampled = np.bincount(slots, draws, len(table) * 2**n).reshape(len(table), -1)
        fids.append(qmat.fidelity_pure(target, _mle(n, dict(zip(table, resampled))).rho))
    return float(np.mean(fids)), float(np.std(fids, ddof=1))


def correlators_from_counts(counts, paulis=None) -> list[CorrelatorRecord]:
    """Pauli expectations with counting uncertainties from count records.

    Each requested Pauli string averages the signed frequencies over every
    refining setting with data; sigma propagates the binomial variance of a
    signed frequency, (1 - <P>_s^2) / N_s, across the settings used.
    ``paulis=None`` evaluates the full table of 4**n strings.
    """
    return _correlators(*_gather(counts), paulis)


def _correlators(n: int, table, paulis=None) -> list[CorrelatorRecord]:
    totals = {setting: vec.sum() for setting, vec in table.items() if vec.sum() > 0}
    freqs = {setting: table[setting] / tot for setting, tot in totals.items()}
    if paulis is None:
        paulis = ["".join(p) for p in product("IXYZ", repeat=n)]
    records = []
    for pauli in paulis:
        if len(pauli) != n:
            raise ValueError(f"Pauli string {pauli!r} does not match {n} qubits")
        refining = [s for s in freqs
                    if all(p == "I" or p == s[i] for i, p in enumerate(pauli))]
        if not refining:
            raise ValueError(f"no setting with data covers {pauli}")
        ests = np.array([_sign_vector(pauli) @ freqs[s] for s in refining])
        variances = np.array([max(0.0, 1 - e * e) / totals[s]
                              for e, s in zip(ests, refining)])
        records.append(CorrelatorRecord(
            pauli, float(ests.mean()),
            float(np.sqrt(variances.sum()) / len(refining))))
    return records
