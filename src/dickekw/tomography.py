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


def _check_setting(setting: str) -> None:
    if not setting or any(l not in _BASIS_BRAS for l in setting):
        raise ValueError(f"bad measurement setting {setting!r}")


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
    return _born_table(rho, [setting])[1][0]


def _born_table(rho, settings) -> tuple[tuple[str, ...], np.ndarray]:
    """The checked settings as a tuple and their outcome probabilities."""
    rho = qmat.check_state(rho)
    n = qmat.num_qubits(rho)
    settings = tuple(settings)
    if not settings or any(len(s) != n for s in settings):
        raise ValueError(f"a {n}-qubit state needs one or more settings of "
                         f"{n} letters, got {list(settings)}")
    probs = []
    for b in map(setting_basis, settings):
        if rho.ndim == 1:
            probs.append(np.abs(b @ rho) ** 2)
        else:
            probs.append(np.real(np.einsum("oi,ij,oj->o", b, rho, b.conj())))
    return settings, np.clip(probs, 0.0, None)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Read-only counts: ``counts[s, i]`` is the number of events of
    ``settings[s]`` whose outcome bits (qubit a first) spell ``i``.
    ``len()`` is the number of cells; iterating yields one
    :class:`CountRecord` per cell, setting by setting."""

    settings: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts)
        counts.flags.writeable = False
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.counts.size

    def __iter__(self):
        n = len(self.settings[0])
        for setting, row in zip(self.settings, self.counts.tolist()):
            for i, count in enumerate(row):
                yield CountRecord(setting, format(i, f"0{n}b"), count)


def cell_index(setting: str, outcome: str, n: int) -> int:
    """Index of an outcome of n bits within a setting of n letters over
    X, Y, Z: the one check that a (setting, outcome) pair is well formed."""
    _check_setting(setting)
    if len(setting) != n or len(outcome) != n or not set(outcome) <= {"0", "1"}:
        raise ValueError(f"bad count cell {setting},{outcome}: expected a "
                         f"setting and an outcome of {n} letters")
    return int(outcome, 2)


def count_table(records) -> CountTable:
    """The :class:`CountTable` of count records (a table passes unchanged):
    settings in the order they first appear, records of the same outcome
    added up, and zero for an outcome without a record.  Every count, and
    the total of them all, must be a finite number >= 0."""
    if isinstance(records, CountTable):
        return records
    rows: dict[str, np.ndarray] = {}
    n, total = None, 0.0
    for r in records:
        n = n or len(r.setting)
        index = cell_index(r.setting, r.outcome, n)
        count = float(r.count)
        if not 0 <= count < np.inf:
            raise ValueError(f"count {r.count!r} of {r.setting},{r.outcome} "
                             "is not a finite number >= 0")
        total += count
        if total == np.inf:
            raise ValueError(f"count {r.count!r} of {r.setting},{r.outcome} "
                             "takes the total count past the largest float")
        rows.setdefault(r.setting, np.zeros(2**n))[index] += count
    if not rows:
        raise ValueError("no count records given")
    return CountTable(tuple(rows), np.array(list(rows.values())))


# numpy's Poisson sampler accepts means up to about 9.2e18
_MAX_MEAN_COUNTS = 1e18


def simulate_counts(rho, settings, mean_counts: float, seed: int) -> CountTable:
    """Poissonian photon-counting simulation.

    Each outcome of each setting registers Poisson(mean_counts * probability)
    events; draws follow the given setting order, so a fixed seed reproduces
    the table bit-identically.
    """
    if not 0 < mean_counts <= _MAX_MEAN_COUNTS:
        raise ValueError(f"mean counts {mean_counts} outside (0, {_MAX_MEAN_COUNTS:g}]")
    settings, probs = _born_table(rho, settings)
    return CountTable(settings, np.random.default_rng(seed).poisson(mean_counts * probs))


def exact_counts(rho, settings, mean_counts: float = 1.0) -> CountTable:
    """Noiseless pseudo-counts: mean_counts times the exact probabilities."""
    settings, probs = _born_table(rho, settings)
    return CountTable(settings, mean_counts * probs)


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
    table of :func:`correlators_from_counts`, from a table or records.

    The output is Hermitian with unit trace but can fail positivity on noisy
    data; consumers decide whether that matters.
    """
    table = count_table(counts)
    return _linear_inversion(table.settings, table.counts)


def _linear_inversion(settings, counts: np.ndarray) -> np.ndarray:
    records = _correlators(settings, counts)
    dim = counts.shape[1]
    rho = np.zeros((dim, dim), dtype=complex)
    for r in records:
        rho += r.value * qmat.pauli_matrix(r.pauli)
    return rho / dim


def mle_reconstruct(counts) -> TomographyResult:
    """Maximum-likelihood state reconstruction from a table or records.

    Runs accelerated projected-gradient ascent with restart on the
    Poisson/multinomial log-likelihood (Shang, Zhang and Ng, PRA 95,
    062336 (2017)).  Each step moves along the likelihood gradient from a
    Nesterov-extrapolated point and projects back onto the density
    matrices by putting the eigenvalues onto the probability simplex
    (Smolin, Gambetta and Smith, PRL 108, 070502 (2012)).  A step that
    would lower the likelihood is not taken: it restarts the momentum from
    the current state with a smaller step, so the likelihood trace is
    monotone.  Starts from the linear inversion projected onto the density
    matrices the same way, and stops once a step changes the
    log-likelihood by at most 1e-14 times its magnitude, or after 5000
    steps with ``converged=False``.
    This is the one-table call of the batched fit that
    :func:`bootstrap_fidelity` runs on its replicas.
    """
    table = count_table(counts)
    return _mle(table.settings, table.counts[None])[0]


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


# the fit stops once a step moves the log-likelihood by at most this
# fraction of its magnitude
_MLE_TOL = 1e-14


def _mle(settings, counts: np.ndarray, max_iter: int = 5000) -> list[TomographyResult]:
    """:func:`mle_reconstruct` of a stack of count tables, iterated together.

    ``counts[r, s]`` is the outcome vector of ``settings[s]`` in table r.
    Each table has its own step size (one over its total count, x1.5 after
    an accepted step, x0.2 after a refused one), momentum and stopping
    test.  An iteration is one batched product for the probabilities, one
    for the gradients and one batched ``eigh``; a Hermitian matrix viewed as
    real numbers is a vector whose dot product with another is the trace of
    their product.  The products keep one row per table, so a table's fit
    does not depend on the other tables of the stack.  A table still moving
    after ``max_iter`` steps stops with ``converged=False``.
    """
    dim = counts.shape[-1]
    weights = counts.reshape(len(counts), 1, -1)
    flat = np.concatenate([setting_projectors(s) for s in settings]).reshape(
        weights.shape[-1], -1).view(float)
    if not (counts > 0).any(axis=(1, 2)).all():
        raise ValueError("all settings have zero total counts")

    def probs_of(rho):
        return rho.reshape(len(rho), 1, -1).view(float) @ flat.T

    def loglike(p):
        return (weights * np.log(np.clip(p, 1e-12, None))).sum(axis=(1, 2))

    rows = np.arange(len(counts))
    rho = bar = _project(np.array([_linear_inversion(settings, table)
                                   for table in counts]))
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
        done = np.abs(gain) <= _MLE_TOL * np.abs(ll)
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

    Each replica resamples every cell of the count table (a table or
    records) from Poisson(observed value), in table order, and scores
    ``fidelity_pure(target, rho)`` of the maximum-likelihood reconstruction
    of its resampled table.  Replicas draw from independent seed-derived
    streams; they are fitted together, in blocks of a fixed size, by one
    batched accelerated projected-gradient iteration (see
    :func:`mle_reconstruct`), and the correlator layout of their
    linear-inversion starts is built once.  A replica's fit equals a
    fit of its table alone.
    """
    if n_boot < 50:
        raise ValueError("at least 50 bootstrap replicas are required")
    table = count_table(counts)
    target = qmat.check_state_vector(target)
    streams = np.random.SeedSequence(seed).spawn(n_boot)
    fids = []
    for lo in range(0, n_boot, _BOOTSTRAP_BLOCK):
        resampled = np.array([np.random.default_rng(stream).poisson(table.counts)
                              for stream in streams[lo:lo + _BOOTSTRAP_BLOCK]])
        fits = _mle(table.settings, resampled)
        fids += [qmat.fidelity_pure(target, fit.rho) for fit in fits]
    return float(np.mean(fids)), float(np.std(fids, ddof=1))


def correlators_from_counts(counts, paulis=None) -> list[CorrelatorRecord]:
    """Pauli expectations with counting uncertainties from a table or records.

    Each requested Pauli string averages the signed frequencies over every
    refining setting with data; sigma propagates the binomial variance of a
    signed frequency, (1 - <P>_s^2) / N_s, across the settings used.
    ``paulis=None`` evaluates the full table of 4**n strings.
    """
    table = count_table(counts)
    return _correlators(table.settings, table.counts, paulis)


def pauli_strings(n: int) -> list[str]:
    """All 4**n Pauli strings in lexicographic order over I < X < Y < Z."""
    return ["".join(p) for p in product("IXYZ", repeat=n)]


@lru_cache(maxsize=64)
def _correlator_layout(settings: tuple[str, ...]):
    """Read-only map from each Pauli string on the settings' qubits to its
    sign vector and the indices of the settings that refine it; built once
    per table shape, since every bootstrap replica shares it."""
    return MappingProxyType({
        pauli: (_sign_vector(pauli), tuple(
            k for k, s in enumerate(settings)
            if all(p == "I" or p == s[i] for i, p in enumerate(pauli))))
        for pauli in pauli_strings(len(settings[0]))})


def _correlators(settings, counts: np.ndarray, paulis=None) -> list[CorrelatorRecord]:
    layout = _correlator_layout(settings)
    n = len(settings[0])
    totals = [vec.sum() for vec in counts]
    freqs = [vec / tot if tot > 0 else None for vec, tot in zip(counts, totals)]
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
