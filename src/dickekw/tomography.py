"""Photon-counting tomography: settings, Born statistics, Poisson counts,
linear inversion, maximum-likelihood reconstruction, and bootstrap errors.

A measurement setting is a string over {X, Y, Z}, one letter per qubit
(leftmost = qubit a).  Outcomes are bit strings in the same order; bit 0
denotes the +1 eigenvalue of that qubit's operator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qmat


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
    if not qmat._whole(n, 1):
        raise ValueError(f"need at least one qubit, a whole number, got n={n!r}")
    return ["".join(p) for p in product("XYZ", repeat=n)]


def _check_settings(settings) -> tuple[str, ...]:
    """The one settings check: a sequence, not a bare string, of nonempty strings
    over X, Y, Z, as a tuple.  Each caller tests the lengths it needs."""
    if isinstance(settings, str) or not isinstance(settings, Sequence):
        raise ValueError("need a sequence of settings, got "
                         + "the string " * isinstance(settings, str) + repr(settings))
    for setting in settings:
        if not isinstance(setting, str) or not setting or any(l not in "XYZ" for l in setting):
            raise ValueError(f"bad measurement setting {setting!r}")
    return tuple(settings)


def born_probabilities(rho, setting: str) -> np.ndarray:
    """Outcome probabilities of a setting; nonnegative, summing to one."""
    return _born_table(rho, [setting])[1][0]


def _born_table(rho, settings) -> tuple[tuple[str, ...], np.ndarray]:
    """The checked settings as a tuple and their outcome probabilities."""
    rho = qmat.check_state(rho)
    n = qmat.num_qubits(rho)
    settings = _check_settings(settings)
    if not settings or any(len(s) != n for s in settings):
        raise ValueError(f"a {n}-qubit state needs one or more settings of "
                         f"{n} letters, got {list(settings)}")
    probs = _fit_probabilities(settings, rho[None]).reshape(len(settings), 2**n)
    return settings, np.clip(probs, 0.0, None)


# a count weighs at most -log(1e-12) < 28 in the fit's log-likelihood, which
# stays finite for every table whose total count is at most MAX_TOTAL_COUNT
MAX_TOTAL_COUNT = np.finfo(float).max / 28


@dataclass(frozen=True, eq=False)
class CountTable:
    """Read-only counts, checked: ``counts[s, i]`` >= 0 is the number of
    events of ``settings[s]`` whose outcome bits (qubit a first) spell ``i``,
    and the total is at most ``MAX_TOTAL_COUNT``.  ``len()`` is the number of
    cells; iterating yields one :class:`CountRecord` per cell."""

    settings: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        settings, counts = _check_settings(self.settings), np.array(self.counts)
        lengths = set(map(len, settings))
        if len(lengths) != 1 or counts.shape != (len(settings), 2 ** min(lengths)):
            raise ValueError(f"need settings of one length and counts of shape (settings, "
                             f"2**length), got {list(settings)} and {counts.shape}")
        # the kind test goes first: isfinite raises a TypeError on strings
        with np.errstate(over="ignore"):
            if not (counts.dtype.kind in "biuf" and np.isfinite(counts).all()
                    and counts.min() >= 0 and counts.sum(dtype=float) <= MAX_TOTAL_COUNT):
                raise ValueError("counts must be finite numbers >= 0 whose total "
                                 "is at most the largest float / 28")
        counts.flags.writeable = False
        object.__setattr__(self, "settings", settings)
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
    _check_settings((setting,))
    if len(setting) != n or len(outcome) != n or not set(outcome) <= {"0", "1"}:
        raise ValueError(f"bad count cell {setting},{outcome}: expected a "
                         f"setting and an outcome of {n} letters")
    return int(outcome, 2)


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
    rng = np.random.default_rng(qmat._seed(seed))
    return CountTable(settings, rng.poisson(mean_counts * probs))


def exact_counts(rho, settings, mean_counts: float = 1.0) -> CountTable:
    """Noiseless pseudo-counts: mean_counts times the exact probabilities."""
    settings, probs = _born_table(rho, settings)
    return CountTable(settings, mean_counts * probs)


def linear_inversion(table: CountTable) -> np.ndarray:
    """Direct inversion rho = 2**-n sum_P <P> P over the full correlator
    table of :func:`correlators_from_counts`: one product of the 4**n
    correlators with the stacked Pauli matrices.

    The output is Hermitian with unit trace but can fail positivity on noisy
    data; consumers decide whether that matters.
    """
    return _linear_inversion(table.settings, table.counts[None])[0]


def _linear_inversion(settings, counts: np.ndarray) -> np.ndarray:
    """:func:`linear_inversion` of each table of an (R, S, 2**n) stack; the
    first table without coverage names the first string it lacks."""
    values, _ = _correlators(settings, counts)
    _require_coverage(values, qmat.pauli_strings(len(settings[0])))
    return qmat._from_pauli_coords(values, len(settings[0]))


def _require_coverage(values: np.ndarray, strings) -> None:
    """The one coverage rule: name the first of ``strings`` whose value is NaN, row-major."""
    if len(missing := np.argwhere(np.isnan(values))):
        raise ValueError(f"no setting with data covers {strings[missing[0, -1]]}")


def mle_reconstruct(table: CountTable) -> TomographyResult:
    """Maximum-likelihood state reconstruction from a count table.

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
    """
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


def _fit_probabilities(settings, rho: np.ndarray) -> np.ndarray:
    """(R, 1, S * 2**n) outcome probabilities of an (R, 2**n, 2**n) stack: its
    Pauli coordinates signed into the outcomes."""
    signs, index = _layout(settings)
    coords = qmat._pauli_coords(rho)[:, index]
    return (coords @ signs / 2 ** len(settings[0])).reshape(len(rho), 1, -1)


def _fit_gradient(settings, ratio: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_fit_probabilities`: sum_k ratio[r, 0, k] Pi_k."""
    signs, index = _layout(settings)
    signed = ratio.reshape(len(ratio), len(settings), -1) @ signs.T
    return qmat._from_pauli_coords(_to_strings(index, signed), len(settings[0]))


def _mle(settings, counts: np.ndarray, max_iter: int = 5000) -> list[TomographyResult]:
    """:func:`mle_reconstruct` of a stack of count tables, iterated together:
    ``counts[r, s]`` is the outcome vector of ``settings[s]`` in table r, and
    each table has its own step, momentum and stopping test.  The products
    keep one row per table, so a table's fit does not depend on the others.
    """
    weights = counts.reshape(len(counts), 1, -1)
    if not (counts > 0).any(axis=(1, 2)).all():
        raise ValueError("all settings have zero total counts")

    def loglike(p):
        return (weights * np.log(np.clip(p, 1e-12, None))).sum(axis=(1, 2))

    rows = np.arange(len(counts))
    rho = bar = _project(_linear_inversion(settings, counts))
    fitted = np.empty_like(rho)
    iterations = np.full(len(rows), max_iter)
    p = p_bar = _fit_probabilities(settings, rho)
    ll = loglike(p)
    history = [ll.copy()]
    theta = np.ones(len(rows))
    step = 1 / weights.sum(axis=(1, 2))
    for it in range(1, max_iter + 1):
        grad = _fit_gradient(settings, weights / np.clip(p_bar, 1e-12, None))
        candidate = _project(bar + step[:, None, None] * grad)
        p_new = _fit_probabilities(settings, candidate)
        ll_new = loglike(p_new)
        gain = ll_new - ll
        up = gain >= 0
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


def bootstrap_fidelity(table: CountTable, target, n_boot: int = 100, seed: int = 0):
    """Bootstrap mean and standard deviation of the fidelity to a pure target.

    Each replica resamples every cell of the count table from
    Poisson(observed value), in table order, and scores the fidelity
    ``<target|rho|target>``, clipped to [0, 1], of the maximum-likelihood
    reconstruction of its resampled table.  Replicas draw from independent
    seed-derived streams and are fitted in blocks of a fixed size by the
    batched fit of :func:`mle_reconstruct`, linear-inversion starts
    included; a replica's fit equals a fit of its table alone.
    """
    if not qmat._whole(n_boot, 50):
        raise ValueError(f"at least 50 bootstrap replicas are required, got n_boot={n_boot!r}")
    target = qmat.check_state_vector(target)
    if (n := len(table.settings[0])) != qmat.num_qubits(target):
        raise ValueError(f"a {qmat.num_qubits(target)}-qubit target for {n}-qubit counts")
    streams = np.random.SeedSequence(qmat._seed(seed)).spawn(n_boot)
    fids = []
    for lo in range(0, n_boot, _BOOTSTRAP_BLOCK):
        resampled = np.array([np.random.default_rng(stream).poisson(table.counts)
                              for stream in streams[lo:lo + _BOOTSTRAP_BLOCK]])
        rhos = np.array([fit.rho for fit in _mle(table.settings, resampled)])
        fids += np.clip((target.conj() @ rhos @ target).real, 0.0, 1.0).tolist()
    return float(np.mean(fids)), float(np.std(fids, ddof=1))


def correlators_from_counts(table: CountTable, paulis=None) -> CorrelatorTable:
    """Pauli expectations with counting uncertainties from a count table.

    Each requested Pauli string (letters IXYZ) averages the signed
    frequencies over every refining setting with data; sigma propagates the
    binomial variance of a signed frequency, (1 - <P>_s^2) / N_s, across the
    settings used.  N_s is the setting's signed sum for ``I...I``, so that
    string is exactly 1 +/- 0.  ``paulis=None`` evaluates all 4**n strings.
    """
    from .correlations import CorrelatorTable
    n = len(table.settings[0])
    (values,), (sigmas,) = _correlators(table.settings, table.counts[None])
    paulis = tuple(qmat.pauli_strings(n) if paulis is None else paulis)
    index = []
    for pauli in paulis:
        index.append(qmat._pauli_index(pauli))
        if len(pauli) != n:
            raise ValueError(f"Pauli string {pauli!r} does not match {n} qubits")
    _require_coverage(values[index], paulis)
    return CorrelatorTable(paulis, values[index], sigmas[index])


@qmat.frozen_cache
def _layout(settings: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Outcome signs and string index of a settings tuple.  Let the bits of
    m mark the qubits a string keeps (not I), qubit a the most significant:
    ``signs[m, i]`` is the string's eigenvalue on outcome i in any setting,
    and ``index[s, m]`` the place in :func:`qmat.pauli_strings` of the
    string that ``settings[s]`` measures."""
    n = len(settings[0])
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    letters = np.array([[qmat._pauli_index(l) for l in s] for s in settings])
    return 1.0 - 2 * (bits @ bits.T % 2), (letters * 4 ** np.arange(n - 1, -1, -1)) @ bits.T


def _correlators(settings, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, 4**n) values and sigmas of an (R, S, 2**n) stack of count tables,
    NaN for a string that no setting with data refines."""
    signs, index = _layout(settings)
    signed = counts @ signs.T  # column 0, no qubit kept, is each setting's total
    totals = signed[..., :1]
    live = np.broadcast_to(totals > 0, signed.shape)
    est = np.divide(signed, totals, out=np.zeros_like(signed), where=live)
    var = np.divide(np.maximum(0.0, 1 - est * est), totals,
                    out=np.zeros_like(signed), where=live)
    used = _to_strings(index, live)
    with np.errstate(invalid="ignore"):
        return _to_strings(index, est) / used, np.sqrt(_to_strings(index, var)) / used


def _to_strings(index: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(R, 4**n) sums of an (R, S, 2**n) stack by ``index``, table by table."""
    strings = index.shape[1] ** 2
    slots = (index + strings * np.arange(len(x))[:, None, None]).ravel()
    return np.bincount(slots, x.ravel(), len(x) * strings).reshape(len(x), strings)
