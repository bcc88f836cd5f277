"""File formats shared by the library and the command line.

Density matrices and monogamy reports are JSON documents; correlator tables
and count tables are bare CSV rows.  All writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import qmat

QUBIT_ORDER_TAG = "abcd-msb"


def _g(x: float) -> str:
    """A number as printed on the command line: six significant digits."""
    return f"{x:.6g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a temporary file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def density_matrix_document(rho) -> str:
    """JSON document for a ket or a density matrix checked as ``qmat.fidelity_pure`` checks it."""
    rho = qmat._state_matrix(rho, physical=False)
    doc = {
        "n_qubits": qmat.num_qubits(rho),
        "qubit_order": QUBIT_ORDER_TAG,
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }
    if np.linalg.eigvalsh(rho).min() < qmat.EIG_FLOOR:
        doc["physical"] = False
    return json.dumps(doc, indent=1)


def save_density_matrix(path: str, rho) -> None:
    atomic_write_text(path, density_matrix_document(rho) + "\n")


def load_density_matrix(path: str) -> np.ndarray:
    """Read a density-matrix document and check it as
    ``qmat.check_density_matrix`` does, except that the trace may differ
    from one by 1e-6 (files may hold rounded numbers) and the spectrum goes
    unchecked if the document says ``"physical": false``, as it does for a
    linear-inversion estimate.  Every error names the file."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
        for field in ("n_qubits", "qubit_order", "re", "im"):
            if field not in doc:
                raise ValueError(f"density-matrix file missing field {field!r}")
        if doc["qubit_order"] != QUBIT_ORDER_TAG:
            raise ValueError(f"unsupported qubit order {doc['qubit_order']!r}")
        real, imag = (np.asarray(doc[part], dtype=float) for part in ("re", "im"))
        n, side = doc["n_qubits"], len(real) if real.ndim else 0
        if type(n) is not int:  # not a bool, a float or a string of digits
            raise ValueError(f"n_qubits must be an integer, got {n!r}")
        # n meets the side's qubit count: a 2**n of a huge n would never return
        if not (real.shape == imag.shape == (side, side) and qmat.num_qubits(side) == n):
            raise ValueError(f"matrix parts of shapes {real.shape} and {imag.shape} "
                             f"do not match {n} qubits")
        # set, not added: inf * 1j would warn before the finite check
        rho = real.astype(complex)
        rho.imag = imag
        return qmat._check_matrix(rho, 1e-6, physical=doc.get("physical") is not False)
    except (RecursionError, TypeError, ValueError) as err:  # json: a nesting too deep to decode
        raise ValueError(f"{path}: {err}") from None


def _fmt_count(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def counts_document(table: CountTable) -> str:
    """CSV rows ``setting,outcome,count`` of a count table, setting by setting."""
    return "\n".join(f"{setting},{i:0{len(setting)}b},{_fmt_count(count)}"
                     for setting, row in zip(table.settings, table.counts.tolist())
                     for i, count in enumerate(row))


def save_counts(path: str, table: CountTable) -> None:
    atomic_write_text(path, counts_document(table) + "\n")


def _data_rows(path: str, header: str):
    """Yield (line number, stripped line) for the data rows of a CSV file."""
    with open(path) as handle:
        try:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if line and not line.startswith("#") and not line.startswith(header):
                    yield number, line
        except UnicodeDecodeError:
            raise ValueError(f"{path}: cannot be decoded as text") from None


# plain decimal or exponent notation; float() also reads 1_0, "infinity"
# and non-ASCII digits
_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _number(text: str, nonnegative: bool = False) -> float:
    value = float(text) if _NUMBER.fullmatch(text) else np.nan
    if not np.isfinite(value) or (nonnegative and value < 0):
        raise ValueError(f"{text} is not a finite number" + " >= 0" * nonnegative)
    return value


def load_counts(path: str) -> CountTable:
    """Read a counts file into a :class:`CountTable`: settings in the order
    they first appear, rows of the same cell added up, zero for a cell
    without a row, and a bad row named with its line and reason."""
    from .tomography import MAX_TOTAL_COUNT, CountTable, cell_index
    rows: dict[str, np.ndarray] = {}
    n, total = None, 0.0
    for number, line in _data_rows(path, "setting,"):
        try:
            setting, outcome, count = (field.strip() for field in line.split(","))
            n = n or len(setting)
            index = cell_index(setting, outcome, n)
            count = _number(count, nonnegative=True)
            total += count
            if total > MAX_TOTAL_COUNT:
                raise ValueError("it takes the total count past the largest float / 28")
            rows.setdefault(setting, np.zeros(2**n))[index] += count
        except ValueError as err:
            raise ValueError(f"{path}:{number}: bad counts row {line!r}: {err}") from None
    if not rows:
        raise ValueError(f"no count records in {path}")
    return CountTable(tuple(rows), np.array(list(rows.values())))


def save_correlators(path: str, table: CorrelatorTable) -> None:
    rows = zip(table.paulis, table.values.tolist(), table.sigmas.tolist())
    atomic_write_text(path, "".join(f"{p},{v!r},{s!r}\n" for p, v, s in rows))


def load_correlators(path: str) -> CorrelatorTable:
    """A correlator file as a :class:`CorrelatorTable`, each row checked with the first."""
    from .correlations import CorrelatorTable
    rows = []
    for number, line in _data_rows(path, "pauli,"):
        try:
            parts = line.split(",")
            if len(parts) == 2:
                parts.append("0")
            pauli, value, sigma = (field.strip() for field in parts)
            rows.append((pauli, _number(value), _number(sigma)))
            CorrelatorTable(*zip(rows[0], rows[-1]))  # the row's checks, and the first's length
        except ValueError:
            raise ValueError(f"{path}:{number}: bad correlator row {line!r}; expected "
                             "pauli,value[,sigma] with letters IXYZ, one length for the file, "
                             "finite numbers, |value| <= 1 + 1e-6 and sigma >= 0") from None
    if not rows:
        raise ValueError(f"no correlator rows in {path}")
    return CorrelatorTable(*zip(*rows))


def save_kw_report(path: str, report: KWReport) -> None:
    atomic_write_text(path, json.dumps(dataclasses.asdict(report), indent=1) + "\n")


def load_kw_report(path: str) -> KWReport:
    """A monogamy-report document as a :class:`KWReport`: its fields as keys,
    ``assignment`` and ``method`` strings, the rest finite numbers or, if optional, null."""
    from .correlations import KWReport
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except (RecursionError, ValueError) as err:
            raise ValueError(f"{path}: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a monogamy report is a JSON object")
    fields = {f.name: f for f in dataclasses.fields(KWReport)}
    missing = [name for name, f in fields.items()
               if name not in doc and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{path}: monogamy report is missing keys {missing}")
    for key, value in doc.items():
        if key not in fields:
            raise ValueError(f"{path}: unknown key {key!r} in monogamy report")
        text, optional = key in ("assignment", "method"), fields[key].default is None
        # not a bool, and no NaN, infinity or int past the largest float
        number = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if not (isinstance(value, str) if text else number or optional and value is None):
            raise ValueError(f"{path}: monogamy report has {key} = {value!r}; expected "
                             + ("a string" if text else "a finite number" + " or null" * optional))
    return KWReport(**doc)
