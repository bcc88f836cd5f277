"""File formats shared by the library and the command line.

Density matrices and monogamy reports are JSON documents; correlator tables
and count tables are bare CSV rows.  All writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import numpy as np

from . import qmat
from .correlations import CorrelatorRecord, KWReport
from .tomography import MAX_TOTAL_COUNT, CountRecord, CountTable, cell_index, count_table

QUBIT_ORDER_TAG = "abcd-msb"


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
    """JSON document for a density matrix (kets are converted first)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        rho = qmat.dm(qmat.check_state_vector(rho))
    n = qmat.num_qubits(rho)
    doc = {
        "n_qubits": n,
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
    """Read a density-matrix document: Hermitian within ``qmat.ATOL``, unit
    trace within 1e-6 (files may hold rounded numbers; in memory it is
    ``qmat.ATOL``), and no eigenvalue below ``qmat.EIG_FLOOR`` unless the
    document says ``"physical": false``, as it does for a linear-inversion
    estimate."""
    with open(path) as handle:
        doc = json.load(handle)
    for field in ("n_qubits", "qubit_order", "re", "im"):
        if field not in doc:
            raise ValueError(f"density-matrix file missing field {field!r}")
    if doc["qubit_order"] != QUBIT_ORDER_TAG:
        raise ValueError(f"unsupported qubit order {doc['qubit_order']!r}")
    rho = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    n = int(doc["n_qubits"])
    if rho.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {rho.shape} does not match {n} qubits")
    if not np.allclose(rho, rho.conj().T, atol=qmat.ATOL, rtol=0):
        raise ValueError("file does not contain a Hermitian matrix")
    if abs(np.trace(rho).real - 1.0) > 1e-6:
        raise ValueError("matrix trace differs from 1")
    if doc.get("physical", True) is not False:
        lo = np.linalg.eigvalsh(rho).min()
        if lo < qmat.EIG_FLOOR:
            raise ValueError(f"{path}: matrix has eigenvalue {lo} below "
                             f"{qmat.EIG_FLOOR}")
    return rho


def _fmt_count(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def counts_document(records) -> str:
    """CSV rows ``setting,outcome,count`` of a count table or records."""
    return "\n".join(f"{r.setting},{r.outcome},{_fmt_count(r.count)}" for r in records)


def save_counts(path: str, records) -> None:
    atomic_write_text(path, counts_document(records) + "\n")


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


def _number(text: str, nonnegative: bool = False) -> float:
    value = float(text)
    if not np.isfinite(value) or (nonnegative and value < 0):
        raise ValueError(text)
    return value


def load_counts(path: str) -> CountTable:
    """Read a counts file into a :class:`CountTable`, checking every row and
    that the counts up to it add up to at most ``MAX_TOTAL_COUNT``."""
    records, n, total = [], None, 0.0
    for number, line in _data_rows(path, "setting,"):
        try:
            setting, outcome, count = (field.strip() for field in line.split(","))
            n = n or len(setting)
            cell_index(setting, outcome, n)
            count = _number(count, nonnegative=True)
            total += count
            if total > MAX_TOTAL_COUNT:
                raise ValueError(line)
            records.append(CountRecord(setting, outcome, count))
        except ValueError:
            raise ValueError(f"{path}:{number}: bad counts row {line!r}; "
                             "expected setting,outcome,count with letters XYZ, "
                             "bits 0/1, one length for the file and counts >= 0 "
                             f"summing to at most {MAX_TOTAL_COUNT:.3g}") from None
    if not records:
        raise ValueError(f"no count records in {path}")
    return count_table(records)


def save_correlators(path: str, records) -> None:
    lines = [f"{r.pauli},{r.value!r},{r.sigma!r}" for r in records]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_correlators(path: str) -> list[CorrelatorRecord]:
    """Read a correlator file, checking every row: a Pauli string over IXYZ
    of one length for the whole file, a finite value and a sigma >= 0."""
    records, n = [], None
    for number, line in _data_rows(path, "pauli,"):
        try:
            parts = line.split(",")
            if len(parts) == 2:
                parts.append("0")
            pauli, value, sigma = (field.strip() for field in parts)
            n = n or len(pauli)
            if len(qmat.check_pauli(pauli)) != n:
                raise ValueError(pauli)
            records.append(CorrelatorRecord(pauli, _number(value),
                                            _number(sigma, nonnegative=True)))
        except ValueError:
            raise ValueError(f"{path}:{number}: bad correlator row {line!r}; "
                             "expected pauli,value[,sigma] with letters IXYZ, "
                             "one length for the file, finite numbers "
                             "and sigma >= 0") from None
    if not records:
        raise ValueError(f"no correlator records in {path}")
    return records


def kw_report_document(report: KWReport) -> str:
    return json.dumps(dataclasses.asdict(report), indent=1)


def save_kw_report(path: str, report: KWReport) -> None:
    atomic_write_text(path, kw_report_document(report) + "\n")


def load_kw_report(path: str) -> KWReport:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a monogamy report is a JSON object")
    fields = {f.name: f for f in dataclasses.fields(KWReport)}
    for key in doc:
        if key not in fields:
            raise ValueError(f"{path}: unknown key {key!r} in monogamy report")
    missing = [name for name, f in fields.items()
               if name not in doc and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{path}: monogamy report is missing keys {missing}")
    return KWReport(**doc)
