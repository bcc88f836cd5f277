"""Round-trip tests for the on-disk formats."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dickekw import correlations as corr
from dickekw import io, qmat, states, tomography as tomo


def test_density_matrix_round_trip(tmp_path):
    rho = qmat.random_density_matrix(2, np.random.default_rng(1))
    path = tmp_path / "state.dm.json"
    io.save_density_matrix(path, rho)
    loaded = io.load_density_matrix(path)
    np.testing.assert_allclose(loaded, rho, atol=1e-15)
    doc = json.loads(path.read_text())
    assert doc["n_qubits"] == 2
    assert doc["qubit_order"] == "abcd-msb"


def test_density_matrix_accepts_ket(tmp_path):
    path = tmp_path / "bell.dm.json"
    io.save_density_matrix(path, states.psi_plus())
    np.testing.assert_allclose(io.load_density_matrix(path),
                               qmat.dm(states.psi_plus()), atol=1e-15)


def test_density_matrix_rejects_corrupt_document(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_qubits": 1, "qubit_order": "abcd-msb",
                                "re": [[1, 0], [1, 0]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(ValueError):
        io.load_density_matrix(path)
    path.write_text(json.dumps({"n_qubits": 1, "qubit_order": "other",
                                "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(ValueError):
        io.load_density_matrix(path)


QUBIT = {"n_qubits": 1, "qubit_order": "abcd-msb", "re": [[0.5, 0], [0, 0.5]],
         "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("doc, reason", [
    ({**QUBIT, "re": [[1, 0], [1, 0]]}, "not Hermitian"),
    ({**QUBIT, "re": [[0.6, 0], [0, 0.5]]}, "trace 1.1 differs from 1 beyond 1e-06"),
    ({**QUBIT, "re": [[1.5, 0], [0, -0.5]]}, "eigenvalue -0.5"),
    ({**QUBIT, "qubit_order": "other"}, "unsupported qubit order"),
    ({**QUBIT, "n_qubits": 2}, "do not match 2 qubits"),
    ({**QUBIT, "im": [0, 0]}, r"shapes \(2, 2\) and \(2,\)"),
    ({**QUBIT, "im": None}, "do not match 1 qubits"),
    ({**QUBIT, "re": [[1, 0], [0]]}, "with a sequence"),
    ({**QUBIT, "n_qubits": [1]}, r"int\(\)"),
    ({k: v for k, v in QUBIT.items() if k != "im"}, "missing field 'im'"),
    (5, "not iterable"),
    ("{", "Expecting"),
])
@pytest.mark.filterwarnings("error")
def test_density_matrix_errors_name_the_file(tmp_path, doc, reason):
    path = tmp_path / "bad.dm.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(ValueError, match=reason) as raised:
        io.load_density_matrix(path)
    assert str(raised.value).startswith(f"{path}: ")


@pytest.mark.parametrize("part, i, j", [("re", 0, 0), ("re", 0, 1), ("im", 1, 1), ("im", 0, 1)])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("physical", [True, False])
@pytest.mark.filterwarnings("error")
def test_density_matrix_rejects_non_finite_entries(tmp_path, part, i, j, bad, physical):
    # off the diagonal the entry and its mirror look Hermitian; before, an
    # Infinity there ended in "Eigenvalues did not converge"
    doc = json.loads(json.dumps(QUBIT))
    doc[part][i][j] = doc[part][j][i] = bad
    if not physical:
        doc["physical"] = False
    path = tmp_path / "bad.dm.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not a finite number") as raised:
        io.load_density_matrix(path)
    assert str(raised.value).startswith(f"{path}: ")


def test_non_psd_matrix_round_trips(tmp_path):
    # linear-inversion output may dip below zero; the format keeps it
    rho = np.diag([1.05, -0.05]).astype(complex)
    path = tmp_path / "li.dm.json"
    io.save_density_matrix(path, rho)
    np.testing.assert_allclose(io.load_density_matrix(path), rho, atol=1e-15)


def test_counts_round_trip(tmp_path):
    counts = tomo.simulate_counts(qmat.dm(states.psi_plus()),
                                  tomo.settings_full(2), 100, 0)
    path = tmp_path / "counts.csv"
    io.save_counts(path, counts)
    loaded = io.load_counts(path)
    assert [(r.setting, r.outcome, r.count) for r in loaded] == \
        [(r.setting, r.outcome, r.count) for r in counts]


def test_counts_reader_skips_header_and_comments(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("setting,outcome,count\n# comment\n\nZZ,00,5\nZZ,01,7\n")
    loaded = io.load_counts(path)
    assert loaded.settings == ("ZZ",)
    np.testing.assert_array_equal(loaded.counts, [[5, 7, 0, 0]])
    (tmp_path / "empty.csv").write_text("\n")
    with pytest.raises(ValueError):
        io.load_counts(tmp_path / "empty.csv")


def test_correlators_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    io.save_correlators(path, corr.REFERENCE_CORRELATOR_TABLE)
    loaded = io.load_correlators(path)
    reference = corr.REFERENCE_CORRELATOR_TABLE
    assert loaded.paulis == reference.paulis
    assert loaded.values.tolist() == reference.values.tolist()
    assert loaded.sigmas.tolist() == reference.sigmas.tolist()
    # numpy 2 would print a float64 scalar as np.float64(0.87)
    assert path.read_text().splitlines()[0] == "ZZZ,0.87,0.02"


def test_correlators_two_column_rows(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("ZZZ,-1.0\nZZI,-0.3333333333333333,0.01\n")
    loaded = io.load_correlators(path)
    assert loaded.sigmas.tolist() == [0.0, 0.01]
    assert loaded.values.tolist() == [-1.0, -0.3333333333333333]


def test_correlator_values_may_pass_one_by_1e_6(tmp_path):
    # the bound of a checked table: a file may hold exact values that
    # rounding took just past 1, but not a value of 7
    path = tmp_path / "table.csv"
    for value, ok in (("-1.0000005", True), ("1.000002", False), ("7", False)):
        path.write_text(f"ZZZ,0.5,0.1\nZZI,{value},0.01\n")
        if ok:
            assert io.load_correlators(path).values[1] == float(value)
        else:
            with pytest.raises(ValueError, match=f"{path}:2: bad correlator row"):
                io.load_correlators(path)


def test_kw_report_round_trip(tmp_path):
    report = corr.kw_symmetric(corr.SymmetricModel(0.31, 0.30375))
    path = tmp_path / "kw.json"
    io.save_kw_report(path, report)
    loaded = io.load_kw_report(path)
    assert loaded == report


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    io.atomic_write_text(path, "payload\n")
    assert path.read_text() == "payload\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_density_matrix_rejects_negative_spectrum(tmp_path):
    rho = np.diag([1.5, -0.5, 0.0, 0.0])
    path = tmp_path / "bad.dm.json"
    path.write_text(json.dumps({"n_qubits": 2, "qubit_order": "abcd-msb",
                                "re": rho.tolist(), "im": np.zeros((4, 4)).tolist()}))
    with pytest.raises(ValueError, match="eigenvalue -0.5"):
        io.load_density_matrix(path)
    # a document written for a non-positive matrix says so, and loads
    io.save_density_matrix(path, rho)
    assert json.loads(path.read_text())["physical"] is False
    np.testing.assert_allclose(io.load_density_matrix(path), rho, atol=1e-15)


def test_density_matrix_trace_tolerance_is_1e_6(tmp_path):
    path = tmp_path / "rounded.dm.json"
    for trace, ok in ((1 + 5e-7, True), (1 + 5e-6, False)):
        path.write_text(json.dumps({"n_qubits": 1, "qubit_order": "abcd-msb",
                                    "re": [[trace, 0], [0, 0]],
                                    "im": [[0, 0], [0, 0]]}))
        if ok:
            io.load_density_matrix(path)
        else:
            with pytest.raises(ValueError, match="trace"):
                io.load_density_matrix(path)


@pytest.mark.parametrize("loader, rows, line", [
    (io.load_counts, "ZZ,00,5\nZZ,01\n", 2),
    (io.load_counts, "setting,outcome,count\nZZ,00,abc\n", 2),
    (io.load_counts, "ZZ,00,nan\n", 1),
    (io.load_counts, "# note\nZZ,00,-3\n", 2),
    (io.load_counts, "ZZ,00,5\nZZ,-1,7\n", 2),
    (io.load_counts, "QQ,00,5\n", 1),
    (io.load_counts, "ZZ,0x,5\n", 1),
    (io.load_counts, "ZZ,00,5\nZZZ,000,3\n", 2),
    (io.load_counts, "ZZZ,1_0,7\n", 1),
    (io.load_counts, "ZZ,00,5\nZZ,01,-inf\n", 2),
    (io.load_counts, "ZZ,00,5\nZZ,01,5,5\n", 2),
    # numbers that float() reads but a typo made: 1_0 would load as 10 events
    (io.load_counts, "Z,0,1_0\n", 1),
    (io.load_counts, "Z,0,5\nZ,1,\u0663\n", 2),
    # counts that each keep the fit's log-likelihood finite but whose cell,
    # setting or file total does not, and one count that does not by itself
    (io.load_counts, "Z,0,4e306\nZ,0,4e306\n", 2),
    (io.load_counts, "Z,0,4e306\nZ,1,4e306\n", 2),
    (io.load_counts, "# note\nX,0,4e306\nZ,0,4e306\nY,0,3\n", 3),
    (io.load_counts, "Z,0,1e308\n", 1),
    pytest.param(io.load_counts, "".join(f"{s},{o},4e306\n" for s in tomo.settings_full(2)
                                         for o in ("00", "01", "10", "11")), 2,
                 id="load_counts-36 rows of 4e306-2"),
    (io.load_correlators, "ZZZ,-1.0\nZZI,abc,0.1\n", 2),
    (io.load_correlators, "ZZZ,-1.0,0.1,7\n", 1),
    (io.load_correlators, "\nZZZ,inf,0.1\n", 2),
    (io.load_correlators, "ZZZ,-1.0,-0.1\n", 1),
    (io.load_correlators, "ZZZ,0.87,0.02\nZZI,-0.3_5,0.04\n", 2),
    (io.load_correlators, "ZZZ,0.87,0.02\nZQZ,0.35,0.04\n", 2),
    (io.load_correlators, "zzz,0.87,0.02\n", 1),
    (io.load_correlators, ",0.87,0.02\n", 1),
    (io.load_correlators, "ZZZ,0.87,0.02\nZZ,0.35,0.04\n", 2),
    (io.load_correlators, "ZZ,0.35,0.04\nZZZ,0.87,0.02\n", 2),
    (io.load_correlators, "ZZZ,7,0.02\n", 1),
    (io.load_correlators, "ZZZ,0.87,0.02\nZZI,-1.01,0.04\n", 2),
])
@pytest.mark.filterwarnings("error")
def test_csv_readers_name_the_bad_line(tmp_path, loader, rows, line):
    path = tmp_path / "table.csv"
    path.write_text(rows)
    with pytest.raises(ValueError, match=f"{path}:{line}: bad"):
        loader(path)


def test_kw_report_rejects_unknown_and_missing_keys(tmp_path):
    doc = dataclasses.asdict(corr.kw_symmetric(corr.SymmetricModel(0.31, 0.30375)))
    path = tmp_path / "kw.json"
    path.write_text(json.dumps({**doc, "kappa": 1.0}))
    with pytest.raises(ValueError, match="unknown key 'kappa'"):
        io.load_kw_report(path)
    del doc["KW"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="KW"):
        io.load_kw_report(path)


@pytest.mark.parametrize("field, text", [
    ("S", '"x"'), ("J", "null"), ("KW", "NaN"), ("E", "true"), ("S", "1e400"),
    ("J", "-Infinity"), ("KW", "1" + "0" * 400), ("E", "[0.1]"), ("S", "{}"),
    ("sigma", "NaN"), ("theta_opt", '"0.7"'), ("phi_opt", "false"),
    ("clipped_frac", "Infinity"), ("sigma", "[]"),
    ("assignment", "null"), ("assignment", "3"), ("method", "[]"), ("method", "true"),
], ids=["string number", "null number", "NaN", "bool", "overflow", "minus infinity",
        "huge int", "list", "object", "NaN optional", "string optional", "bool optional",
        "infinite optional", "list optional", "null text", "number text", "list text",
        "bool text"])
def test_kw_report_rejects_bad_values(tmp_path, field, text):
    doc = dataclasses.asdict(corr.kw_symmetric(corr.SymmetricModel(0.31, 0.30375)))
    path = tmp_path / "kw.json"
    path.write_text(json.dumps({**doc, field: "@"}).replace('"@"', text))
    with pytest.raises(ValueError, match=f"^{path}: monogamy report has {field} = "):
        io.load_kw_report(path)


def test_kw_report_loads_integers_and_nulls(tmp_path):
    doc = dataclasses.asdict(corr.kw_symmetric(corr.SymmetricModel(0.31, 0.30375)))
    path = tmp_path / "kw.json"
    path.write_text(json.dumps({**doc, "E": 0, "sigma": None, "theta_opt": 1}))
    report = io.load_kw_report(path)
    assert (report.E, report.sigma, report.theta_opt) == (0, None, 1)


def test_kw_report_names_a_truncated_file(tmp_path):
    path = tmp_path / "kw.json"
    io.save_kw_report(path, corr.kw_symmetric(corr.SymmetricModel(0.31, 0.30375)))
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValueError, match=f"^{path}: Expecting"):
        io.load_kw_report(path)


def test_kw_report_round_trips_clipped_fraction(tmp_path):
    table = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
    report = corr.kw_from_correlators(table, samples=200, seed=1)
    assert report.clipped_frac is not None
    path = tmp_path / "kw.json"
    io.save_kw_report(path, report)
    assert io.load_kw_report(path) == report
    # reports written before the field existed still load
    doc = dataclasses.asdict(report)
    del doc["clipped_frac"]
    path.write_text(json.dumps(doc))
    assert io.load_kw_report(path).clipped_frac is None


# free text, rows of short comma-separated fields that often parse, and
# raw bytes that may not decode
csv_bytes = st.one_of(st.binary(max_size=100), st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from("XYZI01,.-+eEinfa# \t\r\n"),
                               st.characters(exclude_categories=["Cs"])),
            max_size=200),
    st.lists(st.lists(st.one_of(
        st.sampled_from(["ZZ", "XYZ", "01", "1", "-2", "0.5", " 3 ", "nan", "1e400", ""]),
        st.floats().map(repr), st.text(max_size=3)), min_size=2, max_size=4).map(",".join),
        min_size=1, max_size=4).map("\n".join)).map(str.encode))
fuzz = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("loader", [io.load_counts, io.load_correlators])
@fuzz
@given(data=csv_bytes)
def test_csv_readers_load_or_name_the_file(tmp_path, loader, data):
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    try:
        table = loader(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert table
