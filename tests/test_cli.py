"""End-to-end tests of the command-line interface, driven in process."""

import functools
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dickekw import cli, io, qmat, report, states
from dickekw import correlations as corr


def run(*argv):
    return cli.main(list(argv))


def test_state_writes_density_matrix(tmp_path, capsys):
    out = tmp_path / "bell.dm.json"
    assert run("state", "psi-plus", "--out", str(out)) == 0
    np.testing.assert_allclose(io.load_density_matrix(out),
                               qmat.dm(states.psi_plus()), atol=1e-15)
    assert "wrote" in capsys.readouterr().out


def test_state_projection_prints_probability(tmp_path, capsys):
    out = tmp_path / "w1.dm.json"
    assert run("state", "dicke-4-2", "--project", "d=1", "--out", str(out)) == 0
    captured = capsys.readouterr().out
    assert "projection probability: 0.5" in captured
    np.testing.assert_allclose(io.load_density_matrix(out),
                               qmat.dm(states.dicke(3, 1)), atol=1e-12)


def test_state_prints_document_without_out(capsys):
    assert run("state", "psi-plus") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_qubits"] == 2


def test_state_unknown_name_fails(capsys):
    assert run("state", "ghz") == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        run("tomo", "simulate")  # missing --in
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [("kw", "exact", "--in", "w1.dm.json", "--grid", "24"),
                                  ("report", "--tol", "1e-3")])
def test_removed_search_flags_are_usage_errors(capsys, argv):
    # the J search has one fixed configuration, so its former flags are unknown
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err
    assert "Traceback" not in err


def test_tomo_simulate_deterministic(tmp_path, capsys):
    dm_path = tmp_path / "w1.dm.json"
    run("state", "w1", "--out", str(dm_path))
    c1 = tmp_path / "a.csv"
    c2 = tmp_path / "b.csv"
    for path in (c1, c2):
        assert run("tomo", "simulate", "--in", str(dm_path), "--counts", "500",
                   "--seed", "9", "--out", str(path)) == 0
    assert c1.read_text() == c2.read_text()
    capsys.readouterr()


def test_tomo_simulate_prints_the_counts_document_without_out(tmp_path, capsys):
    dm_path, counts = tmp_path / "w1.dm.json", tmp_path / "counts.csv"
    run("state", "w1", "--out", str(dm_path))
    run("tomo", "simulate", "--in", str(dm_path), "--counts", "500", "--seed", "9",
        "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "simulate", "--in", str(dm_path), "--counts", "500", "--seed", "9") == 0
    *document, summary = capsys.readouterr().out.splitlines()
    assert "\n".join(document) + "\n" == counts.read_text()
    assert summary.startswith("simulated 27 settings, ")


def test_tomo_reconstruct_with_target(tmp_path, capsys):
    dm_path = tmp_path / "w1.dm.json"
    counts = tmp_path / "counts.csv"
    fit = tmp_path / "fit.dm.json"
    run("state", "w1", "--out", str(dm_path))
    run("tomo", "simulate", "--in", str(dm_path), "--counts", "2000",
        "--seed", "42", "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts),
               "--target", str(dm_path), "--out", str(fit)) == 0
    captured = capsys.readouterr().out
    assert "fidelity = 0.99" in captured
    assert "converged=True" in captured
    rho = io.load_density_matrix(fit)
    qmat.check_density_matrix(rho)


def test_tomo_reconstruct_scores_against_the_top_eigenvector(tmp_path, capsys):
    w1, counts = tmp_path / "w1.dm.json", tmp_path / "counts.csv"
    run("state", "w1", "--out", str(w1))
    run("tomo", "simulate", "--in", str(w1), "--counts", "200", "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts), "--target", str(w1),
               "--bootstrap", "50") == 0
    assert capsys.readouterr().out.splitlines()[1] == \
        "fidelity = 0.999309 (bootstrap 0.9981 +/- 0.000728383)"
    # a mixed target fails after the fit, with one line
    mixed = tmp_path / "noisy.dm.json"
    run("state", "noisy-dicke:p=0.765", "--project", "d=1", "--out", str(mixed))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts), "--target", str(mixed)) == 1
    assert capsys.readouterr().err == "error: fidelity target must be a pure state\n"


def test_tomo_reconstruct_bootstrap(tmp_path, capsys):
    dm_path = tmp_path / "bell.dm.json"
    counts = tmp_path / "counts.csv"
    run("state", "psi-plus", "--out", str(dm_path))
    run("tomo", "simulate", "--in", str(dm_path), "--counts", "500",
        "--seed", "1", "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts),
               "--target", str(dm_path), "--bootstrap", "50") == 0
    assert "+/-" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["mle", "linear"])
def test_tomo_reconstruct_bootstrap_needs_a_target(tmp_path, capsys, method):
    # the bootstrap scores its fits against the target: without one it has
    # nothing to print, and the command must not exit 0
    dm_path = tmp_path / "bell.dm.json"
    counts = tmp_path / "counts.csv"
    run("state", "psi-plus", "--out", str(dm_path))
    run("tomo", "simulate", "--in", str(dm_path), "--counts", "500", "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts), "--method", method,
               "--bootstrap", "50", "--out", str(tmp_path / "fit.dm.json")) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: --bootstrap needs --target, the pure state "
                                 "to score the fits against\n")
    assert not (tmp_path / "fit.dm.json").exists()


def test_tomo_reconstruct_linear_flags_negativity(tmp_path, capsys):
    dm_path = tmp_path / "w1.dm.json"
    counts = tmp_path / "counts.csv"
    run("state", "w1", "--out", str(dm_path))
    run("tomo", "simulate", "--in", str(dm_path), "--counts", "60",
        "--seed", "3", "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts),
               "--method", "linear") == 0
    # low statistics: reconstruction is reported even when not physical
    capsys.readouterr()


def test_tomo_reconstruct_linear_scores_an_estimate_that_is_not_positive(tmp_path, capsys):
    # at 20 counts the linear estimate of w1 has eigenvalue -0.210; the
    # fidelity reads it anyway, since it checks no spectrum
    w1, counts = tmp_path / "w1.dm.json", tmp_path / "counts.csv"
    run("state", "w1", "--out", str(w1))
    run("tomo", "simulate", "--in", str(w1), "--counts", "20", "--seed", "1",
        "--out", str(counts))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(counts), "--method", "linear",
               "--target", str(w1)) == 0
    out, err = capsys.readouterr()
    warning, _, fidelity = out.splitlines()
    assert warning == "warning: not positive semidefinite (min eigenvalue -0.210132)"
    assert fidelity.startswith("fidelity = ") and err == ""


@pytest.mark.parametrize("counts, seed, overlap", [("20", "1", "1.03472"), ("200", "0", "1.01446")])
def test_tomo_reconstruct_names_an_overlap_that_the_fidelity_clips(tmp_path, capsys, counts,
                                                                    seed, overlap):
    # <psi|rho|psi> of a linear estimate that is not positive can pass 1; the
    # fidelity line still reads the clipped value, and a warning gives the overlap
    w1, table = tmp_path / "w1.dm.json", tmp_path / "counts.csv"
    run("state", "w1", "--out", str(w1))
    run("tomo", "simulate", "--in", str(w1), "--counts", counts, "--seed", seed,
        "--out", str(table))
    capsys.readouterr()
    assert run("tomo", "reconstruct", "--counts", str(table), "--method", "linear",
               "--target", str(w1)) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [
        f"warning: <psi|rho|psi> = {overlap} is outside [0, 1]; the fidelity is clipped",
        "fidelity = 1"]
    assert err == ""
    # a fit inside [0, 1] prints no such line
    assert run("tomo", "reconstruct", "--counts", str(table), "--target", str(w1)) == 0
    assert "<psi|rho|psi>" not in capsys.readouterr().out


def test_tomo_reconstruct_undercovered_counts_fail(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("XX,00,10\nXX,11,10\n")
    assert run("tomo", "reconstruct", "--counts", str(counts),
               "--method", "linear") == 1
    assert "error:" in capsys.readouterr().err


def test_tomo_reconstruct_names_the_bad_counts_row(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("ZZ,00,5\nZZ,-1,7\n")
    assert run("tomo", "reconstruct", "--counts", str(counts)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {counts}:2: bad counts row 'ZZ,-1,7'")
    assert len(err.splitlines()) == 1


def test_kw_exact_report(tmp_path, capsys):
    dm_path = tmp_path / "w1.dm.json"
    out = tmp_path / "kw.json"
    run("state", "w1", "--out", str(dm_path))
    capsys.readouterr()
    assert run("kw", "exact", "--in", str(dm_path),
               "--assignment", "b|a,c", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["assignment"] == "b|a,c"
    assert doc["method"] == "exact"
    assert abs(doc["KW"]) < 1e-6
    assert doc["S"] == pytest.approx(0.91829583405449, abs=1e-9)


def test_kw_exact_all_permutations(tmp_path, capsys):
    dm_path = tmp_path / "w1.dm.json"
    out = tmp_path / "kw6.json"
    run("state", "w1", "--out", str(dm_path))
    capsys.readouterr()
    assert run("kw", "exact", "--in", str(dm_path), "--all-permutations",
               "--out", str(out)) == 0
    captured = capsys.readouterr().out
    assert "average KW" in captured
    docs = json.loads(out.read_text())
    assert len(docs) == 6
    assert len({d["assignment"] for d in docs}) == 6


def test_kw_symmetric_command(tmp_path, capsys):
    out = tmp_path / "kw.json"
    assert run("kw", "symmetric", "--p", "0.31", "--c", "0.30375",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["KW"] == pytest.approx(0.0338854314666889, abs=1e-12)
    capsys.readouterr()
    assert run("kw", "symmetric", "--p", "0.31", "--c", "0.30375",
               "--strict") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("p, c", [("nan", "0.1"), ("0.3", "nan"), ("inf", "0.1"),
                                  ("1e200", "0.1"), ("0.3", "1e200"), ("1e-200", "0")])
def test_kw_symmetric_rejects_non_finite_parameters(capsys, p, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("kw", "symmetric", "--p", p, "--c", c) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_kw_correlators_sign_maps_agree(tmp_path, capsys):
    magnitudes = tmp_path / "mag.csv"
    io.save_correlators(magnitudes, corr.REFERENCE_CORRELATOR_TABLE)
    signed = tmp_path / "signed.csv"
    io.save_correlators(signed, corr.apply_sign_map(
        corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1"))
    out1 = tmp_path / "kw1.json"
    out2 = tmp_path / "kw2.json"
    assert run("kw", "correlators", "--table", str(magnitudes),
               "--sign-map", "ideal-w1", "--seed", "0",
               "--out", str(out1)) == 0
    assert run("kw", "correlators", "--table", str(signed),
               "--sign-map", "raw", "--seed", "0", "--out", str(out2)) == 0
    captured = capsys.readouterr().out
    assert "extracted model: p=0.31 c=0.30375" in captured
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("sign_map", ["raw", "ideal-w1"])
def test_kw_correlators_names_the_bad_pauli_row(tmp_path, capsys, sign_map):
    table = tmp_path / "table.csv"
    table.write_text("ZZZ,0.87,0.02\nZQZ,0.35,0.04\n")
    assert run("kw", "correlators", "--table", str(table),
               "--sign-map", sign_map) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}:2: bad correlator row 'ZQZ,0.35,0.04'")
    assert len(err.splitlines()) == 1


def test_kw_correlators_prints_nothing_when_the_samples_are_out_of_range(tmp_path, capsys):
    table = tmp_path / "table.csv"
    io.save_correlators(table, corr.REFERENCE_CORRELATOR_TABLE)
    for samples in ("99", str(10**7 + 1)):
        assert run("kw", "correlators", "--table", str(table), "--samples", samples) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Monte-Carlo samples must be from 100")


def test_kw_correlators_names_a_value_past_one(tmp_path, capsys):
    # ZZZ = 7 would give p = 1.07625, past the model's domain, and a KW
    table = tmp_path / "table.csv"
    io.save_correlators(table, corr.REFERENCE_CORRELATOR_TABLE)
    table.write_text(table.read_text().replace("ZZZ,0.87", "ZZZ,7"))
    assert run("kw", "correlators", "--table", str(table)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {table}:1: bad correlator row 'ZZZ,7,0.02'")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (("state", "dicke-4-2", "--project", "cd=1"), "qubit 'cd' out of range"),
    (("state", "dicke-4-2", "--project", "=1"), "qubit '' out of range"),
    (("kw", "exact", "--in", "w1.dm.json", "--assignment", "b|,c"), "bad assignment 'b|,c'"),
    (("state", "noisy-dicke:p="), "bad name 'noisy-dicke:p='"),
    (("tomo", "simulate", "--in", "w1.dm.json", "--seed", "-1"), "got seed=-1"),
    (("tomo", "reconstruct", "--counts", "counts.csv", "--target", "w1.dm.json",
      "--bootstrap", "50", "--seed", "-1"), "got seed=-1"),
    (("kw", "correlators", "--table", "table.csv", "--seed", "-1"), "got seed=-1"),
    (("report", "--seed", "-1", "--bootstrap", "50", "--samples", "200"), "got seed=-1"),
], ids=["project-cd", "project-empty", "assignment", "state-p", "simulate-seed",
        "bootstrap-seed", "correlators-seed", "report-seed"])
def test_a_bad_qubit_name_state_name_or_seed_fails_with_one_error_line(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    run("state", "w1", "--out", "w1.dm.json")
    run("tomo", "simulate", "--in", "w1.dm.json", "--counts", "200", "--out", "counts.csv")
    io.save_correlators("table.csv", corr.REFERENCE_CORRELATOR_TABLE)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1


def test_kw_correlators_reports_clipped_fraction(tmp_path, capsys):
    table = tmp_path / "table.csv"
    io.save_correlators(table, corr.REFERENCE_CORRELATOR_TABLE)
    out = tmp_path / "kw.json"
    assert run("kw", "correlators", "--table", str(table), "--out", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "extracted model: p=0.31 c=0.30375",
        "b|a,c [correlator-estimate]: S=0.951384 J=0.424562 E=0.492936 "
        "KW=0.0338854 +/- 0.0174934",
        "draws clipped to the physical domain: 0.3085",
    ]
    assert io.load_kw_report(out).clipped_frac == 617 / 2000


def test_report_command(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run("report", "--counts", "400", "--bootstrap", "50",
               "--samples", "200", "--out", str(out)) == 0
    text = out.read_text()
    headers = [line for line in text.splitlines() if line.startswith("[")]
    assert headers == [f"[{title}]" for title, _ in report.SECTIONS]
    assert len(headers) == 8
    assert "fidelity to dicke(4,2): 0.779688" in text
    assert text.count("  draws clipped to the physical domain: ") == 2
    capsys.readouterr()


def test_report_prints_a_given_mean_count_as_its_default(tmp_path, capsys):
    # argparse passes the default 10000 through without type=float
    texts = []
    for extra in ((), ("--counts", "10000")):
        out = tmp_path / f"report{len(texts)}.txt"
        assert run("report", *extra, "--bootstrap", "50", "--samples", "200", "--out", str(out)) == 0
        texts.append(re.sub(r"\(\d+\.\d{3} ms\)$", "(timed)", out.read_text(), flags=re.M))
    assert texts[0] == texts[1]
    assert "mean_counts=10000 " in texts[0] and "  w1 at mean 10000 counts, " in texts[0]
    capsys.readouterr()


def test_each_report_section_alone_gives_its_block():
    # sections share no state: run alone, last first, each returns its block
    args = cli.build_parser().parse_args(["report", "--counts", "400", "--bootstrap", "50",
                                          "--samples", "200", "--seed", "7"])
    untimed = functools.partial(re.sub, r"\(\d+\.\d{3} ms\)$", "(timed)")
    alone = [section(args) for _, section in reversed(report.SECTIONS)][::-1]
    blocks = report.report_text(args).split("\n\n")
    assert len(blocks) == 1 + len(report.SECTIONS)
    for (title, _), lines, block in zip(report.SECTIONS, alone, blocks[1:]):
        assert all(isinstance(line, str) for line in lines)
        assert [f"[{title}]", *map(untimed, lines)] == list(map(untimed, block.split("\n")))


def test_outputs_are_atomic(tmp_path, capsys):
    out = tmp_path / "bell.dm.json"
    run("state", "psi-plus", "--out", str(out))
    assert os.listdir(tmp_path) == ["bell.dm.json"]
    capsys.readouterr()


def test_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "dickekw.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "state" in result.stdout and "tomo" in result.stdout


@pytest.mark.parametrize("counts", ["nan", "inf", "-5", "1e300"])
def test_tomo_simulate_rejects_bad_mean_counts(tmp_path, capsys, counts):
    dm_path = tmp_path / "w1.dm.json"
    run("state", "w1", "--out", str(dm_path))
    assert run("tomo", "simulate", "--in", str(dm_path), "--counts", counts) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: mean counts {float(counts)} outside")


def test_cli_import_leaves_scipy_out():
    code = ("import sys, dickekw.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_report_module_leaves_the_cli_out():
    # report formats numbers with io._g, so `python -m dickekw.cli report`
    # does not load cli.py a second time under its package name
    code = "import sys, dickekw.report; print('dickekw.cli' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


LAYERS = {"dickekw", "dickekw.cli", "dickekw.io", "dickekw.qmat", "dickekw.states"}


@pytest.mark.parametrize("argv, loaded", [
    (("state", "w1", "--out", "w1.dm.json"), LAYERS),
    (("tomo", "simulate", "--in", "w1.dm.json", "--counts", "200", "--out", "counts.csv"),
     LAYERS | {"dickekw.tomography"}),
    (("tomo", "reconstruct", "--counts", "counts.csv", "--out", "fit.dm.json"),
     LAYERS | {"dickekw.tomography"}),
    (("kw", "exact", "--in", "w1.dm.json", "--all-permutations"),
     LAYERS | {"dickekw.correlations"}),
    (("kw", "correlators", "--table", "table.csv", "--samples", "200"),
     LAYERS | {"dickekw.correlations"}),
    (("report", "--bootstrap", "50", "--samples", "200"),
     LAYERS | {"dickekw.correlations", "dickekw.report", "dickekw.tomography"}),
], ids=["state", "tomo simulate", "tomo reconstruct", "kw exact", "kw correlators", "report"])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, capsys, argv, loaded):
    run("state", "w1", "--out", str(tmp_path / "w1.dm.json"))
    run("tomo", "simulate", "--in", str(tmp_path / "w1.dm.json"), "--counts", "200",
        "--out", str(tmp_path / "counts.csv"))
    io.save_correlators(tmp_path / "table.csv", corr.REFERENCE_CORRELATOR_TABLE)
    capsys.readouterr()
    code = ("import sys; from dickekw import cli; status = cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dickekw')); "
            "sys.exit(status)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(sorted(loaded))


PACKAGE_NAMES = """
    correlations io qmat states tomography
    KWReport SymmetricModel classical_correlations concurrence correlator_table
    entanglement_of_formation extract_pc kw_all_permutations kw_exact kw_exact_many
    kw_from_correlators kw_symmetric
    dm fidelity_pure partial_trace project tensor von_neumann_entropy
    DICKE_CIRCUIT circuit_to_dicke dicke ket_xi noisy_dicke psi_plus reduce_state
    bootstrap_fidelity correlators_from_counts linear_inversion mle_reconstruct
    settings_full simulate_counts""".split()


def test_package_names_resolve_on_first_use():
    # the names that the package imported eagerly before it loaded lazily
    import dickekw

    for name in PACKAGE_NAMES:
        namespace = {}
        exec(f"from dickekw import {name}", namespace)
        assert namespace[name] is getattr(dickekw, name)
        assert name in dir(dickekw)
    assert sorted(dickekw.__all__) == sorted(PACKAGE_NAMES)
    assert dickekw.kw_exact is corr.kw_exact and dickekw.qmat is qmat
    with pytest.raises(AttributeError, match="no attribute 'w_state'"):
        dickekw.w_state
