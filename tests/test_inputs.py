"""One rule per kind of input: every public entry that takes qubit indices or
names, projection outcomes, measurement settings, Pauli strings, sizes or seeds
rejects a bad one with one ValueError, never a TypeError or a result."""

import re

import numpy as np
import pytest

from dickekw import correlations as corr
from dickekw import io, qmat, states, tomography as tomo

W1 = qmat.dm(states.dicke(3, 1))
PAIR = qmat.partial_trace(W1, (0, 1))
COUNTS = tomo.exact_counts(W1, tomo.settings_full(3), 100.0)
CX = states.GateSpec("CX", target=0, control=2)
TABLE = corr.apply_sign_map(corr.REFERENCE_CORRELATOR_TABLE, "ideal-w1")
BELL = tomo.simulate_counts(qmat.dm(states.psi_plus()), tomo.settings_full(2), 200, 43)

BAD_INPUTS = {
    # qubit indices: an int or numpy integer, not a bool, in range, distinct
    "partial_trace-float": lambda: qmat.partial_trace(W1, [0.5]),
    "partial_trace-bool": lambda: qmat.partial_trace(W1, [True, 2]),
    "partial_trace-string": lambda: qmat.partial_trace(W1, ["a"]),
    "partial_trace-range": lambda: qmat.partial_trace(W1, [3]),
    "partial_trace-repeat": lambda: qmat.partial_trace(W1, [1, 1]),
    "partial_trace-empty": lambda: qmat.partial_trace(W1, []),
    "project-float": lambda: qmat.project(W1, [(0.5, 0)]),
    "project-bool": lambda: qmat.project(W1, [(True, 0)]),
    "project-float-index": lambda: qmat.project(W1, [(1.0, 0)]),
    "project-range": lambda: qmat.project(W1, [(-1, 0)]),
    "project-repeat": lambda: qmat.project(W1, [(np.int64(1), 0), (1, 1)]),
    "reduce_state-float": lambda: states.reduce_state(W1, [(0.5, 0)]),
    "gate-float": lambda: states.gate_unitary(states.GateSpec("H", target=0.5), 2),
    "gate-bool": lambda: states.gate_unitary(states.GateSpec("H", target=True), 2),
    "gate-range": lambda: states.gate_unitary(states.GateSpec("Z", target=2), 2),
    "gate-no-control": lambda: states.gate_unitary(states.GateSpec("CX", target=0), 2),
    "gate-bool-control": lambda: states.gate_unitary(
        states.GateSpec("CX", target=0, control=True), 2),
    "gate-control-is-target": lambda: states.gate_unitary(
        states.GateSpec("CZbar", target=1, control=1), 2),
    "gate-kind": lambda: states.gate_unitary(states.GateSpec("T", target=0), 2),
    "classical_correlations-bool": lambda: corr.classical_correlations(PAIR, True),
    "classical_correlations-range": lambda: corr.classical_correlations(PAIR, 2),
    "kw_exact-float": lambda: corr.kw_exact(W1, (0, 1, 2.0)),
    "kw_exact_many-repeat": lambda: corr.kw_exact_many([W1], (0, 1, 1)),
    # qubit names: exactly one letter a-d of the state's qubits, spaces around it ignored
    "parse_projections-two-letters": lambda: states.parse_projections("cd=1", 4),
    "parse_projections-no-letter": lambda: states.parse_projections("=1", 4),
    "parse_projections-four-letters": lambda: states.parse_projections("abcd=0", 4),
    "parse_assignment-no-letter": lambda: corr.parse_assignment("b|,c"),
    "parse_assignment-two-letters": lambda: corr.parse_assignment("bc|a,d"),
    "kw_exact-no-letter": lambda: corr.kw_exact(W1, "b|,c"),
    # outcomes: 0 or 1 under the index rule, or a one-qubit ket
    "outcome-2": lambda: qmat.project(W1, [(0, 2)]),
    "outcome-bool": lambda: qmat.project(W1, [(0, True)]),
    "outcome-float": lambda: qmat.project(W1, [(0, 0.5)]),
    "outcome-string": lambda: qmat.project(W1, [(0, "0")]),
    "outcome-none": lambda: qmat.project(W1, [(0, None)]),
    "outcome-norm": lambda: qmat.project(W1, [(0, [1, 1])]),
    "outcome-nan": lambda: qmat.project(W1, [(0, [np.nan, 1])]),
    "outcome-two-qubits": lambda: qmat.project(W1, [(0, [1, 0, 0, 0])]),
    # a projection outcome as text: exactly 0 or 1
    "parse_projections-plus": lambda: states.parse_projections("d=+1", 4),
    "parse_projections-leading-zero": lambda: states.parse_projections("d=01", 4),
    "parse_projections-space": lambda: states.parse_projections("d= 1", 4),
    # settings: a sequence, not a bare string, of strings over X, Y, Z
    "simulate_counts-string": lambda: tomo.simulate_counts(np.eye(2) / 2, "XYZ", 100, 0),
    "exact_counts-string": lambda: tomo.exact_counts(np.eye(2) / 2, "XYZ"),
    "simulate_counts-number": lambda: tomo.simulate_counts(W1, 5, 100, 0),
    "simulate_counts-letter": lambda: tomo.simulate_counts(W1, ["ZQZ"], 100, 0),
    "exact_counts-item": lambda: tomo.exact_counts(W1, [5]),
    "born_probabilities-number": lambda: tomo.born_probabilities(W1, 5),
    "born_probabilities-list": lambda: tomo.born_probabilities(W1, ["ZZZ"]),
    "born_probabilities-length": lambda: tomo.born_probabilities(W1, "ZZ"),
    "CountTable-string": lambda: tomo.CountTable("XYZ", np.ones((3, 2))),
    "CountTable-item": lambda: tomo.CountTable((5,), np.ones((1, 2))),
    "cell_index-number": lambda: tomo.cell_index(5, "0", 1),
    # Pauli strings: one or more letters I, X, Y, Z
    "pauli_expectation-number": lambda: qmat.pauli_expectation(W1, 5),
    "pauli_expectation-letter": lambda: qmat.pauli_expectation(W1, "QQ"),
    "pauli_expectation-length": lambda: qmat.pauli_expectation(W1, "ZZ"),
    "check_pauli-empty": lambda: qmat.check_pauli(""),
    "correlators_from_counts-number": lambda: tomo.correlators_from_counts(COUNTS, [5]),
    "correlators_from_counts-length": lambda: tomo.correlators_from_counts(COUNTS, ["ZZ"]),
    "CorrelatorTable-letter": lambda: corr.CorrelatorTable(("ZQ",), [0.0], [0.0]),
    # sizes: an int or numpy integer, not a bool, in range
    "settings_full-float": lambda: tomo.settings_full(2.0),
    "settings_full-bool": lambda: tomo.settings_full(True),
    "dicke-float": lambda: states.dicke(3.0, 1),
    "dicke-bool": lambda: states.dicke(True, 1),
    "dicke-float-k": lambda: states.dicke(3, 1.0),
    "kw_from_correlators-float-samples": lambda: corr.kw_from_correlators(TABLE, samples=2000.0),
    "bootstrap_fidelity-float-replicas": lambda: tomo.bootstrap_fidelity(
        BELL, states.psi_plus(), n_boot=60.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_every_entry_rejects_a_bad_index_outcome_setting_or_pauli_string(case):
    with pytest.raises(ValueError):
        BAD_INPUTS[case]()


@pytest.mark.parametrize("call, name", [
    (lambda: qmat.partial_trace(W1, 5), "keep"),
    (lambda: qmat.project(W1, 5), "assignments"),
    (lambda: qmat.project(W1, [(0,)]), "assignments"),
    (lambda: qmat.project(W1, [(0, 1, 2)]), "assignments"),
    (lambda: states.gate_unitary(states.GateSpec("H", target=[0]), 2), "target"),
    (lambda: states.gate_unitary(states.GateSpec(["H"], target=0), 2), "gate kind")],
    ids=["keep-int", "assignments-int", "assignments-short", "assignments-long",
         "gate-list-target", "gate-list-kind"])
def test_a_bad_container_of_qubits_fails_naming_the_argument(call, name):
    # the index rule also takes the container: not iterable, a pair of the wrong
    # length, or a target the gate cache could not hash
    with pytest.raises(ValueError, match=name):
        call()


def kw_report_file(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    return path


# input checks that no other test reaches
RARE_REJECTIONS = {
    "eof_from_concurrence": (lambda tmp: corr.eof_from_concurrence(1.5), "outside \\[0, 1\\]"),
    "load_kw_report": (lambda tmp: io.load_kw_report(kw_report_file(tmp, "[1, 2]")),
                       "report.json: a monogamy report is a JSON object"),
    "check_state_vector": (lambda tmp: qmat.check_state_vector(np.eye(2)), "one-dimensional"),
    "tensor": (lambda tmp: qmat.tensor(), "at least one factor"),
    "state_by_name": (lambda tmp: states.state_by_name("noisy-dicke:q=0.5"),
                      "expected noisy-dicke:p=<float>"),
    "settings_full": (lambda tmp: tomo.settings_full(0), "at least one qubit"),
    **{f"state_by_name-{p}": (lambda tmp, p=p: states.state_by_name(f"noisy-dicke:p={p}"),
                              "expected noisy-dicke:p=<float>")
       for p in ("", "abc", "\u0660.\u0665", "0_5", "nan")},
    "parse_projections-range": (lambda tmp: states.parse_projections("d=1", 3),
                                "qubit 'd' out of range for 3 qubits"),
    **{f"gate_unitary-n-{n!r}": (lambda tmp, n=n: states.gate_unitary(states.GateSpec("H", 0), n),
                                 f"got n={n!r}") for n in (2.5, "2", None, True)},
}


@pytest.mark.parametrize("case", RARE_REJECTIONS)
def test_a_rarely_reached_check_rejects_its_input(case, tmp_path):
    call, message = RARE_REJECTIONS[case]
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


def test_numpy_integer_indices_give_the_same_results_as_ints():
    i = np.int64
    np.testing.assert_array_equal(qmat.partial_trace(W1, [i(2), i(0)]),
                                  qmat.partial_trace(W1, [2, 0]))
    for got, want in zip(qmat.project(W1, [(i(1), i(0)), (i(2), 1)]),
                         qmat.project(W1, [(1, 0), (2, 1)])):
        np.testing.assert_array_equal(got, want)
    wide = states.gate_unitary(states.GateSpec("CX", target=i(0), control=i(2)), 4)
    np.testing.assert_array_equal(wide, states.gate_unitary(CX, 4))
    assert wide is states.gate_unitary(CX, 4)  # one cache entry: the indices as ints
    assert (corr.classical_correlations(PAIR, measured=i(1))
            == corr.classical_correlations(PAIR, measured=1))
    assert corr.kw_exact(W1, (i(1), i(0), i(2))) == corr.kw_exact(W1, (1, 0, 2))


SEEDED = {
    "simulate_counts": lambda seed: tomo.simulate_counts(W1, tomo.settings_full(3), 100, seed),
    "bootstrap_fidelity": lambda seed: tomo.bootstrap_fidelity(BELL, states.psi_plus(), 50, seed),
    "kw_from_correlators": lambda seed: corr.kw_from_correlators(TABLE, 200, seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None], ids=repr)
@pytest.mark.parametrize("entry", SEEDED)
def test_a_seed_is_a_whole_number_from_0_checked_before_numpy(entry, seed):
    with pytest.raises(ValueError, match=re.escape(f"a whole number >= 0, got seed={seed!r}")):
        SEEDED[entry](seed)


def test_a_qubit_name_is_one_letter_with_spaces_around_it_ignored():
    assert states.parse_projections(" d =1, c=0 ,", 4) == [(3, 1), (2, 0)]
    assert states.parse_projections("c=1", 3) == [(2, 1)]
    assert corr.parse_assignment(" c | b ,a ") == (1, 2, 0)
    assert corr.parse_assignment("a|b,d") == (1, 0, 3)


def test_numpy_integer_sizes_and_seeds_give_the_same_results_as_ints():
    i, u = np.int64, np.uint32
    assert tomo.settings_full(i(2)) == tomo.settings_full(2)
    np.testing.assert_array_equal(states.dicke(i(3), u(1)), states.dicke(3, 1))
    np.testing.assert_array_equal(SEEDED["simulate_counts"](u(5)).counts,
                                  SEEDED["simulate_counts"](5).counts)
    assert (tomo.bootstrap_fidelity(BELL, states.psi_plus(), i(50), u(2))
            == tomo.bootstrap_fidelity(BELL, states.psi_plus(), 50, 2))
    assert (corr.kw_from_correlators(TABLE, samples=i(200), seed=i(3))
            == corr.kw_from_correlators(TABLE, samples=200, seed=3))
