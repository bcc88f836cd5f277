"""One rule per kind of input: every public entry that takes qubit indices,
projection outcomes, measurement settings or Pauli strings rejects a bad one
with one ValueError, never a TypeError or a result."""

import numpy as np
import pytest

from dickekw import correlations as corr
from dickekw import io, qmat, states, tomography as tomo

W1 = qmat.dm(states.dicke(3, 1))
PAIR = qmat.partial_trace(W1, (0, 1))
COUNTS = tomo.exact_counts(W1, tomo.settings_full(3), 100.0)
CX = states.GateSpec("CX", target=0, control=2)

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
    # outcomes: 0 or 1 under the index rule, or a one-qubit ket
    "outcome-2": lambda: qmat.project(W1, [(0, 2)]),
    "outcome-bool": lambda: qmat.project(W1, [(0, True)]),
    "outcome-float": lambda: qmat.project(W1, [(0, 0.5)]),
    "outcome-string": lambda: qmat.project(W1, [(0, "0")]),
    "outcome-none": lambda: qmat.project(W1, [(0, None)]),
    "outcome-norm": lambda: qmat.project(W1, [(0, [1, 1])]),
    "outcome-nan": lambda: qmat.project(W1, [(0, [np.nan, 1])]),
    "outcome-two-qubits": lambda: qmat.project(W1, [(0, [1, 0, 0, 0])]),
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

