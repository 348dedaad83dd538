"""Mutated circuit documents end in a parse error, a validation error, a
report or a simulator error, never in another exception."""

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from qubusim.circuits import parse_circuit, run_program
from qubusim.errors import ParseError, SimulatorError, ValidationError

REPO = Path(__file__).resolve().parents[1]
DOCS = {p.stem: json.loads(p.read_text())
        for p in sorted((REPO / "circuits").glob("*.json"))}

# what a mutation puts in place of a value: other JSON types, numbers out of
# range or not finite, photon ids of the shipped documents (so that one
# gate names a photon twice), lists of the wrong length, op names and whole
# instructions
VALUES = [
    None, True, -1, 0, 1, 2, 7, 0.0, 0.5, 3.0, -2.5, 1e308, float("nan"),
    float("inf"),
    "", "x", "H", "+", "C", "T", "T1", "C2", "sample",
    [], [0], [0, 1], [1, 5], [0.5, 0], [1, 2, 3], ["C"], ["C", "C"],
    ["C1", "C2", "C1"], ["T1", "T2"], [[1, 0], [0, 1]],
    {}, {"1": 5}, {"H": [0.6, 0], "V": [0, 0.8]}, {"eta": 0.9, "gamma": 200, "theta_p": 0.1},
    "measure_fock", "swap_paths", "qnd", "cz", "multi_toffoli",
    {"op": "measure_fock", "beam": 0},
    {"op": "qubus_bs", "beams": [0, 1]},
    {"op": "xpm", "path": 0, "pol": "V", "beam": 0},
    {"op": "photon_bs", "paths": [0, 1]},
    {"op": "cnot", "control": "C", "target": "T"},
]


def _locations(node, at=()):
    """Every (container, key) in a JSON tree, the root's sections included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield at + (key,)
        yield from _locations(child, at + (key,))


def _mutate(doc, data):
    # most mutations go to the circuit and the run options, so that many
    # documents parse and run
    section = data.draw(st.sampled_from([None, "circuit", "circuit", "run"]))
    locations = list(_locations(doc))
    at = data.draw(st.sampled_from(
        [loc for loc in locations if loc[0] == section] or locations))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    how = data.draw(st.sampled_from(["retype", "delete", "duplicate"]
                                    + ["replace"] * 3))
    if how == "delete" and isinstance(parent, dict):
        del parent[at[-1]]
    elif how == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(parent[at[-1]]))
    else:
        # a replacement keeps the JSON type of the value where it can
        kind = _kind(parent[at[-1]])
        same = [v for v in VALUES if _kind(v) == kind]
        values = same if how == "replace" and same else VALUES
        parent[at[-1]] = copy.deepcopy(data.draw(st.sampled_from(values)))


def _kind(val):
    return type(val)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(DOCS)), count=st.integers(1, 2), data=st.data())
def test_mutated_documents_fail_cleanly(name, count, data):
    doc = copy.deepcopy(DOCS[name])
    for _ in range(count):
        _mutate(doc, data)
    try:
        program = parse_circuit(json.dumps(doc))
    except (ParseError, ValidationError):
        return
    try:
        report = run_program(program)
    except SimulatorError:
        return
    assert report["checks"]["norms_ok"]
