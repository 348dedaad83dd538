"""The checks `verify` makes on what a gate returns, each tripped on purpose."""

import numpy as np
import pytest

from qubusim.errors import PreconditionViolation
from qubusim.gates import Record
from qubusim.state import product_state, state_from_amplitudes
from qubusim.verify import (
    extract_process_matrix,
    logical_amplitudes,
    probe_output,
    qubit_modes,
)

QUBIT = [("q0", 0)]
SPECTATOR = ("anc", 2, np.array([1.0, 1.0]) / np.sqrt(2))


def basis_state(k):
    return state_from_amplitudes(qubit_modes(QUBIT), np.eye(2)[k])


def test_live_beams():
    st = product_state([("q0", 0, "H")], beams=[0.5])
    with pytest.raises(PreconditionViolation, match="live beams"):
        logical_amplitudes(st, QUBIT)


def test_photon_off_its_home_path():
    st = product_state([("q0", 1, "H")], extra_paths=[0])
    with pytest.raises(PreconditionViolation, match="off its home path 0"):
        logical_amplitudes(st, QUBIT)


def test_spectator_off_its_recorded_path():
    st = product_state([("q0", 0, "H"), ("anc", 3, "+")], extra_paths=[2])
    with pytest.raises(PreconditionViolation, match="spectator 'anc'"):
        logical_amplitudes(st, QUBIT, [SPECTATOR])


def test_record_leaks_out_of_the_qubit_subspace():
    def runner(st):
        return [Record((), 1.0, st.scaled(0.5))]

    with pytest.raises(PreconditionViolation, match="leaks 5.000e-01"):
        probe_output(runner, QUBIT, np.array([1.0, 0.0]))


def test_records_disagree():
    def runner(st):
        return [Record((0,), 0.5, basis_state(0)), Record((1,), 0.5, basis_state(1))]

    with pytest.raises(PreconditionViolation, match="records disagree"):
        probe_output(runner, QUBIT, np.array([1.0, 0.0]))


def test_degenerate_phase_probe():
    """A runner that measures its qubit passes every basis probe, but its
    output on (e0 + e1)/√2 has no overlap with column 1."""
    def runner(st):
        k = int(np.argmax(np.abs(logical_amplitudes(st, QUBIT))))
        return [Record((k,), 1.0, basis_state(k))]

    with pytest.raises(PreconditionViolation, match="degenerate phase probe"):
        extract_process_matrix(runner, QUBIT)
