"""Gate verification: logical amplitude extraction, process-matrix
extraction and ideal reference matrices.

A gate runner maps an input state to its outcome records.  The process
matrix comes from one run on the Choi–Jamiołkowski state Σ_j |j⟩_Q|j⟩_R/√d,
where each qubit of Q has a reference photon in R on a path the gate never
touches: the output amplitudes over Q and R, reshaped (d, d) and scaled by
√d, are the matrix with its column phases.  Every record of the run must
stay in the qubit subspace, all records must agree up to a global phase,
and the matrix must be unitary; each of these is a correctness check.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import PreconditionViolation
from .gates import Record
from .state import HybridState, fidelity, state_from_amplitudes

_SQ2 = math.sqrt(2)


def qubit_modes(qubits: Sequence[tuple[str, int]]):
    return [(photon, ((home, "H"), (home, "V"))) for photon, home in qubits]


def spectator_from_ancilla(ancilla) -> list:
    """Parked-ancilla spectator triple for amplitude extraction."""
    if ancilla is None:
        return []
    photon, path, sign = ancilla
    vec = np.array([1.0, float(sign)]) / _SQ2
    return [(photon, path, vec)]


def logical_amplitudes(state: HybridState, qubits: Sequence[tuple[str, int]],
                       spectators: Sequence[tuple[str, int, np.ndarray]] = (),
                       ) -> np.ndarray:
    """Amplitude vector over the computational basis (H=0, V=1; first listed
    qubit most significant), with spectator photons projected onto their
    recorded pure states.  Raises on any branch outside the qubit home
    subspace (leakage)."""
    if state.n_beams:
        raise PreconditionViolation("live beams remain; detach or measure first")
    idxs = [(state.photon_index(p), home) for p, home in qubits]
    spec = [(state.photon_index(p), path, np.asarray(v, dtype=complex))
            for p, path, v in spectators]
    out = np.zeros(2 ** len(qubits), dtype=complex)
    for br in state.branches:
        j = 0
        for i, home in idxs:
            mode = br.config[i]
            if mode is None or mode[0] != home:
                raise PreconditionViolation(
                    f"photon {state.photons[i]!r} is off its home path {home}")
            j = 2 * j + mode[1]
        w = br.amp
        for i, path, vec in spec:
            mode = br.config[i]
            if mode is None or mode[0] != path:
                raise PreconditionViolation(
                    f"spectator {state.photons[i]!r} is off its recorded path")
            w *= vec[mode[1]].conjugate()
        out[j] += w
    return out


Runner = Callable[[HybridState], Sequence[Record]]


def probe_output(runner: Runner, qubits: Sequence[tuple[str, int]],
                 vec: np.ndarray, record_tol: float = 1e-8) -> np.ndarray:
    """Run one probe and return its logical output vector.

    All records must agree up to a global phase; the first record's vector
    is returned.
    """
    state = state_from_amplitudes(qubit_modes(qubits), vec)
    records = runner(state)
    vectors = []
    for rec in records:
        v = logical_amplitudes(rec.state, qubits, spectator_from_ancilla(rec.ancilla))
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > record_tol:
            raise PreconditionViolation(
                f"record leaks {abs(norm - 1.0):.3e} outside the qubit subspace")
        vectors.append(v)
    for v in vectors[1:]:
        if abs(abs(np.vdot(vectors[0], v)) - 1.0) > record_tol:
            raise PreconditionViolation("records disagree beyond a global phase")
    return vectors[0]


def extract_process_matrix(runner: Runner, qubits: Sequence[tuple[str, int]],
                           record_tol: float = 1e-8) -> np.ndarray:
    """A gate's unitary matrix, up to one global phase, from one run.

    Each qubit gets a reference photon on a path above every qubit's home,
    and the runner runs once on Σ_j |j⟩|j⟩/√d over qubits and references
    (`probe_output`).  The output vector, reshaped (d, d) and times √d, is
    the matrix; it must be unitary within `record_tol`.  The result is then
    canonicalized (largest entry real positive).
    """
    d = 2 ** len(qubits)
    top = max(home for _, home in qubits) + 1
    references = [(f"{photon}:ref", top + i) for i, (photon, _) in enumerate(qubits)]
    choi = np.eye(d, dtype=complex).ravel() / math.sqrt(d)
    m = probe_output(runner, [*qubits, *references], choi, record_tol).reshape(d, d)
    m = m * math.sqrt(d)
    if np.abs(m.conj().T @ m - np.eye(d)).max() > record_tol:
        raise PreconditionViolation("extracted matrix is not unitary")
    i = int(np.argmax(np.abs(m)))
    phase = m.flat[i] / abs(m.flat[i])
    return m * phase.conjugate()


def matrix_residual_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    tr = np.trace(a.conj().T @ b)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.abs(a * phase - b).max())


def record_fidelity(record: Record, qubits: Sequence[tuple[str, int]],
                    ideal_vector: np.ndarray) -> float:
    """|⟨ideal ⊗ parked ancilla | record state⟩|² (global-phase free)."""
    spectators = []
    if record.ancilla is not None:
        photon, path, sign = record.ancilla
        spectators.append((photon, path, "+" if sign > 0 else "-"))
    expected = state_from_amplitudes(qubit_modes(qubits), ideal_vector,
                                     paths=record.state.paths,
                                     spectators=spectators)
    return fidelity(expected, record.state)


# -- ideal reference matrices ---------------------------------------------------

def ideal_controlled_pair(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """|H⟩⟨H|⊗U1 + |V⟩⟨V|⊗U2 with the control as the first tensor factor."""
    return (np.kron(np.diag([1.0, 0.0]), u1)
            + np.kron(np.diag([0.0, 1.0]), u2)).astype(complex)


def ideal_cnot() -> np.ndarray:
    return ideal_controlled_pair(np.eye(2), np.array([[0, 1], [1, 0]]))


def ideal_cz() -> np.ndarray:
    return ideal_controlled_pair(np.eye(2), np.diag([1, -1]))


def ideal_c_phase(phi: float) -> np.ndarray:
    return ideal_controlled_pair(np.eye(2), np.diag([1, np.exp(1j * phi)]))


def ideal_swap() -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1
    m[1, 2] = m[2, 1] = 1
    return m


def ideal_fredkin() -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return m


def ideal_multi_toffoli(n_controls: int) -> np.ndarray:
    dim = 2 ** (n_controls + 1)
    m = np.eye(dim, dtype=complex)
    m[[dim - 2, dim - 1]] = m[[dim - 1, dim - 2]]
    return m


def ideal_toffoli() -> np.ndarray:
    return ideal_multi_toffoli(2)


def apply_ideal(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return matrix @ np.asarray(vec, dtype=complex)
