"""Composite gates built from controlled-path/merging rounds."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from qubusim import detection, gates
from qubusim.detection import (
    DetectorParams,
    fock_outcome_classes,
    qnd_gate_outcomes,
)
from qubusim.elements import ModeSelector
from qubusim.gates import (
    ExactMode,
    ParkedAncilla,
    QndMode,
    Record,
    ResourceTrace,
    chain,
    cnot,
    controlled_pair,
    c_phase,
    cz,
    coalesce,
    fredkin,
    multi_toffoli,
    resource_report,
    synth_two_qubit,
    toffoli,
)
from qubusim.state import (
    Branch,
    HybridState,
    fidelity,
    product_state,
    state_from_amplitudes,
)
from qubusim.verify import (
    extract_process_matrix,
    ideal_c_phase,
    ideal_cnot,
    ideal_cz,
    ideal_fredkin,
    ideal_multi_toffoli,
    ideal_swap,
    ideal_toffoli,
    matrix_residual_up_to_phase,
    qubit_modes,
    record_fidelity,
)

from conftest import random_qubit_vector, random_unitary

ALPHA, THETA = 2.0, 0.5
POLS = "HV"


def basis_label(bits, n):
    return "".join(POLS[(bits >> (n - 1 - i)) & 1] for i in range(n))


class TestControlledPair:
    def test_cnot_truth_table(self):
        table = {"HH": "HH", "HV": "HV", "VH": "VV", "VV": "VH"}
        for src, dst in table.items():
            st = product_state([("C", 0, src[0]), ("T", 1, src[1])])
            res = cnot(st, "C", "T", ALPHA, THETA)
            vec = np.zeros(4, dtype=complex)
            vec[2 * POLS.index(dst[0]) + POLS.index(dst[1])] = 1.0
            for rec in res.outcomes:
                assert record_fidelity(rec, [("C", 0), ("T", 1)], vec) >= 1 - 1e-9

    def test_cz_signs(self):
        runner = lambda st: cz(st, "C", "T", ALPHA, THETA).outcomes
        m = extract_process_matrix(runner, [("C", 0), ("T", 1)])
        assert matrix_residual_up_to_phase(m, ideal_cz()) <= 1e-8
        assert np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-8

    def test_equal_blocks_reduce_to_local(self, rng):
        u = random_unitary(2, rng)
        runner = lambda st: controlled_pair(st, "C", "T", u, u,
                                            ALPHA, THETA).outcomes
        m = extract_process_matrix(runner, [("C", 0), ("T", 1)])
        assert matrix_residual_up_to_phase(m, np.kron(np.eye(2), u)) <= 1e-8

    def test_c_phase(self):
        runner = lambda st: c_phase(st, "C", "T", 0.77, ALPHA, THETA).outcomes
        m = extract_process_matrix(runner, [("C", 0), ("T", 1)])
        assert matrix_residual_up_to_phase(m, ideal_c_phase(0.77)) <= 1e-8

    def test_probabilities_sum(self, rng):
        vec = random_qubit_vector(4, rng)
        st = state_from_amplitudes(qubit_modes([("C", 0), ("T", 1)]), vec)
        res = cnot(st, "C", "T", ALPHA, THETA)
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)

    def test_resources(self):
        trace = ResourceTrace()
        st = product_state([("C", 0, "V"), ("T", 1, "H")])
        cnot(st, "C", "T", ALPHA, THETA, trace=trace)
        rep = resource_report(trace)
        assert (rep.c_path_count, rep.merging_count) == (1, 1)
        assert rep.ancilla_photons_concurrent == 1
        assert rep.cumulative_qubus_attenuation == pytest.approx(
            math.cos(THETA) ** 2)


class TestSynthTwoQubit:
    def test_cnot_equals_preset(self):
        direct = extract_process_matrix(
            lambda st: cnot(st, "C", "T", ALPHA, THETA).outcomes,
            [("C", 0), ("T", 1)])
        synth = extract_process_matrix(
            lambda st: synth_two_qubit(st, "C", "T", ideal_cnot(),
                                       ALPHA, THETA).outcomes,
            [("C", 0), ("T", 1)])
        assert matrix_residual_up_to_phase(direct, ideal_cnot()) <= 1e-8
        assert matrix_residual_up_to_phase(synth, ideal_cnot()) <= 1e-8
        assert matrix_residual_up_to_phase(direct, synth) <= 1e-8

    def test_identity(self, rng):
        vec = random_qubit_vector(4, rng)
        st = state_from_amplitudes(qubit_modes([("C", 0), ("T", 1)]), vec)
        res = synth_two_qubit(st, "C", "T", np.eye(4, dtype=complex),
                              ALPHA, THETA)
        for rec in res.outcomes:
            assert record_fidelity(rec, [("C", 0), ("T", 1)], vec) >= 1 - 1e-9

    def test_random_unitary(self, rng):
        u = random_unitary(4, rng)
        m = extract_process_matrix(
            lambda st: synth_two_qubit(st, "C", "T", u, ALPHA, THETA).outcomes,
            [("C", 0), ("T", 1)])
        assert matrix_residual_up_to_phase(m, u) <= 1e-8

    def test_swap(self):
        m = extract_process_matrix(
            lambda st: synth_two_qubit(st, "C", "T", ideal_swap(),
                                       ALPHA, THETA).outcomes,
            [("C", 0), ("T", 1)])
        assert matrix_residual_up_to_phase(m, ideal_swap()) <= 1e-8

    def test_resources_three_rounds(self):
        trace = ResourceTrace()
        st = product_state([("C", 0, "V"), ("T", 1, "H")])
        synth_two_qubit(st, "C", "T", ideal_cnot(), ALPHA, THETA, trace=trace)
        rep = trace.report()
        assert (rep.c_path_count, rep.merging_count) == (3, 3)
        assert rep.ancilla_photons_concurrent == 1


class TestFredkin:
    QUBITS = [("C", 0), ("T1", 1), ("T2", 2)]

    def test_swap_under_v_control(self):
        for src, dst in (("VHV", "VVH"), ("VVH", "VHV")):
            st = product_state([("C", 0, src[0]), ("T1", 1, src[1]),
                                ("T2", 2, src[2])])
            res = fredkin(st, "C", "T1", "T2", ALPHA, THETA)
            vec = np.zeros(8, dtype=complex)
            vec[int("".join("01"[c == "V"] for c in dst), 2)] = 1.0
            for rec in res.outcomes:
                assert record_fidelity(rec, self.QUBITS, vec) >= 1 - 1e-9

    def test_h_control_untouched(self):
        st = product_state([("C", 0, "H"), ("T1", 1, "V"), ("T2", 2, "H")])
        res = fredkin(st, "C", "T1", "T2", ALPHA, THETA)
        vec = np.zeros(8, dtype=complex)
        vec[int("010", 2)] = 1.0
        for rec in res.outcomes:
            assert record_fidelity(rec, self.QUBITS, vec) >= 1 - 1e-9

    def test_full_process_matrix(self):
        m = extract_process_matrix(
            lambda st: fredkin(st, "C", "T1", "T2", ALPHA, THETA).outcomes,
            self.QUBITS)
        assert matrix_residual_up_to_phase(m, ideal_fredkin()) <= 1e-8
        assert np.abs(m.conj().T @ m - np.eye(8)).max() <= 1e-8

    def test_random_superpositions(self, rng):
        ideal = ideal_fredkin()
        for _ in range(5):
            vec = random_qubit_vector(8, rng)
            st = state_from_amplitudes(qubit_modes(self.QUBITS), vec)
            res = fredkin(st, "C", "T1", "T2", ALPHA, THETA)
            out = ideal @ vec
            for rec in res.outcomes:
                assert record_fidelity(rec, self.QUBITS, out) >= 1 - 1e-9

    def test_double_application_is_identity(self, rng):
        vec = random_qubit_vector(8, rng)
        st = state_from_amplitudes(qubit_modes(self.QUBITS), vec)
        first = fredkin(st, "C", "T1", "T2", ALPHA, THETA)
        recs = chain(first.outcomes,
                     lambda rec: fredkin(rec.state, "C", "T1", "T2",
                                         ALPHA, THETA,
                                         ancilla=ParkedAncilla(*rec.ancilla)))
        assert sum(r.probability for r in recs) == pytest.approx(1.0, abs=1e-9)
        for rec in coalesce(recs):
            assert record_fidelity(rec, self.QUBITS, vec) >= 1 - 1e-9

    def test_resources(self):
        trace = ResourceTrace()
        st = product_state([("C", 0, "V"), ("T1", 1, "H"), ("T2", 2, "V")])
        fredkin(st, "C", "T1", "T2", ALPHA, THETA, trace=trace)
        rep = trace.report()
        assert (rep.c_path_count, rep.merging_count) == (2, 2)
        assert rep.ancilla_photons_concurrent == 1
        assert rep.cumulative_qubus_attenuation == pytest.approx(
            math.cos(THETA) ** 4)


class TestToffoli:
    QUBITS = [("C1", 0), ("C2", 1), ("T", 2)]

    def test_flip_under_vv(self):
        for src, dst in (("VVH", "VVV"), ("VVV", "VVH"), ("HVV", "HVV")):
            st = product_state([("C1", 0, src[0]), ("C2", 1, src[1]),
                                ("T", 2, src[2])])
            res = toffoli(st, "C1", "C2", "T", ALPHA, THETA)
            vec = np.zeros(8, dtype=complex)
            vec[int("".join("01"[c == "V"] for c in dst), 2)] = 1.0
            for rec in res.outcomes:
                assert record_fidelity(rec, self.QUBITS, vec) >= 1 - 1e-9

    def test_full_process_matrix(self):
        m = extract_process_matrix(
            lambda st: toffoli(st, "C1", "C2", "T", ALPHA, THETA).outcomes,
            self.QUBITS)
        assert matrix_residual_up_to_phase(m, ideal_toffoli()) <= 1e-8

    def test_double_application_is_identity(self, rng):
        vec = random_qubit_vector(8, rng)
        st = state_from_amplitudes(qubit_modes(self.QUBITS), vec)
        first = toffoli(st, "C1", "C2", "T", ALPHA, THETA)
        recs = chain(first.outcomes,
                     lambda rec: toffoli(rec.state, "C1", "C2", "T",
                                         ALPHA, THETA,
                                         ancilla=ParkedAncilla(*rec.ancilla)))
        for rec in coalesce(recs):
            assert record_fidelity(rec, self.QUBITS, vec) >= 1 - 1e-9

    def test_resources(self):
        trace = ResourceTrace()
        st = product_state([("C1", 0, "V"), ("C2", 1, "V"), ("T", 2, "H")])
        toffoli(st, "C1", "C2", "T", ALPHA, THETA, trace=trace)
        rep = trace.report()
        assert (rep.c_path_count, rep.merging_count) == (2, 2)
        assert rep.ancilla_photons_concurrent == 1


class TestMultiToffoli:
    def test_two_controls_match_toffoli(self, rng):
        vec = random_qubit_vector(8, rng)
        qubits = [("C1", 0), ("C2", 1), ("T", 2)]
        st = state_from_amplitudes(qubit_modes(qubits), vec)
        out = ideal_toffoli() @ vec
        res = multi_toffoli(st, ["C1", "C2"], "T", ALPHA, THETA)
        for rec in res.outcomes:
            assert record_fidelity(rec, qubits, out) >= 1 - 1e-9

    def test_three_controls_sixteen_cases(self):
        qubits = [("C1", 0), ("C2", 1), ("C3", 2), ("T", 3)]
        for case in range(16):
            bits = [(case >> (3 - i)) & 1 for i in range(4)]
            photons = [(pid, path, "HV"[b]) for (pid, path), b in
                       zip(qubits, bits)]
            st = product_state(photons)
            res = multi_toffoli(st, ["C1", "C2", "C3"], "T", ALPHA, THETA)
            out_bits = list(bits)
            if bits[:3] == [1, 1, 1]:
                out_bits[3] ^= 1
            vec = np.zeros(16, dtype=complex)
            vec[int("".join(map(str, out_bits)), 2)] = 1.0
            for rec in res.outcomes:
                assert record_fidelity(rec, qubits, vec) >= 1 - 1e-9

    def test_resource_scaling(self):
        for k in (2, 3, 4):
            trace = ResourceTrace()
            photons = [(f"C{i}", i, "V") for i in range(k)] + [("T", k, "H")]
            st = product_state(photons)
            multi_toffoli(st, [f"C{i}" for i in range(k)], "T", ALPHA, THETA,
                          trace=trace)
            rep = trace.report()
            assert (rep.c_path_count, rep.merging_count) == (k, k)
            assert rep.ancilla_photons_concurrent == 1
            assert rep.qubus_uses == 2 * k
            assert rep.cumulative_qubus_attenuation == pytest.approx(
                math.cos(THETA) ** (2 * k))


class TestRecyclingLedger:
    def test_exactly_one_parked_ancilla(self, rng):
        vec = random_qubit_vector(8, rng)
        qubits = [("C", 0), ("T1", 1), ("T2", 2)]
        st = state_from_amplitudes(qubit_modes(qubits), vec)
        res = fredkin(st, "C", "T1", "T2", ALPHA, THETA)
        for rec in res.outcomes:
            pid, path, sign = rec.ancilla
            assert rec.state.occupants(path) == {pid}
            # only one photon beyond the three logical ones
            assert len(rec.state.photons) == 4


# -- outcome classes against per-n enumeration ------------------------------------

def assert_states_close(a, b, tol=1e-12):
    assert a.photons == b.photons and a.n_beams == b.n_beams
    assert len(a.branches) == len(b.branches)
    for x, y in zip(a.branches, b.branches):
        assert x.config == y.config and x.qubus == y.qubus
        assert abs(x.amp - y.amp) <= tol


def assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.labels, g.multiplicity, g.corrections, g.ancilla,
                g.recycled_qubus) == (w.labels, w.multiplicity, w.corrections,
                                      w.ancilla, w.recycled_qubus)
        assert abs(g.probability - w.probability) <= 1e-12
        assert_states_close(g.state, w.state)


def by_class_and_per_n(monkeypatch, run):
    """Records and resources of `run(trace)` with outcome classes, then with
    the class detection switched off (per-n enumeration)."""
    trace = ResourceTrace()
    grouped = run(trace).outcomes, trace.report()
    monkeypatch.setattr(detection, "_class_amplitude", lambda state, beam: None)
    trace = ResourceTrace()
    per_n = run(trace).outcomes, trace.report()
    return grouped, per_n


TWO_QUBIT_GATES = {
    "cnot": lambda st, a, t, **kw: cnot(st, "C", "T", a, t, **kw),
    "cz": lambda st, a, t, **kw: cz(st, "C", "T", a, t, **kw),
    "c_phase": lambda st, a, t, **kw: c_phase(st, "C", "T", 0.77, a, t, **kw),
}

MULTI_QUBIT_GATES = {
    "toffoli": ([("C1", 0), ("C2", 1), ("T", 2)],
                lambda st, u, alpha=ALPHA, **kw: toffoli(
                    st, "C1", "C2", "T", alpha, THETA, **kw)),
    "fredkin": ([("C", 0), ("T1", 1), ("T2", 2)],
                lambda st, u, alpha=ALPHA, **kw: fredkin(
                    st, "C", "T1", "T2", alpha, THETA, **kw)),
    "multi_toffoli": ([("C1", 0), ("C2", 1), ("C3", 2), ("T", 3)],
                      lambda st, u, alpha=ALPHA, **kw: multi_toffoli(
                          st, ["C1", "C2", "C3"], "T", alpha, THETA, **kw)),
    "synth_two_qubit": ([("C", 0), ("T", 1)],
                        lambda st, u, alpha=ALPHA, **kw: synth_two_qubit(
                            st, "C", "T", u, alpha, THETA, **kw)),
}


class TestOutcomeClasses:
    @pytest.mark.parametrize("alpha,theta", [(2.0, 0.5), (20.0, 0.5),
                                             (1000.0, 0.01)])
    @pytest.mark.parametrize("name", sorted(TWO_QUBIT_GATES))
    def test_two_qubit_gates_match_per_n(self, monkeypatch, rng, name,
                                         alpha, theta):
        st = state_from_amplitudes(qubit_modes([("C", 0), ("T", 1)]),
                                   random_qubit_vector(4, rng))
        gate = TWO_QUBIT_GATES[name]
        (got, got_res), (want, want_res) = by_class_and_per_n(
            monkeypatch, lambda tr: gate(st, alpha, theta, trace=tr))
        assert got_res == want_res
        assert_same_records(got, want)
        assert max(r.multiplicity for r in got) > 1

    @pytest.mark.parametrize("name", sorted(MULTI_QUBIT_GATES))
    def test_multi_qubit_gates_match_per_n(self, monkeypatch, rng, name):
        qubits, gate = MULTI_QUBIT_GATES[name]
        st = state_from_amplitudes(qubit_modes(qubits),
                                   random_qubit_vector(2 ** len(qubits), rng))
        u = random_unitary(4, rng)
        (got, got_res), (want, want_res) = by_class_and_per_n(
            monkeypatch, lambda tr: gate(st, u, trace=tr))
        assert got_res == want_res
        assert_same_records(got, want)


def class_beam_state(z: complex) -> HybridState:
    """Beam 0 carries 0, +z and −z; two branches share a photon mode and
    overlap on beam 1, so the odd and even classes weigh differently."""
    branches = (
        Branch(0.5 + 0j, ((0, 0),), (0j, 0.4 + 0j)),
        Branch(0.5 + 0j, ((1, 0),), (z, 0.4 + 0.2j)),
        Branch(0.5j, ((1, 0),), (-z, -0.3j)),
        Branch(-0.5 + 0j, ((2, 1),), (-z, 0.1 + 0j)),
    )
    return HybridState(("p",), frozenset({0, 1, 2}), 2, branches).normalized()


def per_n_classes(state, tail):
    """The per-n collapses of each class, weighed by their Born norms apart
    from `_fock_density`: (first n, summed probability, count, state at the
    first n)."""
    n_max = max(detection.poisson_cutoff(abs(br.qubus[0]) ** 2, tail)
                for br in state.branches)
    groups = {}
    for n in range(n_max + 1):
        post, p = detection._fock_collapse(state, 0, n, True)
        if p <= 0:
            continue
        key = 0 if n == 0 else 2 - n % 2
        if key not in groups:
            groups[key] = (n, 0.0, 0, detection._normalized_post(post, p))
        first, total, count, rep = groups[key]
        groups[key] = (first, total + p, count + 1, rep)
    return sorted(groups.values(), key=lambda g: g[0])


class TestFockOutcomeClasses:
    @pytest.mark.parametrize("mean", [0.08, 1.839, 8.0, 50.0, 200.0, 800.0])
    def test_classes_sum_the_per_n_records(self, mean):
        st = class_beam_state(1j * math.sqrt(mean))
        classes = fock_outcome_classes(st, 0, tail=1e-12, vacuum_pointer=True)
        expected = per_n_classes(st, 1e-12)
        assert [(n, m) for n, _, _, m in classes] == [
            (n, m) for n, _, m, _ in expected]
        for (_, p, post, _), (_, q, _, rep) in zip(classes, expected):
            assert abs(p - q) <= 1e-12
            assert_states_close(post, rep)
        odd, even = classes[1][1], classes[2][1]
        assert abs(odd - even) > 1e-3 * (odd + even)

    def test_label_is_smallest_n_with_positive_probability(self):
        # at mean 800 the low-n Poisson weights underflow to 0
        st = class_beam_state(1j * math.sqrt(800.0))
        assert detection.poisson_pmf(1, 800.0) == 0.0
        classes = fock_outcome_classes(st, 0, vacuum_pointer=True)
        labels = [n for n, _, _, _ in classes]
        assert labels[0] == 0 and labels[1] > 2
        assert labels == [n for n, _, _, _ in per_n_classes(st, 1e-12)]
        # the Born weight at the label is subnormal; the state stays normalized
        for _, _, post, _ in classes:
            assert post.norm() == pytest.approx(1.0, abs=1e-12)

    def test_other_amplitudes_fall_back_to_per_n(self):
        z = 1.3 + 0.4j
        st = HybridState(("p",), frozenset({0, 1}), 1, (
            Branch(0.6 + 0j, ((0, 0),), (z,)),
            Branch(0.8 + 0j, ((1, 0),), (1j * z,)),
        ))
        assert fock_outcome_classes(st, 0) is None
        grouped = gates._measure_beam(st, 0, gates.MeasureMode(classes=True))
        per_n = gates._measure_beam(st, 0, ExactMode())
        assert len(grouped) == len(per_n) > 3
        for g, w in zip(grouped, per_n):
            assert g[:3] == w[:3] and g[4] == w[4] == 1
            assert_states_close(g[3], w[3], tol=0.0)


# -- QND readout by peak-parity class against one record per peak ------------------

QND_DETECTORS = [DetectorParams(0.9, 200.0, 0.1), DetectorParams(0.9, 100.0, 0.1),
                 DetectorParams(0.7, 150.0, 0.1)]


def counting_coalesce(monkeypatch):
    """The records_in of every `coalesce` call, in call order."""
    seen = []
    merge = gates.coalesce

    def counting(records, *args, **kwargs):
        seen.append(len(records))
        return merge(records, *args, **kwargs)

    monkeypatch.setattr(gates, "coalesce", counting)
    return seen


def peak_class(n_hat):
    """None (ambiguous), 0 (vacuum), 1 (odd peaks) or 2 (even peaks)."""
    return n_hat if n_hat in (None, 0) else 2 - n_hat % 2


class TestQndPeakClasses:
    @pytest.mark.parametrize("det", QND_DETECTORS, ids=lambda d: f"g{d.gamma:g}")
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("name", sorted(TWO_QUBIT_GATES) + ["controlled_pair"])
    def test_two_qubit_gates_match_per_peak(self, monkeypatch, rng, name, alpha,
                                            det):
        st = state_from_amplitudes(qubit_modes([("C", 0), ("T", 1)]),
                                   random_qubit_vector(4, rng))
        if name == "controlled_pair":
            u1, u2 = random_unitary(2, rng), random_unitary(2, rng)
            gate = lambda st, a, t, **kw: controlled_pair(st, "C", "T", u1, u2,
                                                          a, t, **kw)
        else:
            gate = TWO_QUBIT_GATES[name]
        merged = counting_coalesce(monkeypatch)
        (got, got_res), (want, want_res) = by_class_and_per_n(
            monkeypatch, lambda tr: gate(st, alpha, THETA, mode=QndMode(det),
                                         trace=tr))
        assert got_res == want_res
        assert_same_records(got, want)
        # the class path ran: each coalesce after a bus readout (the
        # controlled path's, then the entangler's per record) took in fewer
        # records; the closing one took as many, because both paths merge
        # the entangler records before the photon is localized
        by_class, per_peak = merged[:len(merged) // 2], merged[len(merged) // 2:]
        assert len(by_class) == len(per_peak) >= 3
        assert all(g < w for g, w in zip(by_class[:-1], per_peak[:-1]))
        assert by_class[-1] == per_peak[-1]
        assert any("ambiguous" in str(r.labels) for r in got)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_tied_branches_match_per_peak(self, monkeypatch, alpha):
        """A |+⟩ control leaves post-states whose largest branches tie; the
        per-peak and class paths still coalesce them alike."""
        h, v = random_qubit_vector(2, np.random.default_rng(7))
        st = product_state([("C", 0, "+"), ("T", 1, {"H": h, "V": v})])
        (got, got_res), (want, want_res) = by_class_and_per_n(
            monkeypatch, lambda tr: c_phase(
                st, "C", "T", 0.77, alpha, THETA,
                mode=QndMode(DetectorParams(0.9, 200.0, 0.1)), trace=tr))
        assert got_res == want_res
        assert_same_records(got, want)

    def test_parity_classes_sum_the_peaks(self):
        det = QND_DETECTORS[1]
        st = class_beam_state(1j * math.sqrt(2.0))
        per_peak = qnd_gate_outcomes(st, 0, det)
        grouped = gates._measure_beam(st, 0, gates.MeasureMode(det=det, classes=True))
        assert [g[1] for g in grouped] == [("qnd", "vacuum"), ("qnd_peak", 1),
                                           ("qnd_peak", 2), ("qnd", "ambiguous")]
        assert sum(g[4] for g in grouped) == len(per_peak)
        for n_hat, label, p, post, mult in grouped:
            members = [o for o in per_peak if peak_class(o[0]) == peak_class(n_hat)]
            assert members[0][:2] == (n_hat, label) and members[0][3] == post
            assert (mult, p) == (len(members), sum(o[2] for o in members))

    def test_other_amplitudes_fall_back_to_per_peak(self):
        z = 1.3 + 0.4j
        st = HybridState(("p",), frozenset({0, 1}), 1, (
            Branch(0.6 + 0j, ((0, 0),), (z,)),
            Branch(0.8 + 0j, ((1, 0),), (1j * z,)),
        ))
        det = QND_DETECTORS[1]
        grouped = gates._measure_beam(st, 0, gates.MeasureMode(det=det, classes=True))
        per_peak = gates._measure_beam(st, 0, QndMode(det))
        assert len(grouped) == len(per_peak) > 4
        assert grouped == per_peak
        assert all(g[4] == 1 for g in grouped)

    def test_public_gates_stay_per_peak(self):
        det = QND_DETECTORS[0]
        st = product_state([("C", 0, "+"), ("T", 1, "H")])
        res = gates.c_path(st, "C", "T", (1, 2), 1.5, THETA, mode=QndMode(det))
        assert all(r.multiplicity == 1 for r in res.outcomes)
        assert sum(lab[0] == "qnd_peak" for r in res.outcomes
                   for lab in r.labels) > 2


class TestWorkCounters:
    """Deterministic work counts of fixed gate calls, pinned as regression
    guards: the records each `coalesce` takes in and the `_locate_photon`
    calls (one per merging: the entangler's class records are merged before
    the photon is localized)."""

    @pytest.mark.parametrize("mode,records_in,locates", [
        (None, [3, 3, 4], 1),
        (QndMode(DetectorParams(0.9, 200.0, 0.1)), [4, 3, 11], 1),
    ], ids=["exact", "qnd"])
    def test_cnot_counts(self, monkeypatch, mode, records_in, locates):
        merged = counting_coalesce(monkeypatch)
        located = []
        locate = gates._locate_photon

        def counting(*args, **kwargs):
            located.append(args)
            return locate(*args, **kwargs)

        monkeypatch.setattr(gates, "_locate_photon", counting)
        st = product_state([("C", 0, "+"), ("T", 1, {"H": 0.6, "V": 0.8j})])
        res = cnot(st, "C", "T", 1.5, THETA, mode=mode)
        assert merged == records_in
        assert len(located) == locates
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)

    def test_toffoli_and_synth_counts(self, monkeypatch):
        """Exact toffoli, 4-control multi_toffoli and synth_two_qubit:
        `merging`, `_locate_photon` and `canonicalize` calls and each
        `coalesce`'s records_in.  Every merging stage runs once: the folded
        records coalesce whatever their ancilla's path and sign."""
        st3 = product_state([("C1", 0, "+"), ("C2", 1, "+"),
                             ("T", 2, {"H": 0.6, "V": 0.8j})])
        st5 = product_state([(f"C{i}", i, "+") for i in range(4)]
                            + [("T", 4, {"H": 0.6, "V": 0.8j})])
        st2 = product_state([("C", 0, "+"), ("T", 1, {"H": 0.6, "V": 0.8j})])
        u = random_unitary(4, np.random.default_rng(11))
        runs = {
            "toffoli": lambda: toffoli(st3, "C1", "C2", "T", ALPHA, THETA),
            "multi_toffoli_k4": lambda: multi_toffoli(
                st5, ["C0", "C1", "C2", "C3"], "T", ALPHA, THETA),
            "synth_two_qubit": lambda: synth_two_qubit(st2, "C", "T", u,
                                                       ALPHA, THETA),
        }
        got = {}
        for name, run in runs.items():
            with monkeypatch.context() as m:
                merged = counting_coalesce(m)
                calls = count_calls(m, [(gates, "merging"),
                                        (gates, "_locate_photon"),
                                        (HybridState, "canonicalize")])
                res = run()
            assert res.total_probability == pytest.approx(1.0, abs=1e-9)
            got[name] = (calls, merged)
        assert got == {
            "toffoli": ({"merging": 2, "_locate_photon": 2, "canonicalize": 69},
                        [3, 3, 3, 4, 4, 3, 4]),
            "multi_toffoli_k4": (
                {"merging": 4, "_locate_photon": 4, "canonicalize": 141},
                [3, 3, 3, 3, 3, 4, 4, 3, 4, 4, 3, 4, 4, 3, 4]),
            "synth_two_qubit": ({"merging": 3, "_locate_photon": 3,
                                 "canonicalize": 150},
                                [3, 3, 4, 4, 3, 3, 4, 4, 3, 3, 4, 4]),
        }

    @pytest.mark.parametrize("gate,alpha,theta,collapses", [
        ("cnot", 20.0, 0.5, 6), ("cnot", 1000.0, 0.01, 6),
        ("toffoli", ALPHA, THETA, 12),
    ])
    def test_fock_outcomes_per_bus(self, monkeypatch, gate, alpha, theta,
                                   collapses):
        """Exact composites collapse each measured bus three times, once per
        outcome class (n = 0, first odd n, first even n), at any bus mean
        (about 184 and 200 photons for the two cnot settings), and never
        enumerate per n."""
        with monkeypatch.context() as m:
            calls = count_calls(m, [(detection, "_fock_collapse"),
                                    (detection, "enumerate_fock_outcomes")])
            if gate == "cnot":
                st = product_state([("C", 0, "+"), ("T", 1, "H")])
                res = cnot(st, "C", "T", alpha, theta)
            else:
                st = product_state([("C1", 0, "+"), ("C2", 1, "+"),
                                    ("T", 2, "H")])
                res = toffoli(st, "C1", "C2", "T", alpha, theta)
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        assert calls == {"_fock_collapse": collapses,
                         "enumerate_fock_outcomes": 0}


def count_calls(monkeypatch, targets):
    """Calls of each (owner, name) while the context lasts, by name."""
    counts = {name: 0 for _, name in targets}
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def assert_same_up_to_phase(got, want):
    """Records equal in everything but the global phase of their states."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.labels, g.ancilla, g.corrections, g.multiplicity) == (
            w.labels, w.ancilla, w.corrections, w.multiplicity)
        assert abs(g.probability - w.probability) <= 1e-12
        assert fidelity(g.state, w.state) >= 1 - 1e-12


# -- recycled-ancilla fold against one run per parked path --------------------------

FOLDED_GATES = {
    **MULTI_QUBIT_GATES,
    "multi_toffoli_k4": ([("C1", 0), ("C2", 1), ("C3", 2), ("C4", 3), ("T", 4)],
                         lambda st, u, **kw: multi_toffoli(
                             st, ["C1", "C2", "C3", "C4"], "T", ALPHA, THETA,
                             **kw)),
}


class TestRecycledAncillaFold:
    @pytest.mark.parametrize("mode", [None, QndMode(QND_DETECTORS[0])],
                             ids=["exact", "qnd"])
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", sorted(FOLDED_GATES))
    def test_fold_matches_one_run_per_parked_path(self, monkeypatch, name, seed,
                                                   mode):
        rng = np.random.default_rng(seed)
        qubits, gate = FOLDED_GATES[name]
        st = state_from_amplitudes(qubit_modes(qubits),
                                   random_qubit_vector(2 ** len(qubits), rng))
        u = random_unitary(4, rng)

        def run():
            trace = ResourceTrace()
            with monkeypatch.context() as m:
                merges = count_calls(m, [(gates, "merging")])
                res = gate(st, u, mode=mode, trace=trace)
            return res.outcomes, trace.report(), merges["merging"]

        got, got_res, got_merges = run()
        monkeypatch.setattr(gates, "_fold_onto_seat",
                            lambda records, seat, mode: records)
        want, want_res, want_merges = run()
        assert got_res == want_res
        assert got_merges < want_merges
        assert_same_up_to_phase(
            [r for r in got if not is_heralded_failure(r)],
            [r for r in want if not is_heralded_failure(r)])
        # the fold can merge heralded failures that differ only in where the
        # ancilla was parked before them: compare their totals
        got_failed, want_failed = ([r for r in recs if is_heralded_failure(r)]
                                   for recs in (got, want))
        assert sum(r.probability for r in got_failed) == pytest.approx(
            sum(r.probability for r in want_failed), abs=1e-12)
        assert (sum(r.multiplicity for r in got_failed)
                == sum(r.multiplicity for r in want_failed))

    def test_single_record_is_not_folded(self, monkeypatch):
        merged = counting_coalesce(monkeypatch)
        rec = Record(labels=(), probability=1.0,
                     state=product_state([("a", 0, "+")]),
                     ancilla=("a", 0, 1))
        assert gates._fold_onto_seat([rec], 3, gates.MeasureMode(classes=True)) == [rec]
        assert merged == []

    def test_fold_runs_in_both_class_modes(self):
        st = product_state([("a", 0, "+")]).add_paths([1, 3])
        recs = [Record(labels=(), probability=0.5, state=st, ancilla=("a", 0, 1)),
                Record(labels=(), probability=0.5, state=st.swap_paths(0, 1),
                       ancilla=("a", 1, 1))]
        folded = gates._fold_onto_seat(recs, 3, gates.MeasureMode(classes=True))
        assert [(r.ancilla, r.probability, r.multiplicity) for r in folded] == [
            (("a", 3, 1), 1.0, 2)]
        assert folded[0].state.occupants(3) == {"a"}
        # QND composites fold the records that are not heralded failures; a
        # failure follows them unchanged
        failure = Record(labels=(("qnd", "ambiguous"),), probability=0.25,
                         state=st.swap_paths(0, 1), ancilla=("a", 1, 1))
        qnd = gates.MeasureMode(det=DetectorParams(0.9, 200.0, 0.1), classes=True)
        assert gates._fold_onto_seat([recs[0], failure, recs[1]], 3, qnd) == [
            folded[0], failure]
        sample = gates.SampleMode(np.random.default_rng(0))
        assert gates._fold_onto_seat(recs, 3, sample) == recs

    def test_minus_ancilla_is_seated_as_plus(self):
        plus = product_state([("a", 0, "+")]).add_paths([1, 3])
        minus = product_state([("a", 1, "-")]).add_paths([0, 3])
        recs = [Record(labels=("p",), probability=0.25, state=plus,
                       ancilla=("a", 0, 1)),
                Record(labels=("m",), probability=0.75, state=minus,
                       corrections=("x",), ancilla=("a", 1, -1))]
        folded = gates._fold_onto_seat(recs, 3, gates.MeasureMode(classes=True))
        assert [(r.labels, r.ancilla, r.probability, r.multiplicity)
                for r in folded] == [(("p",), ("a", 3, 1), 1.0, 2)]
        seated = gates._fold_sign(replace(recs[1], state=minus.swap_paths(1, 3),
                                          ancilla=("a", 3, -1)))
        assert seated.ancilla == ("a", 3, 1)
        assert seated.corrections == ("x", "pi phase on parked ancilla V mode")
        want = product_state([("a", 3, "+")]).add_paths([0, 1])
        assert fidelity(seated.state, want) == pytest.approx(1.0, abs=1e-12)


# -- one localization per merging against the slow path -------------------------------

LOCALIZE_ONCE_GATES = {
    **{name: (qubits, gate, None) for name, (qubits, gate) in FOLDED_GATES.items()},
    **{f"{name}_{tag}": ([("C", 0), ("T", 1)],
                         lambda st, u, gate=gate, **kw: gate(st, ALPHA, THETA, **kw),
                         mode)
       for name, gate in TWO_QUBIT_GATES.items()
       for tag, mode in (("exact", None), ("qnd", QndMode(QND_DETECTORS[0])))},
}

SLOW_PATHS = {"sign": ("_fold_sign",), "classes": ("_merge_classes",),
              "both": ("_fold_sign", "_merge_classes")}


class TestLocalizeOncePerMerging:
    """The sign fold (`_fold_sign`) and the entangler class merge
    (`_merge_classes`) against the same gates with either helper, or both,
    patched to the identity."""

    @pytest.mark.parametrize("name,slow", [
        (name, slow) for name in sorted(LOCALIZE_ONCE_GATES) for slow in SLOW_PATHS
        # one merging leaves no parked ancilla to fold
        if slow != "sign" or name in FOLDED_GATES])
    def test_matches_the_slow_path(self, monkeypatch, name, slow):
        qubits, gate, mode = LOCALIZE_ONCE_GATES[name]
        rng = np.random.default_rng(5)
        st = state_from_amplitudes(qubit_modes(qubits),
                                   random_qubit_vector(2 ** len(qubits), rng))
        u = random_unitary(4, rng)

        def run():
            trace = ResourceTrace()
            with monkeypatch.context() as m:
                calls = count_calls(m, [(gates, "merging"),
                                        (gates, "_locate_photon")])
                res = gate(st, u, mode=mode, trace=trace)
            return res.outcomes, trace.report(), calls

        got, got_res, got_calls = run()
        for helper in SLOW_PATHS[slow]:
            monkeypatch.setattr(gates, helper, lambda records: records)
        want, want_res, want_calls = run()
        assert got_res == want_res
        assert_same_up_to_phase(got, want)
        assert got_calls["_locate_photon"] < want_calls["_locate_photon"]
        if "_fold_sign" in SLOW_PATHS[slow] and name in FOLDED_GATES:
            assert got_calls["merging"] < want_calls["merging"]
        else:
            assert got_calls["merging"] == want_calls["merging"]


# -- sampled readout against the exact distribution ---------------------------------

def drawn_labels(records, uniforms):
    """The labels inverse-CDF draws with `uniforms` select from the exact
    records of a gate, one label position per uniform: each draw weighs the
    labels at its position, in record order, by the summed probability of
    the records that share the labels drawn before."""
    chosen = ()
    for u in uniforms:
        weights = {}
        for rec in records:
            if rec.labels[:len(chosen)] == chosen:
                label = rec.labels[len(chosen)]
                weights[label] = weights.get(label, 0.0) + rec.probability
        total, acc = sum(weights.values()), 0.0
        for label, w in weights.items():
            acc += w / total
            if u < acc:
                break
        chosen += (label,)
    return chosen


class TestSampledLocalization:
    """A sampled merging, alone or inside a cnot, returns the record the
    exact per-n records select with the same generator's uniforms: the
    controlled path's outcome and the entangler's outcome first, then the
    localization path given them."""

    @pytest.mark.parametrize("name", ["merging", "cnot"])
    def test_draws_follow_the_exact_records(self, monkeypatch, name):
        st = state_from_amplitudes(qubit_modes([("C", 0), ("T", 1)]),
                                   random_qubit_vector(4, np.random.default_rng(9)))
        if name == "merging":
            st = gates.c_path(st, "C", "T", (1, 2), 1.0, THETA).outcomes[1].state
            gate = lambda mode: gates.merging(
                st, "T", (1, 2), 3, 1.0, THETA, ancilla=gates.FreshAncilla(),
                companion_flip=ModeSelector(0, "V", "C"), mode=mode)
        else:
            gate = lambda mode: cnot(st, "C", "T", 1.0, THETA, mode=mode)
        with monkeypatch.context() as m:
            # every per-n record of the exact tree, none merged
            m.setattr(detection, "_class_amplitude", lambda state, beam: None)
            m.setattr(gates, "coalesce", lambda records, tol=1e-9: list(records))
            exact = gate(None).outcomes
        depth = len(exact[0].labels)
        assert depth == (2 if name == "merging" else 3)
        assert sum(r.probability for r in exact) == pytest.approx(1.0, abs=1e-9)
        drawn = set()
        for seed in range(20):
            uniforms = np.random.default_rng(seed).random(depth)
            [rec] = gate(gates.SampleMode(np.random.default_rng(seed))).outcomes
            want = drawn_labels(exact, uniforms)
            assert rec.labels == want
            match = next(r for r in exact if r.labels == want)
            assert fidelity(rec.state, match.state) == pytest.approx(1.0, abs=1e-9)
            drawn.add(want[-1])
        # the draws reach more than one localization path
        assert len(drawn) > 1


# -- QND readout: a heralded failure ends its chain -----------------------------------

def is_heralded_failure(rec):
    return ("none (ambiguous)" in rec.corrections
            or any("ambiguous" in str(lab) for lab in rec.labels))


MULTI_QUBIT_IDEALS = {
    "toffoli": lambda u: ideal_toffoli(),
    "fredkin": lambda u: ideal_fredkin(),
    "multi_toffoli": lambda u: ideal_multi_toffoli(3),
    "synth_two_qubit": lambda u: u,
}


class TestHeraldedFailures:
    def test_chain_and_map_records_pass_failures_on(self):
        st = product_state([("a", 0, "H")]).add_paths([1])
        good = Record(labels=("g",), probability=0.5, state=st)
        by_correction = Record(labels=("x",), probability=0.25, state=st,
                               corrections=("none (ambiguous)",))
        by_label = Record(labels=(("qnd", "ambiguous"),), probability=0.25,
                          state=st)
        recs = [by_correction, good, by_label]
        moved = lambda s: s.swap_paths(0, 1)
        assert gates.map_records(recs, moved) == [
            by_correction, replace(good, state=moved(st)), by_label]
        ran = []

        def stage(rec):
            ran.append(rec)
            return [Record(labels=("s",), probability=1.0, state=moved(rec.state))]

        out = chain(recs, stage)
        assert ran == [good]
        assert out[0] is by_correction and out[2] is by_label
        assert (out[1].labels, out[1].probability) == (("g", "s"), 0.5)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("name", sorted(MULTI_QUBIT_GATES))
    def test_multi_qubit_gates_under_qnd_readout(self, rng, name, alpha):
        """At eta 0.9, gamma 200, theta_p 0.1 every record is the ideal
        output or a heralded failure, and the resources are those of the
        full circuit."""
        qubits, gate = MULTI_QUBIT_GATES[name]
        vec = random_qubit_vector(2 ** len(qubits), rng)
        st = state_from_amplitudes(qubit_modes(qubits), vec)
        u = random_unitary(4, rng)
        trace, exact_trace = ResourceTrace(), ResourceTrace()
        res = gate(st, u, alpha=alpha, mode=QndMode(QND_DETECTORS[0]),
                   trace=trace)
        gate(st, u, alpha=alpha, trace=exact_trace)
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        assert trace.report() == exact_trace.report()
        failures = [r for r in res.outcomes if is_heralded_failure(r)]
        assert 0 < len(failures) < len(res.outcomes)
        out = MULTI_QUBIT_IDEALS[name](u) @ vec
        for rec in res.outcomes:
            if rec not in failures:
                assert record_fidelity(rec, qubits, out) >= 1 - 1e-9
            if rec.ancilla is not None:
                photon, path, _ = rec.ancilla
                assert rec.state.occupants(path) == {photon}


class TestCoalescePhaseTie:
    def test_tied_top_branches_coalesce(self):
        """Two records equal up to a global phase whose two largest |amp|
        tie; rounding makes a different branch the larger in each."""
        a = HybridState(("p",), frozenset({0, 1}), 0, (
            Branch(complex(1 / math.sqrt(2)), ((0, 0),), ()),
            Branch(cmath.exp(0.3j) / math.sqrt(2), ((1, 1),), ()),
        ))
        b = a.scaled(cmath.exp(0.1j))
        mags_a = [abs(br.amp) for br in a.branches]
        mags_b = [abs(br.amp) for br in b.branches]
        assert mags_a[0] >= mags_a[1] and mags_b[1] > mags_b[0]
        assert mags_b[1] - mags_b[0] < 1e-15
        out = coalesce([Record((), 0.5, a), Record((), 0.5, b)])
        assert len(out) == 1
        assert out[0].probability == pytest.approx(1.0)
        assert out[0].multiplicity == 2
