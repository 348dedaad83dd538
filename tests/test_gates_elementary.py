"""Controlled-path and merging gates: record-level contracts."""

import math

import numpy as np
import pytest

from qubusim.detection import DetectorParams, poisson_pmf
from qubusim.errors import PreconditionViolation
from qubusim.gates import (
    FreshAncilla,
    ParkedAncilla,
    QndMode,
    SampleMode,
    c_path,
    cnot,
    merging,
    multi_toffoli,
)
from qubusim.elements import ModeSelector, qubus_bs
from qubusim.state import fidelity, product_state, state_from_amplitudes

from conftest import random_qubit_vector

ALPHA, THETA = 2.0, 0.5
BETA_SQ = 2 * (ALPHA * math.sin(THETA)) ** 2


def two_photon_input(vec):
    return state_from_amplitudes(
        [("C", ((0, "H"), (0, "V"))), ("T", ((1, "H"), (1, "V")))], vec,
        paths={0, 1, 2})


def c_path_ideal(vec):
    """Control H keeps the target on path 1, control V moves it to path 2."""
    full = np.array([vec[0], vec[1], 0, 0, 0, 0, vec[2], vec[3]])
    return state_from_amplitudes(
        [("C", ((0, "H"), (0, "V"))),
         ("T", ((1, "H"), (1, "V"), (2, "H"), (2, "V")))], full, paths={0, 1, 2})


class TestCPath:
    def test_single_term_input(self):
        st = two_photon_input([1, 0, 0, 0])
        res = c_path(st, "C", "T", (1, 2), ALPHA, THETA)
        ideal = c_path_ideal([1, 0, 0, 0])
        for rec in res.outcomes:
            assert fidelity(ideal, rec.state) == pytest.approx(1.0, abs=1e-9)

    def test_generic_input_all_records_corrected(self, rng):
        vec = random_qubit_vector(4, rng)
        res = c_path(two_photon_input(vec), "C", "T", (1, 2), ALPHA, THETA)
        ideal = c_path_ideal(vec)
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        for rec in res.outcomes:
            assert fidelity(ideal, rec.state) >= 1 - 1e-9

    def test_quiet_record_probability(self, rng):
        vec = random_qubit_vector(4, rng)
        res = c_path(two_photon_input(vec), "C", "T", (1, 2), ALPHA, THETA)
        probs = {rec.labels[0][1]: rec.probability for rec in res.outcomes}
        assert probs[0] == pytest.approx((1 + math.exp(-BETA_SQ)) / 2, abs=1e-9)
        for n in range(1, 5):
            assert probs[n] == pytest.approx(poisson_pmf(n, BETA_SQ) / 2, abs=1e-9)

    def test_recycled_beam_amplitude(self, rng):
        vec = random_qubit_vector(4, rng)
        res = c_path(two_photon_input(vec), "C", "T", (1, 2), ALPHA, THETA)
        for rec in res.outcomes:
            n = rec.labels[0][1]
            expected = (math.sqrt(2) * ALPHA if n == 0
                        else math.sqrt(2) * ALPHA * math.cos(THETA))
            assert rec.recycled_qubus == pytest.approx(expected, abs=1e-9)

    def test_corrections_follow_parity(self, rng):
        vec = random_qubit_vector(4, rng)
        res = c_path(two_photon_input(vec), "C", "T", (1, 2), ALPHA, THETA)
        for rec in res.outcomes:
            n = rec.labels[0][1]
            if n == 0:
                assert rec.corrections == ()
            elif n % 2 == 0:
                assert rec.corrections == ("swap paths 1<->2",)
            else:
                assert rec.corrections == ("swap paths 1<->2",
                                           "pi phase on path 2")

    def test_pre_correction_phases(self):
        """The n = 1 record before feed-forward carries e^{∓iπ/2} on the two
        control sectors; replaying the corrections must reproduce the gate's
        record (cross-check of the feed-forward table)."""
        vec = np.array([0.5, 0.5, 0.5, 0.5])
        st = two_photon_input(vec)
        from qubusim.detection import enumerate_fock_outcomes
        from qubusim.elements import ANY, photon_bs, qubus_bs, qubus_phase, xpm

        s = st.attach_beams((ALPHA, ALPHA))
        s = photon_bs(s, 1, 2)
        s = xpm(s, ModeSelector(1, ANY, "T"), 0, THETA)
        s = xpm(s, ModeSelector(0, "V", "C"), 0, THETA)
        s = xpm(s, ModeSelector(2, ANY, "T"), 1, THETA)
        s = xpm(s, ModeSelector(0, "H", "C"), 1, THETA)
        s = qubus_phase(s, 0, -THETA)
        s = qubus_phase(s, 1, -THETA)
        s = qubus_bs(s, 0, 1)
        outs = enumerate_fock_outcomes(s, 0, tail=1e-12, vacuum_pointer=True)
        n1 = [post for n, _, post in outs if n == 1][0]
        expected = state_from_amplitudes(
            [("C", ((0, "H"), (0, "V"))),
             ("T", ((1, "H"), (1, "V"), (2, "H"), (2, "V")))],
            np.array([0, 0, 0.5 * np.exp(-1j * math.pi / 2),
                      0.5 * np.exp(-1j * math.pi / 2),
                      0.5 * np.exp(1j * math.pi / 2),
                      0.5 * np.exp(1j * math.pi / 2), 0, 0]),
            paths={0, 1, 2})
        n1_beamless, _ = n1.detach_beam(0)
        assert fidelity(expected, n1_beamless) == pytest.approx(1.0, abs=1e-9)

    def test_precondition_checks(self):
        st = two_photon_input([1, 0, 0, 0])
        with pytest.raises(PreconditionViolation):
            c_path(st, "C", "T", (2, 1), ALPHA, THETA)  # target not on path 2

    def test_sample_mode_reproducible(self, rng):
        vec = random_qubit_vector(4, rng)
        st = two_photon_input(vec)
        a = c_path(st, "C", "T", (1, 2), ALPHA, THETA,
                   mode=SampleMode(np.random.default_rng(3)))
        b = c_path(st, "C", "T", (1, 2), ALPHA, THETA,
                   mode=SampleMode(np.random.default_rng(3)))
        assert len(a.outcomes) == len(b.outcomes) == 1
        assert a.outcomes[0].labels == b.outcomes[0].labels


def merging_input(vec):
    full = np.array([vec[0], vec[1], 0, 0, 0, 0, vec[2], vec[3]])
    return state_from_amplitudes(
        [("P1", ((1, "H"), (1, "V"))),
         ("P2", ((2, "H"), (2, "V"), (3, "H"), (3, "V")))], full,
        paths={1, 2, 3, 4})


def merging_ideal(vec, ancilla):
    return state_from_amplitudes(
        [("P1", ((1, "H"), (1, "V"))), ("P2", ((4, "H"), (4, "V")))], vec,
        paths={1, 2, 3, 4}, spectators=[
            (ancilla[0], ancilla[1], "+" if ancilla[2] > 0 else "-")])


class TestMerging:
    def flip(self):
        return ModeSelector(1, "V", "P1")

    def test_generic_input_all_records(self, rng):
        vec = random_qubit_vector(4, rng)
        res = merging(merging_input(vec), "P2", (2, 3), 4, ALPHA, THETA,
                      ancilla=FreshAncilla("A", 1), companion_flip=self.flip())
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        for rec in res.outcomes:
            assert rec.ancilla is not None
            ideal = merging_ideal(vec, rec.ancilla)
            assert fidelity(ideal, rec.state) >= 1 - 1e-9

    def test_single_term_parks_ancilla_once(self):
        res = merging(merging_input([1, 0, 0, 0]), "P2", (2, 3), 4,
                      ALPHA, THETA, ancilla=FreshAncilla("A", 1),
                      companion_flip=self.flip())
        for rec in res.outcomes:
            parked = rec.state.occupants(rec.ancilla[1])
            assert parked == {"A"}
            ideal = merging_ideal([1, 0, 0, 0], rec.ancilla)
            assert fidelity(ideal, rec.state) >= 1 - 1e-9

    def test_minus_ancilla_supported(self, rng):
        vec = random_qubit_vector(4, rng)
        res = merging(merging_input(vec), "P2", (2, 3), 4, ALPHA, THETA,
                      ancilla=FreshAncilla("A", -1), companion_flip=self.flip())
        for rec in res.outcomes:
            ideal = merging_ideal(vec, rec.ancilla)
            assert fidelity(ideal, rec.state) >= 1 - 1e-9

    def test_parked_ancilla_reuse(self, rng):
        vec = random_qubit_vector(4, rng)
        first = merging(merging_input(vec), "P2", (2, 3), 4, ALPHA, THETA,
                        ancilla=FreshAncilla("A", 1), companion_flip=self.flip())
        rec = first.outcomes[0]
        # split P2 again with a fresh controlled-path gate, then merge back
        # reusing the parked photon as the ancilla
        st = rec.state
        res = c_path(st, "P1", "P2", (4, 9), ALPHA, THETA)
        rec2 = res.outcomes[0]
        out = merging(rec2.state, "P2", (4, 9), 10, ALPHA, THETA,
                      ancilla=ParkedAncilla(*rec.ancilla),
                      companion_flip=self.flip())
        assert out.total_probability == pytest.approx(1.0, abs=1e-9)
        for r in out.outcomes:
            assert r.ancilla is not None
            assert r.state.occupants(r.ancilla[1]) == {"A"}

    def test_qnd_mode_has_ambiguous_records(self, rng):
        vec = random_qubit_vector(4, rng)
        det = DetectorParams(eta=0.9, gamma=100.0, theta_p=0.1)
        res = merging(merging_input(vec), "P2", (2, 3), 4, ALPHA, THETA,
                      ancilla=FreshAncilla("A", 1), companion_flip=self.flip(),
                      mode=QndMode(det))
        tags = {lab for rec in res.outcomes for lab in rec.labels}
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        assert any("ambiguous" in str(t) for t in tags)
        # correctable records still satisfy the contract
        good = [rec for rec in res.outcomes
                if rec.ancilla is not None
                and not any("ambiguous" in str(lab) for lab in rec.labels)]
        assert good
        for rec in good:
            ideal = merging_ideal(vec, rec.ancilla)
            assert fidelity(ideal, rec.state) >= 1 - 1e-9


@pytest.mark.parametrize("make_mode", [lambda: SampleMode(None),
                                       lambda: QndMode(None), lambda: "exact"],
                         ids=["sample-without-rng", "qnd-without-detector",
                              "string"])
@pytest.mark.parametrize("gate", ["c_path", "merging", "cnot"])
def test_invalid_modes_are_precondition_violations(gate, make_mode):
    run = {
        "c_path": lambda mode: c_path(two_photon_input([1, 0, 0, 0]), "C", "T",
                                      (1, 2), ALPHA, THETA, mode=mode),
        "merging": lambda mode: merging(
            merging_input([1, 0, 0, 0]), "P2", (2, 3), 4, ALPHA, THETA,
            ancilla=FreshAncilla("A", 1),
            companion_flip=ModeSelector(1, "V", "P1"), mode=mode),
        "cnot": lambda mode: cnot(two_photon_input([1, 0, 0, 0]), "C", "T",
                                  ALPHA, THETA, mode=mode),
    }[gate]
    with pytest.raises(PreconditionViolation):
        run(make_mode())


class TestDoubleControlledCoupling:
    """Branch structure of the modified controlled-path coupling, where the
    second beam also touches the first control's H mode."""

    def setup_pipeline(self, target_spec):
        # C2 is path-entangled with C1 (H→path 1, V→path 2); T enters on 3
        c1 = random_qubit_vector(2, np.random.default_rng(0))
        c2 = random_qubit_vector(2, np.random.default_rng(1))
        st = state_from_amplitudes(
            [("C1", ((0, "H"), (0, "V"))),
             ("C2", ((1, "H"), (1, "V"), (2, "H"), (2, "V")))],
            np.array([c1[0] * c2[0], c1[0] * c2[1], 0, 0,
                      0, 0, c1[1] * c2[0], c1[1] * c2[1]]),
            paths={0, 1, 2, 3, 4})
        st = st.add_photon("T", 3, target_spec)
        from qubusim.elements import ANY, photon_bs, xpm
        s = st.attach_beams((ALPHA, ALPHA))
        s = photon_bs(s, 3, 4)
        s = xpm(s, ModeSelector(3, ANY, "T"), 0, THETA)   # beam 1: target even
        s = xpm(s, ModeSelector(2, "V"), 0, THETA)        # beam 1: V flag
        s = xpm(s, ModeSelector(4, ANY, "T"), 1, THETA)   # beam 2: target odd
        s = xpm(s, ModeSelector(0, "H"), 1, THETA)        # beam 2: H flags
        s = xpm(s, ModeSelector(2, "H"), 1, THETA)
        return s.canonicalize()

    def test_eight_branches_for_fixed_target_pol(self):
        s = self.setup_pipeline("H")
        assert len(s.branches) == 8  # 4 control sectors x 2 target paths

    def test_sixteen_branches_group_into_eight_families(self):
        s = self.setup_pipeline({"H": 0.6, "V": 0.8})
        assert len(s.branches) == 16
        # the beam amplitudes depend only on (control sector, target path):
        # eight additive families of two target polarizations each
        families = {(br.config[0], br.config[1], br.config[2][0], br.qubus)
                    for br in s.branches}
        assert len(families) == 8

    def test_three_coupling_patterns(self):
        s = self.setup_pipeline("H")
        e1 = ALPHA * np.exp(1j * THETA)
        e2 = ALPHA * np.exp(2j * THETA)
        expected = {
            # all-V sector: (e^{2iθ}, 1)·α on the first-beam path, balanced odd
            ("VV", 3): (e2, ALPHA), ("VV", 4): (e1, e1),
            # every other sector: balanced on the first-beam path, (1, e^{2iθ}) odd
            ("other", 3): (e1, e1), ("other", 4): (ALPHA, e2),
        }
        for br in s.branches:
            c1_pol = br.config[0][1]
            c2_pol = br.config[1][1]
            sector = "VV" if (c1_pol, c2_pol) == (1, 1) else "other"
            t_path = br.config[2][0]
            want = expected[(sector, t_path)]
            assert br.qubus[0] == pytest.approx(want[0], abs=1e-12)
            assert br.qubus[1] == pytest.approx(want[1], abs=1e-12)


class TestCPathQndMode:
    def test_records_and_probability(self, rng):
        vec = random_qubit_vector(4, rng)
        det = DetectorParams(eta=0.9, gamma=100.0, theta_p=0.1)
        res = c_path(two_photon_input(vec), "C", "T", (1, 2), ALPHA, THETA,
                     mode=QndMode(det))
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        ideal = c_path_ideal(vec)
        for rec in res.outcomes:
            if any("ambiguous" in str(lab) for lab in rec.labels):
                continue
            assert fidelity(ideal, rec.state) >= 1 - 1e-9


SPLIT_C = [("C", ((0, "H"), (3, "H"))), ("T", ((1, "H"), (1, "V")))]
FLIP = ModeSelector(0, "V", "C")


def merge(photons, ancilla):
    """Merge photon P from paths (2, 3) onto path 4, C the companion."""
    st = product_state([("C", 0, "H"), *photons], extra_paths=[3, 4])
    return merging(st, "P", (2, 3), 4, ALPHA, THETA, ancilla=ancilla,
                   companion_flip=FLIP)


@pytest.mark.parametrize("run, message", [
    (lambda: c_path(state_from_amplitudes(SPLIT_C, [1, 0, 0, 1] / np.sqrt(2)),
                    "C", "T", (1, 2), ALPHA, THETA),
     "control photon must sit on a single path"),
    (lambda: c_path(product_state([("C", 0, "H"), ("T", 1, "H"), ("X", 2, "H")]),
                    "C", "T", (1, 2), ALPHA, THETA),
     "second target path must be empty"),
    (lambda: merge([("P", 2, "H"), ("X", 3, "H")], FreshAncilla()),
     "path 3 holds other photons"),
    (lambda: merge([("P", 2, "H"), ("X", 4, "H")], FreshAncilla()),
     "destination path must be empty"),
    (lambda: merge([("P", 2, "H"), ("X", 4, "H"), ("A", 5, "+")],
                   ParkedAncilla("A", 5, 1)),
     "destination path must be empty"),
    (lambda: merge([("P", 2, "H"), ("A", 5, "+")], ParkedAncilla("A", 4, 1)),
     "parked ancilla is not where recorded"),
    (lambda: cnot(state_from_amplitudes(SPLIT_C, [1, 0, 0, 1] / np.sqrt(2)),
                  "C", "T", ALPHA, THETA),
     "photon 'C' is not on a single path"),
    (lambda: multi_toffoli(product_state([("C", 0, "V"), ("T", 1, "H")]),
                           ["C"], "T", ALPHA, THETA),
     "need at least two control photons"),
    (lambda: qubus_bs(product_state([("C", 0, "H")], beams=[1.0]), 0, 0),
     "two distinct beams"),
], ids=["c_path-control-split", "c_path-second-path", "merging-other-photons",
        "merging-fresh-dest", "merging-parked-dest", "merging-parked-moved",
        "home-path", "multi_toffoli-one-control", "qubus_bs-one-beam"])
def test_precondition_errors(run, message):
    with pytest.raises(PreconditionViolation, match=message):
        run()
