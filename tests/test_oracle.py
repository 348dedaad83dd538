"""Truncated-Fock oracle: self-consistency and fast-path equivalence."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qubusim.detection import enumerate_fock_outcomes, fock_outcome_classes
from qubusim.elements import (
    ANY,
    ModeSelector,
    PbsDiag,
    PbsHV,
    PhaseShift,
    PhotonBS,
    QubusBS,
    QubusPhase,
    Xpm,
    apply_instruction,
    qubus_bs,
    xpm,
)
from qubusim.errors import CutoffTooSmall, SimulatorError
from qubusim.oracle import (
    beam_distribution,
    coherent_coefficients,
    compare,
    equivalence_report,
    fock_apply,
    fock_encode,
    project_beam_number,
)
from qubusim.state import product_state, state_from_amplitudes

from conftest import random_qubit_vector


class TestEncode:
    def test_vacuum_is_basis_vector(self):
        st = product_state([("p", 0, "H")], beams=[0.0])
        fv = fock_encode(st, 10)
        block = fv.blocks[((0, 0),)]
        assert block[0] == pytest.approx(1.0)
        assert np.abs(block[1:]).max() == 0.0

    def test_unit_coherent_coefficients(self):
        c = coherent_coefficients(1.0, 30)
        for n in range(8):
            assert c[n] == pytest.approx(
                math.exp(-0.5) / math.sqrt(math.factorial(n)), abs=1e-12)
        assert 1 - np.sum(np.abs(c) ** 2) < 1e-30

    def test_cutoff_guard(self):
        st = product_state([("p", 0, "H")], beams=[2.5])
        with pytest.raises(CutoffTooSmall):
            fock_encode(st, 6)

    def test_inner_products_match_fast_path(self, rng):
        vec = random_qubit_vector(4, rng)
        st = state_from_amplitudes(
            [("a", ((0, "H"), (0, "V"))), ("b", ((1, "H"), (1, "V")))], vec)
        st = st.attach_beams((1.2, 0.4 - 0.9j))
        other = xpm(st, ModeSelector(0, "V"), 0, 0.7)
        fv = fock_encode(st, 40)
        assert abs(fv.inner(fv) - st.inner(st)) <= 1e-8
        assert abs(fv.inner(fock_encode(other, 40)) - st.inner(other)) <= 1e-8


class TestApply:
    def test_xpm_on_vacuum_is_identity(self):
        st = product_state([("p", 0, "V")], beams=[0.0])
        fv = fock_encode(st, 10)
        got = fock_apply(Xpm(ModeSelector(0, "V"), 0, 0.7), fv)
        assert compare(st, got) <= 1e-12

    def test_qubus_bs_merges_equal_amplitudes(self):
        st = product_state([("p", 0, "H")], beams=[1.0, 1.0])
        fv = fock_apply(QubusBS(0, 1), fock_encode(st, 40))
        from qubusim.elements import qubus_bs
        expected = qubus_bs(st, 0, 1)   # (0, √2)
        assert compare(expected, fv) <= 1e-8
        # first mode is vacuum-dominated
        p0, _ = project_beam_number(fv, 0, 0)
        assert p0 == pytest.approx(1.0, abs=1e-10)

    def test_every_element_matches_fast_path(self):
        report = equivalence_report(1.5, 0.5, cutoff=40)
        assert report["worst_element"] <= 1e-8

    def test_boundary_leakage_guard(self):
        st = product_state([("p", 0, "H")], beams=[2.0, 2.0])
        fv = fock_encode(st, 11, tail=1.0)  # deliberately tight cutoff
        with pytest.raises(CutoffTooSmall):
            fock_apply(QubusBS(0, 1), fv)


def two_photons(vec, beams):
    st = state_from_amplitudes(
        [("a", ((0, "H"), (0, "V"))), ("b", ((1, "H"), (1, "V")))], vec)
    return st.attach_beams(beams)


def mixed_beams(vec):
    """Two beams that never met the photons, mixed on a beam splitter."""
    return qubus_bs(two_photons(vec, (1.3, 0.8)), 0, 1)


def class_form_bus(vec):
    """Beam 0 at 0 and ±z, the form of every bus a composite gate measures:
    each photon's V mode shifts its own beam, and the beam splitter leaves
    their difference on beam 0."""
    st = xpm(two_photons(vec, (1.3, 1.3)), ModeSelector(0, "V", "a"), 0, 0.9)
    st = xpm(st, ModeSelector(1, "V", "b"), 1, 0.9)
    return qubus_bs(st, 0, 1)


class TestMeasurement:
    @pytest.mark.parametrize("bus", [mixed_beams, class_form_bus],
                             ids=["mixed-beams", "class-form"])
    def test_distributions_match(self, rng, bus):
        st = bus(random_qubit_vector(4, rng))
        fv = fock_encode(st, 40)
        dist = beam_distribution(fv, 0)
        for n, p, _ in enumerate_fock_outcomes(st, 0, tail=1e-13):
            assert p == pytest.approx(dist[n], abs=1e-8)
        # both beams 0 hold only 0 and ±z (the mixed one a single z): by
        # class, n = 0, odd n and even n >= 2 sum the oracle's n
        classes = fock_outcome_classes(st, 0, tail=1e-13)
        assert [n for n, _, _, _ in classes] == [0, 1, 2]
        assert [p for _, p, _, _ in classes] == pytest.approx(
            [dist[0], dist[1::2].sum(), dist[2::2].sum()], abs=1e-8)

    def test_projection_consistency(self):
        # measuring the collapsed mode again returns the same n certainly
        st = product_state([("p", 0, "H")], beams=[1.1, 0.7])
        fv = fock_encode(st, 30)
        p1, post = project_beam_number(fv, 0, 2, keep=True)
        assert p1 > 0
        norm1 = post.norm()
        p2, _ = project_beam_number(post.scaled(1 / norm1), 0, 2)
        assert p2 == pytest.approx(1.0, abs=1e-12)
        for other in (0, 1, 3):
            p_other, _ = project_beam_number(post, 0, other)
            assert p_other == pytest.approx(0.0, abs=1e-15)

    def test_compare_on_identical_and_orthogonal(self):
        st = product_state([("p", 0, "H")], beams=[1.0])
        fv = fock_encode(st, 30)
        assert compare(st, fv) <= 1e-12
        other = product_state([("p", 0, "V")], beams=[1.0])
        assert compare(other, fv) == pytest.approx(1.0, abs=1e-12)


class TestPipelines:
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_equivalence_suite(self, alpha, theta):
        report = equivalence_report(alpha, theta, cutoff=40)
        assert report["worst_element"] <= 1e-6
        assert report["worst_pipeline"] <= 1e-6
        assert report["worst_distribution"] <= 1e-8


# -- random element programs against the oracle ---------------------------------

PATHS = range(6)
PROGRAM_CUTOFF = 24  # |α| ≤ 1.5 on two beams: tails below 1e-10 even after a qubus BS
# generic angles: no multiple of π/2, where a sign or a conjugate would not show
PHASES = st.integers(-6, 6).map(lambda k: 0.5 * k + 0.1)


@st.composite
def element_programs(draw):
    """A product state of at most 3 photons (on paths 0-2) and 2 beams of
    |α| ≤ 1.5, and 2 to 6 of the seven element instructions over paths
    0-5.  Routes and selectors may collide or miss, which must raise on both
    sides alike."""
    photons = [(f"p{i}", i, (math.cos(a), math.sin(a) * cmath.exp(1j * b)))
               for i, (a, b) in enumerate(draw(st.lists(st.tuples(PHASES, PHASES),
                                                        min_size=1, max_size=3)))]
    beams = [0.25 * k * cmath.exp(1j * phi) for k, phi in draw(st.lists(
        st.tuples(st.integers(0, 6), PHASES), min_size=1, max_size=2))]
    path = st.sampled_from(PATHS)
    selector = st.builds(ModeSelector, path, st.sampled_from(["H", "V", ANY]),
                         st.sampled_from([None] + [pid for pid, _, _ in photons]))
    inputs = st.lists(path, min_size=1, max_size=2, unique=True)
    routes = inputs.flatmap(lambda ins: st.tuples(*(st.tuples(st.just(p), path) for p in ins)))
    beam = st.integers(0, len(beams) - 1)
    kinds = [st.builds(PhotonBS, path, path).filter(lambda i: i.path_a != i.path_b),
             st.builds(PbsHV, routes, routes), st.builds(PbsDiag, routes, routes),
             st.builds(PhaseShift, selector, PHASES), st.builds(QubusPhase, beam, PHASES),
             st.builds(Xpm, selector, beam, PHASES)]
    if len(beams) == 2:
        kinds.append(st.sampled_from([QubusBS(0, 1), QubusBS(1, 0)]))
    program = draw(st.lists(st.one_of(kinds), min_size=2, max_size=6))
    return product_state(photons, beams, extra_paths=PATHS), program


class TestRandomPrograms:
    """The elements against the truncated-Fock oracle on random programs."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(element_programs())
    def test_programs_match_the_oracle(self, case):
        fast, program = case
        fv = fock_encode(fast, PROGRAM_CUTOFF)
        for ins in program:
            try:
                fast = apply_instruction(fast, ins)
            except SimulatorError:
                with pytest.raises(SimulatorError):
                    fock_apply(ins, fv)
                return
            fv = fock_apply(ins, fv)
        # fock_encode refuses coherent tails above 1e-10 beyond the cutoff
        assert compare(fast, fv) <= 1e-8
        dist = beam_distribution(fv, 0)
        fast_dist = np.zeros_like(dist)
        for n, p, _ in enumerate_fock_outcomes(fast, 0, tail=1e-13):
            fast_dist[n] = p
        assert np.abs(fast_dist - dist).max() <= 1e-8
