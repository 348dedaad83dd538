import cmath
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubusim.errors import (
    NonUnitaryMatrix,
    PreconditionViolation,
    UnknownPath,
)
from qubusim.state import (
    Branch,
    HybridState,
    coherent_overlap,
    fidelity,
    product_state,
    state_from_amplitudes,
)

from conftest import finite_complex, hybrid_states


class TestCoherentOverlap:
    def test_identical_states_give_one(self):
        for a in (0, 1.5, 2 - 1j, -0.3j):
            assert coherent_overlap(a, a) == pytest.approx(1.0)

    def test_vacuum_against_real_amplitude(self):
        assert coherent_overlap(0, 2) == pytest.approx(math.exp(-2))

    def test_one_against_i_matches_fock_sum(self):
        # independent check: truncated Fock series with cutoff 60
        cutoff = 60
        total = 0j
        for n in range(cutoff + 1):
            ca = math.exp(-0.5) / math.sqrt(math.factorial(n))        # <n|1>
            cb = math.exp(-0.5) * (1j) ** n / math.sqrt(math.factorial(n))
            total += ca * cb
        got = coherent_overlap(1, 1j)
        assert got == pytest.approx(total, abs=1e-12)
        assert got == pytest.approx(cmath.exp(-1 + 1j), abs=1e-12)
        assert got.real == pytest.approx(0.19877, abs=5e-6)
        assert got.imag == pytest.approx(0.30956, abs=5e-6)

    @given(finite_complex, finite_complex)
    def test_magnitude_law(self, a, b):
        ov = coherent_overlap(a, b)
        assert abs(ov) ** 2 == pytest.approx(math.exp(-abs(a - b) ** 2), abs=1e-12)


class TestNorm:
    def test_single_branch(self):
        st_ = product_state([("p", 0, "H")])
        assert st_.norm() == pytest.approx(1.0)

    def test_opposite_beams_are_not_orthogonal(self):
        beta = 2.0  # |beta|^2 = 4
        r = 1 / math.sqrt(2)
        branches = (
            Branch(r, ((0, 0),), (beta,)),
            Branch(r, ((0, 0),), (-beta,)),
        )
        state = HybridState(("p",), frozenset({0}), 1, branches)
        assert state.norm() == pytest.approx(math.sqrt(1 + math.exp(-8)), abs=1e-12)
        assert state.norm() == pytest.approx(1.000168, abs=1e-6)

    def test_different_configs_are_orthogonal(self):
        branches = (
            Branch(1 / math.sqrt(2), ((0, 0),), (1.0,)),
            Branch(1 / math.sqrt(2), ((1, 0),), (2.0,)),
        )
        state = HybridState(("p",), frozenset({0, 1}), 1, branches)
        assert state.norm() == pytest.approx(1.0)


class TestCanonicalize:
    def test_merges_identical_branches(self):
        branches = (
            Branch(0.5 + 0j, ((0, 0),), ()),
            Branch(0.5 + 0j, ((0, 0),), ()),
        )
        state = HybridState(("p",), frozenset({0}), 0, branches)
        got = state.canonicalize()
        assert len(got.branches) == 1
        assert got.branches[0].amp == pytest.approx(1.0)

    def test_drops_tiny_amplitudes(self):
        branches = (
            Branch(1.0 + 0j, ((0, 0),), ()),
            Branch(1e-18 + 0j, ((1, 0),), ()),
        )
        state = HybridState(("p",), frozenset({0, 1}), 0, branches)
        got = state.canonicalize(tol=1e-12)
        assert len(got.branches) == 1

    def test_respects_qubus_separation(self):
        branches = (
            Branch(0.5 + 0j, ((0, 0),), (1.0 + 0j,)),
            Branch(0.5 + 0j, ((0, 0),), (1.0 + 2e-9j,)),
            Branch(0.5 + 0j, ((0, 0),), (2.0 + 0j,)),
        )
        state = HybridState(("p",), frozenset({0}), 1, branches)
        got = state.canonicalize(tol=1e-8)
        assert len(got.branches) == 2

    @settings(max_examples=40)
    @given(hybrid_states())
    def test_idempotent(self, state):
        once = state.canonicalize()
        twice = once.canonicalize()
        assert len(once.branches) == len(twice.branches)
        for a, b in zip(once.branches, twice.branches):
            assert a.config == b.config
            assert a.amp == pytest.approx(b.amp, abs=1e-12)

    @settings(max_examples=40)
    @given(hybrid_states())
    def test_preserves_norm(self, state):
        assert state.canonicalize().norm() == pytest.approx(state.norm(), abs=1e-9)


class TestPhotonUnitary:
    def test_bit_flip_moves_polarization(self):
        st_ = product_state([("p", 5, "H")])
        x = np.array([[0, 1], [1, 0]])
        got = st_.apply_photon_unitary("p", (5, "H"), (5, "V"), x)
        assert got.branches[0].config == ((5, 1),)

    def test_identity_leaves_state(self):
        st_ = product_state([("p", 0, "+")])
        got = st_.apply_photon_unitary("p", (0, "H"), (0, "V"), np.eye(2))
        assert fidelity(st_, got) == pytest.approx(1.0)

    def test_hadamard_twice_is_identity(self):
        st_ = product_state([("p", 0, {"H": 0.6, "V": 0.8j})])
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        got = st_.apply_photon_unitary("p", (0, "H"), (0, "V"), h)
        got = got.apply_photon_unitary("p", (0, "H"), (0, "V"), h)
        assert fidelity(st_, got) == pytest.approx(1.0, abs=1e-12)
        assert got.inner(st_) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        st_ = product_state([("p", 0, "H")])
        with pytest.raises(NonUnitaryMatrix):
            st_.apply_photon_unitary("p", (0, "H"), (0, "V"), np.ones((2, 2)))

    def test_untouched_when_photon_elsewhere(self):
        st_ = product_state([("p", 1, "V")], extra_paths=[0])
        x = np.array([[0, 1], [1, 0]])
        got = st_.apply_photon_unitary("p", (0, "H"), (0, "V"), x)
        assert got.branches == st_.branches


class TestSwapPaths:
    def test_moves_occupancy(self):
        st_ = product_state([("p", 3, "H")], extra_paths=[5])
        got = st_.swap_paths(3, 5)
        assert got.branches[0].config == ((5, 0),)

    def test_involutive(self):
        st_ = product_state([("p", 3, "+")], extra_paths=[5])
        got = st_.swap_paths(3, 5).swap_paths(3, 5)
        assert got.branches == st_.branches

    def test_unoccupied_paths_no_op(self):
        st_ = product_state([("p", 3, "H")], extra_paths=[5, 6])
        got = st_.swap_paths(5, 6)
        assert got.branches == st_.branches

    def test_unknown_path_raises(self):
        st_ = product_state([("p", 3, "H")])
        with pytest.raises(UnknownPath):
            st_.swap_paths(3, 99)


class TestBeams:
    def test_attach_and_detach(self):
        st_ = product_state([("p", 0, "H")], beams=[1.5])
        st2, amp = st_.detach_beam(0)
        assert amp == pytest.approx(1.5)
        assert st2.n_beams == 0

    def test_detach_refuses_entangled_beam(self):
        branches = (
            Branch(1 / math.sqrt(2), ((0, 0),), (1.0 + 0j,)),
            Branch(1 / math.sqrt(2), ((0, 1),), (2.0 + 0j,)),
        )
        state = HybridState(("p",), frozenset({0}), 1, branches)
        with pytest.raises(PreconditionViolation):
            state.detach_beam(0)


class TestBuilders:
    def test_plus_normalizes_to_hv(self):
        st_ = product_state([("p", 0, "+")])
        assert len(st_.branches) == 2
        amps = sorted(br.amp.real for br in st_.branches)
        assert amps == pytest.approx([1 / math.sqrt(2)] * 2)

    def test_state_from_amplitudes_roundtrip(self, rng):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        st_ = state_from_amplitudes(
            [("a", ((0, "H"), (0, "V"))), ("b", ((1, "H"), (1, "V")))], vec)
        assert st_.norm() == pytest.approx(1.0)
        assert len(st_.branches) == 4

    @pytest.mark.parametrize("spec", [(0.6, 0.8j), [0.6, 0.8j], np.array([0.6, 0.8j]),
                                      {"H": 0.6, "V": 0.8j}],
                             ids=["tuple", "list", "array", "mapping"])
    def test_polarization_pairs(self, spec):
        st_ = product_state([("p", 0, spec)])
        assert [br.amp for br in st_.branches] == [0.6, 0.8j]

    def test_swap_photon_labels(self):
        st_ = product_state([("a", 0, "H"), ("b", 1, "V")])
        got = st_.swap_photon_labels("a", "b")
        idx_a = got.photon_index("a")
        assert got.branches[0].config[idx_a] == (1, 1)


def test_only_state_builds_branches():
    """The branch layout is known to state.py alone: no other module under
    src/qubusim constructs a Branch or replaces a state's branches."""
    src = Path(__file__).resolve().parents[1] / "src" / "qubusim"
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "state.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\bBranch\(|\bbranches=", line)]
    assert not found, "\n".join(found)
