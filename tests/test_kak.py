import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubusim.errors import NonUnitaryMatrix
from qubusim.kak import (
    MAGIC,
    canonical_gate,
    canonical_phases,
    controlled_diag_pair,
    kak_decompose,
    kron_split,
)
from qubusim.verify import ideal_cnot, ideal_swap

from conftest import random_unitary


def weyl_ok(ax, ay, az, tol=1e-9):
    return (math.pi / 4 + tol >= ax >= ay - tol
            and ay >= abs(az) - tol and ay >= -tol)


class TestMagicBasis:
    def test_unitary(self):
        assert np.abs(MAGIC.conj().T @ MAGIC - np.eye(4)).max() < 1e-15

    def test_locals_become_real_orthogonal(self, rng):
        for _ in range(20):
            a = random_unitary(2, rng)
            b = random_unitary(2, rng)
            a /= np.sqrt(np.linalg.det(a) + 0j)
            b /= np.sqrt(np.linalg.det(b) + 0j)
            o = MAGIC.conj().T @ np.kron(a, b) @ MAGIC
            assert np.abs(o.imag).max() < 1e-12
            assert np.abs(o.real @ o.real.T - np.eye(4)).max() < 1e-12

    def test_canonical_gate_diagonalizes(self, rng):
        for _ in range(10):
            ax, ay, az = rng.uniform(-1, 1, size=3)
            n = canonical_gate(ax, ay, az)
            d = MAGIC.conj().T @ n @ MAGIC
            assert np.abs(d - np.diag(np.diag(d))).max() < 1e-12
            assert np.abs(np.diag(d) - canonical_phases(ax, ay, az)).max() < 1e-12

    def test_controlled_diag_pair_reassembles(self, rng):
        ax, ay, az = rng.uniform(-0.7, 0.7, size=3)
        u1, u2 = controlled_diag_pair(ax, ay, az)
        d = np.zeros((4, 4), dtype=complex)
        d[:2, :2] = u1
        d[2:, 2:] = u2
        n = canonical_gate(ax, ay, az)
        assert np.abs(MAGIC @ d @ MAGIC.conj().T - n).max() < 1e-12


class TestKronSplit:
    def test_roundtrip(self, rng):
        a = random_unitary(2, rng)
        b = random_unitary(2, rng)
        got_a, got_b = kron_split(np.kron(a, b))
        assert np.abs(np.kron(got_a, got_b) - np.kron(a, b)).max() < 1e-10


class TestKakDecompose:
    def test_identity(self):
        p = kak_decompose(np.eye(4, dtype=complex))
        assert p.angles == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert np.abs(p.reconstruct() - np.eye(4)).max() <= 1e-9

    def test_cnot_class(self):
        p = kak_decompose(ideal_cnot())
        assert p.ax == pytest.approx(math.pi / 4, abs=1e-9)
        assert p.ay == pytest.approx(0.0, abs=1e-9)
        assert p.az == pytest.approx(0.0, abs=1e-9)
        assert np.abs(p.reconstruct() - ideal_cnot()).max() <= 1e-9

    def test_swap_class(self):
        p = kak_decompose(ideal_swap())
        assert p.angles == pytest.approx((math.pi / 4,) * 3, abs=1e-9)
        assert np.abs(p.reconstruct() - ideal_swap()).max() <= 1e-9

    def test_hundred_random_unitaries(self, rng):
        worst = 0.0
        for _ in range(100):
            u = random_unitary(4, rng)
            p = kak_decompose(u)
            worst = max(worst, np.abs(p.reconstruct() - u).max())
            assert weyl_ok(*p.angles)
        assert worst <= 1e-9

    def test_degenerate_families(self, rng):
        cases = [
            np.kron(random_unitary(2, rng), random_unitary(2, rng)),
            np.diag([1, 1, 1, -1]).astype(complex),          # cz
            canonical_gate(math.pi / 4, math.pi / 8, 0.0),
            np.diag(np.exp(1j * np.array([0.3, 0.3, 0.3, 0.3]))),
            1j * ideal_swap(),
        ]
        for u in cases:
            p = kak_decompose(u)
            assert np.abs(p.reconstruct() - u).max() <= 1e-9
            assert weyl_ok(*p.angles)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(angles=st.tuples(*[st.one_of(
               st.sampled_from([0.0, math.pi / 8, math.pi / 4]),
               st.floats(-12, -6).map(lambda e: 10.0 ** e))] * 3),
           signs=st.tuples(*[st.sampled_from([1, -1])] * 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_near_degenerate_angles(self, angles, signs, seed):
        """Canonical angles from 0, π/8, π/4 and ε in 1e-12..1e-6, with
        signs, leave near-equal eigenphases in the magic frame."""
        rng = np.random.default_rng(seed)
        u = (np.kron(random_unitary(2, rng), random_unitary(2, rng))
             @ canonical_gate(*(s * a for s, a in zip(signs, angles)))
             @ np.kron(random_unitary(2, rng), random_unitary(2, rng)))
        p = kak_decompose(u)
        assert np.abs(p.reconstruct() - u).max() <= 1e-9
        assert weyl_ok(*p.angles)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryMatrix):
            kak_decompose(np.ones((4, 4)))
        with pytest.raises(NonUnitaryMatrix):
            kak_decompose(np.eye(2))
