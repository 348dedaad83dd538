import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qubusim.state import Branch, HybridState

# pytest puts src/ on sys.path (pyproject.toml); tests that start
# `python -m qubusim` in a subprocess need it on PYTHONPATH as well
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_qubit_vector(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# -- hypothesis strategies ----------------------------------------------------

finite_complex = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)

small_amp = st.builds(
    complex,
    st.floats(-1, 1, allow_nan=False, allow_infinity=False),
    st.floats(-1, 1, allow_nan=False, allow_infinity=False),
)


@st.composite
def hybrid_states(draw, max_photons=2, max_beams=2, max_branches=4, paths=(0, 1, 2)):
    """Random normalized hybrid states over a small registry."""
    n_photons = draw(st.integers(1, max_photons))
    n_beams = draw(st.integers(0, max_beams))
    photons = tuple(f"p{i}" for i in range(n_photons))
    n_branches = draw(st.integers(1, max_branches))
    branches = []
    seen = set()
    for _ in range(n_branches):
        config = []
        used_modes = set()
        for _ in photons:
            path = draw(st.sampled_from(paths))
            pol = draw(st.integers(0, 1))
            if (path, pol) in used_modes:
                config = None
                break
            used_modes.add((path, pol))
            config.append((path, pol))
        if config is None:
            continue
        config = tuple(config)
        qubus = tuple(draw(small_amp) for _ in range(n_beams))
        key = (config, tuple((round(z.real, 6), round(z.imag, 6)) for z in qubus))
        if key in seen:
            continue
        seen.add(key)
        amp = draw(small_amp)
        if abs(amp) < 1e-3:
            amp = 1.0 + 0j
        branches.append(Branch(amp, config, qubus))
    if not branches:
        branches = [Branch(1 + 0j, tuple((p, 0) for p in range(n_photons)), (0j,) * n_beams)]
    state = HybridState(photons=photons, paths=frozenset(paths) | {0, 1, 2},
                        n_beams=n_beams, branches=tuple(branches))
    norm = state.norm()
    if norm < 1e-6:
        state = HybridState(photons=photons, paths=state.paths, n_beams=n_beams,
                            branches=(Branch(1 + 0j, branches[0].config,
                                             branches[0].qubus),))
        norm = state.norm()
    return state.scaled(1 / norm)
