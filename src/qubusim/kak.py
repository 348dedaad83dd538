"""Cartan (KAK) decomposition of two-qubit unitaries.

Any U ∈ U(4) factors as U = (A1⊗A2) · N(ax, ay, az) · (A3⊗A4) with
single-qubit locals A_i and the canonical entangler

    N(ax, ay, az) = exp[i(ax σx⊗σx + ay σy⊗σy + az σz⊗σz)].

In the magic (Bell-like) basis used here, N is diagonal with phases

    diag(e^{i(ax−ay+az)}, e^{−i(ax−ay−az)}, e^{i(ax+ay−az)}, e^{−i(ax+ay+az)}),

which reads, in the computational basis of the diagonalized gate, as a
polarization-controlled pair of single-qubit phase gates — the form the
photonic gate pipeline can execute directly.

Angles are reduced to the Weyl-chamber representative
π/4 ≥ ax ≥ ay ≥ |az| (az ≥ 0 when ax = π/4) so decompositions are
deterministic and comparable.  Everything is validated by reconstruction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitaryMatrix, NumericalDegeneracy

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Magic basis columns: (|00⟩+|11⟩)/√2, −i(|00⟩−|11⟩)/√2,
# −i(|01⟩+|10⟩)/√2, (|01⟩−|10⟩)/√2.  Conjugating SU(2)⊗SU(2) by this
# matrix gives SO(4); conjugating N gives the diagonal quoted above.
MAGIC = np.array([
    [1, -1j, 0, 0],
    [0, 0, -1j, 1],
    [0, 0, -1j, -1],
    [1, 1j, 0, 0],
], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class TwoQubitCanonicalParams:
    """Canonical angles plus the four local unitaries of a KAK factorization."""

    ax: float
    ay: float
    az: float
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.ax, self.ay, self.az)

    def reconstruct(self) -> np.ndarray:
        return (np.kron(self.a1, self.a2)
                @ canonical_gate(self.ax, self.ay, self.az)
                @ np.kron(self.a3, self.a4))


def check_unitary(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NonUnitaryMatrix("expected a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan
        dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not dev <= tol:
        raise NonUnitaryMatrix(f"matrix deviates from unitarity by {dev:.3e}")
    return u


def canonical_gate(ax: float, ay: float, az: float) -> np.ndarray:
    """N(ax, ay, az); the three factors commute so closed forms suffice."""
    out = np.eye(4, dtype=complex)
    for angle, p in zip((ax, ay, az), _PAULIS):
        pp = np.kron(p, p)
        out = out @ (math.cos(angle) * np.eye(4) + 1j * math.sin(angle) * pp)
    return out


def canonical_phases(ax: float, ay: float, az: float) -> np.ndarray:
    """Diagonal of the magic-frame form of N(ax, ay, az)."""
    return np.array([
        cmath.exp(1j * (ax - ay + az)),
        cmath.exp(-1j * (ax - ay - az)),
        cmath.exp(1j * (ax + ay - az)),
        cmath.exp(-1j * (ax + ay + az)),
    ])


def controlled_diag_pair(ax: float, ay: float, az: float) -> tuple[np.ndarray, np.ndarray]:
    """The two single-qubit diagonals of the diagonalized canonical gate:
    applied to the target when the control is H (first) or V (second)."""
    d = canonical_phases(ax, ay, az)
    return np.diag(d[:2]), np.diag(d[2:])


def kron_split(l4: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Factor a 4×4 kron product into its 2×2 factors (scalar split fixed by
    making the first factor unitary)."""
    r = l4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(r)
    a = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * math.sqrt(s[0])).reshape(2, 2)
    gram = a.conj().T @ a
    scale = math.sqrt(abs(gram[0, 0].real))
    if scale < 1e-12:
        raise NumericalDegeneracy("kron factor collapsed")
    a = a / scale
    b = b * scale
    if np.abs(np.kron(a, b) - l4).max() > tol:
        raise NumericalDegeneracy("matrix is not a local (kron) product")
    return a, b


def _joint_orthogonal_diagonalization(m: np.ndarray) -> np.ndarray:
    """Real orthogonal O diagonalizing the unitary symmetric m = O D Oᵀ.

    Re(m) and Im(m) commute, so O diagonalizes cos t·Re(m) + sin t·Im(m),
    whose eigenvalues cos(φ_k − t) meet only where e^{iφ_j} = e^{iφ_k} or
    2t = φ_j + φ_k (mod 2π).  t is the centre of the widest gap between the
    six pair midpoints (φ_j + φ_k)/2 mod π, a gap at least π/6 wide, so a
    near-tie left in the combination is a near-tie of m itself, where any
    basis leaves a residual no larger than the tie's width.
    """
    phi = np.angle(np.linalg.eigvals(m))
    mids = np.sort([(phi[j] + phi[k]) / 2 % math.pi
                    for j in range(4) for k in range(j + 1, 4)])
    gaps = np.diff(mids, append=mids[0] + math.pi)
    i = int(np.argmax(gaps))
    t = mids[i] + gaps[i] / 2
    _, o = np.linalg.eigh(math.cos(t) * m.real + math.sin(t) * m.imag)
    if np.linalg.det(o) < 0:
        o[:, 0] = -o[:, 0]
    return o


def _fold_angle(x: float) -> tuple[float, int]:
    """Fold into (−π/4, π/4]; returns (angle, number of π/2 shifts taken)."""
    k = math.floor(x / (math.pi / 2) + 0.5)
    a = x - k * math.pi / 2
    if a <= -math.pi / 4 + 1e-15:
        a += math.pi / 2
        k -= 1
    return a, k


def _canonicalize(angles, a1, a2, a3, a4):
    """Reduce to π/4 ≥ ax ≥ ay ≥ |az| (az ≥ 0 on the ax = π/4 face), updating
    the locals so the product is unchanged."""
    a = list(angles)

    def shift(j, k):
        # a[j] -= k·π/2; exp(i(π/2)σσ) = i σ⊗σ is local and absorbed right.
        nonlocal a3, a4
        if k == 0:
            return
        a[j] -= k * math.pi / 2
        p = _PAULIS[j]
        f = np.linalg.matrix_power(cmath.exp(1j * math.pi / 4) * p, k % 4)
        a3, a4 = f @ a3, f @ a4

    def negate_pair(j, k):
        # conjugation by σl⊗I flips the signs of the two other axes
        nonlocal a1, a3
        l = 3 - j - k
        p = _PAULIS[l]
        a1, a3 = a1 @ p, p @ a3
        a[j], a[k] = -a[j], -a[k]

    def swap_axes(j, k):
        # conjugation by C⊗C permutes the axes without introducing signs
        nonlocal a1, a2, a3, a4
        table = {(0, 1): np.diag([1, 1j]).astype(complex),  # S: x↔y
                 (0, 2): HADAMARD,                          # H: x↔z
                 (1, 2): _sqrt_x()}                         # √X-type: y↔z
        c = table[(min(j, k), max(j, k))]
        a1, a2 = a1 @ c.conj().T, a2 @ c.conj().T
        a3, a4 = c @ a3, c @ a4
        a[j], a[k] = a[k], a[j]

    for _ in range(6):
        for j in range(3):
            folded, k = _fold_angle(a[j])
            if k:
                shift(j, k)
            a[j] = folded
        negs = [j for j in range(3) if a[j] < -1e-15]
        if len(negs) >= 2:
            negate_pair(negs[0], negs[1])
        for j, k in ((0, 1), (1, 2), (0, 1)):
            if abs(a[k]) > abs(a[j]) + 1e-15:
                swap_axes(j, k)
        negs = [j for j in range(3) if a[j] < -1e-15]
        if len(negs) == 1 and negs[0] != 2:
            negate_pair(negs[0], 2)
        if math.isclose(a[0], math.pi / 4, abs_tol=1e-12) and a[2] < -1e-15:
            # on the chamber face ax = π/4 the sign of az is a gauge choice
            shift(0, 1)
            negate_pair(0, 2)
        in_chamber = (math.pi / 4 + 1e-12 >= a[0] >= a[1] - 1e-15
                      and a[1] >= abs(a[2]) - 1e-15 and a[1] >= -1e-15)
        if in_chamber:
            break
    return (a[0], a[1], a[2]), a1, a2, a3, a4


def _sqrt_x() -> np.ndarray:
    return np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2


def kak_decompose(u: np.ndarray, tol: float = 1e-9) -> TwoQubitCanonicalParams:
    """Decompose U ∈ U(4), validated by reconstruction to within `tol`.

    In the magic frame, v = M†·U·M / det(U)^{1/4} and the symmetric
    m = vᵀv = O·D·Oᵀ give U = L1 · N(angles) · L2 with 4×4 locals
    L1 = M·k1·M† (k1 = v·O·D^{−1/2}, real) and L2 = M·Oᵀ·M†.  Raises
    NumericalDegeneracy, naming the check that failed, if Oᵀ·m·O is off the
    diagonal, k1 is not real, a local is not a kron product or the factors
    do not rebuild U.
    """
    u = check_unitary(np.asarray(u, dtype=complex), 1e-10)
    if u.shape != (4, 4):
        raise NonUnitaryMatrix("expected a 4x4 matrix")
    d = np.linalg.det(u)
    root = cmath.exp(1j * cmath.phase(d) / 4)
    usu = u / root
    v = MAGIC.conj().T @ usu @ MAGIC
    m = v.T @ v
    o = _joint_orthogonal_diagonalization(m)
    diag = o.T @ m @ o
    off = np.abs(diag - np.diag(np.diag(diag))).max()
    if off > 1e-8:
        raise NumericalDegeneracy(f"off-diagonal check failed: {off:.3e}")
    evals = np.diag(diag)
    theta = np.angle(evals) / 2.0
    total = theta.sum()
    theta[0] -= math.pi * round(total / math.pi)
    k1 = v @ o @ np.diag(np.exp(-1j * theta))
    imag = np.abs(k1.imag).max()
    if imag > 1e-7:
        raise NumericalDegeneracy(f"real-k1 check failed: {imag:.3e}")
    l1 = MAGIC @ k1.real @ MAGIC.conj().T
    l2 = MAGIC @ o.T @ MAGIC.conj().T
    ax = (theta[0] + theta[2]) / 2
    ay = (theta[1] + theta[2]) / 2
    az = (theta[0] + theta[1]) / 2
    b1, b2 = kron_split(l1 * root)
    b3, b4 = kron_split(l2)
    angles, b1, b2, b3, b4 = _canonicalize((ax, ay, az), b1, b2, b3, b4)
    params = TwoQubitCanonicalParams(angles[0], angles[1], angles[2],
                                     b1, b2, b3, b4)
    err = np.abs(params.reconstruct() - u).max()
    if err > tol:
        raise NumericalDegeneracy(f"reconstruction check failed: {err:.3e}")
    return params
