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
    dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if dev > tol:
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
    """Real orthogonal O diagonalizing the unitary symmetric m = O D Oᵀ."""
    a, b = m.real, m.imag
    w, q = np.linalg.eigh(a)
    o = q.copy()
    i = 0
    while i < 4:
        j = i
        while j + 1 < 4 and abs(w[j + 1] - w[i]) < 1e-9:
            j += 1
        if j > i:
            block = o[:, i:j + 1]
            sub = block.T @ b @ block
            _, qs = np.linalg.eigh(0.5 * (sub + sub.T))
            o[:, i:j + 1] = block @ qs
        i = j + 1
    if np.linalg.det(o) < 0:
        o[:, 0] = -o[:, 0]
    return o


def _kak_raw(u: np.ndarray):
    """One decomposition attempt; returns (angles, L1, L2, ok_flag)."""
    d = np.linalg.det(u)
    root = cmath.exp(1j * cmath.phase(d) / 4)
    usu = u / root
    v = MAGIC.conj().T @ usu @ MAGIC
    m = v.T @ v
    o = _joint_orthogonal_diagonalization(m)
    diag = o.T @ m @ o
    if np.abs(diag - np.diag(np.diag(diag))).max() > 1e-8:
        return None
    evals = np.diag(diag)
    theta = np.angle(evals) / 2.0
    total = theta.sum()
    theta[0] -= math.pi * round(total / math.pi)
    k1 = v @ o @ np.diag(np.exp(-1j * theta))
    if np.abs(k1.imag).max() > 1e-7:
        return None
    k1 = k1.real
    l1 = MAGIC @ k1 @ MAGIC.conj().T
    l2 = MAGIC @ o.T @ MAGIC.conj().T
    lam = theta
    ax = (lam[0] + lam[2]) / 2
    ay = (lam[1] + lam[2]) / 2
    az = (lam[0] + lam[1]) / 2
    return (ax, ay, az), l1 * root, l2


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


def kak_decompose(u: np.ndarray, tol: float = 1e-9,
                  max_retries: int = 8) -> TwoQubitCanonicalParams:
    """Decompose U ∈ U(4), validated by reconstruction to within `tol`.

    Degenerate spectra occasionally destabilize the joint diagonalization;
    such attempts are retried after conjugating with seeded random locals
    (deterministic), and NumericalDegeneracy is raised only if all retries
    fail.
    """
    u = check_unitary(np.asarray(u, dtype=complex), 1e-10)
    if u.shape != (4, 4):
        raise NonUnitaryMatrix("expected a 4x4 matrix")
    rng = np.random.default_rng(2024075)  # deterministic retry seed
    for attempt in range(max_retries):
        if attempt == 0:
            pre = post = (PAULI_I, PAULI_I)
            target = u
        else:
            pre = (_random_su2(rng), _random_su2(rng))
            post = (_random_su2(rng), _random_su2(rng))
            target = np.kron(*pre) @ u @ np.kron(*post)
        raw = _kak_raw(target)
        if raw is None:
            continue
        angles, l1, l2 = raw
        try:
            b1, b2 = kron_split(l1)
            b3, b4 = kron_split(l2)
        except NumericalDegeneracy:
            continue
        # undo the random conjugation
        b1, b2 = pre[0].conj().T @ b1, pre[1].conj().T @ b2
        b3, b4 = b3 @ post[0].conj().T, b4 @ post[1].conj().T
        angles, b1, b2, b3, b4 = _canonicalize(angles, b1, b2, b3, b4)
        params = TwoQubitCanonicalParams(angles[0], angles[1], angles[2],
                                         b1, b2, b3, b4)
        if np.abs(params.reconstruct() - u).max() <= tol:
            return params
    raise NumericalDegeneracy(
        "no stable canonical decomposition found after retries")


def _random_su2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q) + 0j)
