"""Brute-force truncated-Fock simulator used as an independent cross-check.

Beams are expanded into dense Fock vectors up to a per-beam cutoff and
elements act as explicit matrices, so nothing here shares arithmetic with
the coherent-amplitude fast path: cross-phase modulation becomes the Fock
diagonal e^{inθ}, the qubus beam splitter a dense two-mode unitary built
per total-photon-number block, and measurements literal projectors.  Meant
for desk-scale validation (|α| ≲ 2, cutoff ≤ 64, at most two live beams).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elements import (
    ANY,
    Instruction,
    ModeSelector,
    PbsDiag,
    PbsHV,
    PhaseShift,
    PhotonBS,
    QubusBS,
    QubusPhase,
    Xpm,
)
from .errors import (
    CutoffTooSmall,
    MultiPhotonCollision,
    PreconditionViolation,
    ShapeMismatch,
    UnknownPath,
)
from .state import Config, H, HybridState, V, parse_pol

_SQ2 = math.sqrt(2)

# the largest cutoff whose dense two-mode beam splitter, (cutoff+1)^4
# complex numbers, fits in 1 GiB
MAX_CUTOFF = int((2 ** 30 / 16) ** 0.25) - 1


@dataclass
class FockVector:
    """Dense amplitudes over (photon configuration) × (beam Fock numbers).

    `blocks` maps a configuration to a complex array of shape
    (cutoff+1,)*n_beams.  `boundary_mass` accumulates the probability weight
    that reached the truncation boundary during beam-splitter applications.
    """

    photons: tuple[str, ...]
    n_beams: int
    cutoff: int
    blocks: dict[Config, np.ndarray]
    boundary_mass: float = 0.0

    def copy_shell(self) -> "FockVector":
        return FockVector(self.photons, self.n_beams, self.cutoff, {},
                          self.boundary_mass)

    def add(self, config: Config, block: np.ndarray) -> None:
        if config in self.blocks:
            self.blocks[config] = self.blocks[config] + block
        else:
            self.blocks[config] = block.copy()

    def inner(self, other: "FockVector") -> complex:
        if (self.photons != other.photons or self.n_beams != other.n_beams
                or self.cutoff != other.cutoff):
            raise ShapeMismatch("Fock vectors live on different spaces")
        total = 0j
        for cfg, block in self.blocks.items():
            ob = other.blocks.get(cfg)
            if ob is not None:
                total += np.vdot(block, ob)
        return complex(total)

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def scaled(self, factor: complex) -> "FockVector":
        out = self.copy_shell()
        out.blocks = {cfg: block * factor for cfg, block in self.blocks.items()}
        return out


def coherent_coefficients(alpha: complex, cutoff: int) -> np.ndarray:
    """⟨n|α⟩ for n = 0..cutoff."""
    n = np.arange(cutoff + 1)
    r = abs(alpha)
    if r == 0:
        out = np.zeros(cutoff + 1, dtype=complex)
        out[0] = 1.0
        return out
    logmag = -0.5 * r * r + n * math.log(r) - 0.5 * np.array(
        [math.lgamma(k + 1) for k in n])
    return np.exp(logmag) * np.exp(1j * n * cmath.phase(alpha))


def coherent_tail(alpha: complex, cutoff: int) -> float:
    c = coherent_coefficients(alpha, cutoff)
    return max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))


def fock_encode(state: HybridState, cutoff: int, tail: float = 1e-10) -> FockVector:
    """Expand every coherent amplitude of a hybrid state into Fock series."""
    worst = 0.0
    for br in state.branches:
        for q in br.qubus:
            worst = max(worst, coherent_tail(q, cutoff))
    if worst > tail:
        raise CutoffTooSmall(
            f"coherent tail {worst:.3e} beyond cutoff {cutoff} exceeds {tail:.1e}")
    fv = FockVector(state.photons, state.n_beams, cutoff, {})
    shape = (cutoff + 1,) * state.n_beams
    for br in state.branches:
        block = np.ones((), dtype=complex)
        for q in br.qubus:
            block = np.multiply.outer(block, coherent_coefficients(q, cutoff))
        fv.add(br.config, br.amp * block.reshape(shape))
    return fv


@lru_cache(maxsize=8)
def _two_mode_bs(cutoff: int) -> np.ndarray:
    """Unitary on (cutoff+1)² with coherent action |α,β⟩→|(α−β)/√2,(α+β)/√2⟩.

    Built per total-photon-number block from the generator
    ζ(a†b − ab†) with ζ = −π/4; blocks with total ≤ cutoff are exact.
    """
    dim = cutoff + 1
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total in range(2 * cutoff + 1):
        ms = [m for m in range(max(0, total - cutoff), min(cutoff, total) + 1)]
        size = len(ms)
        k = np.zeros((size, size))
        for i, m in enumerate(ms):
            n = total - m
            if i + 1 < size:  # ⟨m+1, n−1| a†b |m, n⟩
                k[i + 1, i] = math.sqrt((m + 1) * n)
                k[i, i + 1] = -math.sqrt((m + 1) * n)
        herm = 1j * k
        w, vecs = np.linalg.eigh(herm)
        block = vecs @ np.diag(np.exp(-1j * (-math.pi / 4) * w)) @ vecs.conj().T
        idx = [m * dim + (total - m) for m in ms]
        u[np.ix_(idx, idx)] = block
    return u


def _selector_hits(selector: ModeSelector, photons: tuple[str, ...], config: Config) -> bool:
    pol = None if selector.pol == ANY else parse_pol(selector.pol)
    hits = 0
    for pid, mode in zip(photons, config):
        if mode is None or mode[0] != selector.path:
            continue
        if selector.photon is not None and pid != selector.photon:
            continue
        if pol is not None and mode[1] != pol:
            continue
        hits += 1
    if hits > 1:
        raise MultiPhotonCollision("selector matches several photons")
    return hits == 1


def _config_map(fv: FockVector, images) -> FockVector:
    """Rebuild a vector from per-config linear images
    images(config) -> [(coef, new_config)]."""
    out = fv.copy_shell()
    for cfg, block in fv.blocks.items():
        for coef, new_cfg in images(cfg):
            if coef != 0:
                out.add(new_cfg, coef * block)
    out.blocks = {c: b for c, b in out.blocks.items()
                  if np.abs(b).max() > 1e-300}
    return out


def fock_apply(instr: Instruction, fv: FockVector) -> FockVector:
    """Apply one element instruction as an explicit (truncated) matrix."""
    if isinstance(instr, PhotonBS):
        a, b = instr.path_a, instr.path_b

        def images(cfg):
            occupied = [i for i, m in enumerate(cfg)
                        if m is not None and m[0] in (a, b)]
            if len(occupied) > 1:
                raise MultiPhotonCollision("two photons at the oracle BS")
            if not occupied:
                return [(1.0, cfg)]
            i = occupied[0]
            path, pol = cfg[i]
            sign = 1.0 if path == a else -1.0
            ca = list(cfg)
            ca[i] = (a, pol)
            cb = list(cfg)
            cb[i] = (b, pol)
            return [(1 / _SQ2, tuple(ca)), (sign / _SQ2, tuple(cb))]

        return _config_map(fv, images)

    if isinstance(instr, (PbsHV, PbsDiag)):
        transmit = dict(instr.transmit)
        reflect = dict(instr.reflect)
        inputs = set(transmit) | set(reflect)
        diag = isinstance(instr, PbsDiag)

        def images(cfg):
            terms = [(1.0 + 0j, cfg)]
            for i, m in enumerate(cfg):
                if m is None or m[0] not in inputs:
                    continue
                path, pol = m
                if diag:
                    if path not in transmit or path not in reflect:
                        raise UnknownPath(f"no ± routes for path {path}")
                    t, r = transmit[path], reflect[path]
                    s = 1.0 if pol == H else -1.0
                    moves = [((t, H), 0.5), ((t, V), 0.5),
                             ((r, H), s * 0.5), ((r, V), -s * 0.5)]
                else:
                    table = transmit if pol == H else reflect
                    if path not in table:
                        raise UnknownPath(f"no route for path {path}")
                    moves = [((table[path], pol), 1.0)]
                new_terms = []
                for ampl, c in terms:
                    for target, coef in moves:
                        cc = list(c)
                        cc[i] = target
                        new_terms.append((ampl * coef, tuple(cc)))
                terms = new_terms
            for _, c in terms:
                occ = [m for m in c if m is not None]
                if len(set(occ)) != len(occ):
                    raise MultiPhotonCollision("two photons on one mode")
            return terms

        return _config_map(fv, images)

    if isinstance(instr, PhaseShift):
        factor = cmath.exp(1j * instr.phi)

        def images(cfg):
            hit = _selector_hits(instr.selector, fv.photons, cfg)
            return [(factor if hit else 1.0, cfg)]

        return _config_map(fv, images)

    if isinstance(instr, QubusPhase):
        out = fv.copy_shell()
        phases = np.exp(1j * instr.phi * np.arange(fv.cutoff + 1))
        shape = [1] * fv.n_beams
        shape[instr.beam] = fv.cutoff + 1
        phases = phases.reshape(shape)
        out.blocks = {c: b * phases for c, b in fv.blocks.items()}
        return out

    if isinstance(instr, Xpm):
        out = fv.copy_shell()
        phases = np.exp(1j * instr.theta * np.arange(fv.cutoff + 1))
        shape = [1] * fv.n_beams
        shape[instr.beam] = fv.cutoff + 1
        phases = phases.reshape(shape)
        for cfg, block in fv.blocks.items():
            if _selector_hits(instr.selector, fv.photons, cfg):
                out.add(cfg, block * phases)
            else:
                out.add(cfg, block)
        return out

    if isinstance(instr, QubusBS):
        if fv.n_beams < 2:
            raise PreconditionViolation("qubus BS needs two live beams")
        i, j = instr.beam_i, instr.beam_j
        dim = fv.cutoff + 1
        u = _two_mode_bs(fv.cutoff)
        out = fv.copy_shell()
        boundary = 0.0
        totals = np.add.outer(np.arange(dim), np.arange(dim))
        edge = totals > fv.cutoff
        for cfg, block in fv.blocks.items():
            moved = np.moveaxis(block, (i, j), (-2, -1))
            lead = moved.shape[:-2]
            flat = moved.reshape(-1, dim * dim)
            boundary += float(np.sum(np.abs(
                flat.reshape(-1, dim, dim)[:, edge]) ** 2))
            flat = flat @ u.T
            moved = flat.reshape(*lead, dim, dim)
            out.add(cfg, np.moveaxis(moved, (-2, -1), (i, j)))
        out.boundary_mass = fv.boundary_mass + boundary
        if boundary > 1e-8:
            raise CutoffTooSmall(
                f"qubus BS touched truncation boundary with mass {boundary:.3e}")
        return out

    raise PreconditionViolation(f"oracle cannot apply {instr!r}")


def compare(state: HybridState, fv: FockVector) -> float:
    """1 − |⟨encode(state)|fv⟩| plus the norm mismatch between the two."""
    enc = fock_encode(state, fv.cutoff)
    na, nb = enc.norm(), fv.norm()
    if na == 0 or nb == 0:
        return 1.0
    return (1.0 - abs(enc.inner(fv)) / (na * nb)) + abs(na - nb)


def project_beam_number(fv: FockVector, beam: int, n: int,
                        keep: bool = False) -> tuple[float, FockVector]:
    """Project one beam onto |n⟩⟨n|; returns (probability, unnormalized
    post-vector).  The collapsed mode is dropped unless `keep` is set (kept
    as the pure Fock state |n⟩)."""
    if not 0 <= beam < fv.n_beams:
        raise PreconditionViolation(f"beam {beam} not present")
    post = FockVector(fv.photons, fv.n_beams if keep else fv.n_beams - 1,
                      fv.cutoff, {}, fv.boundary_mass)
    prob = 0.0
    for cfg, block in fv.blocks.items():
        sliced = np.take(block, n, axis=beam)
        prob += float(np.sum(np.abs(sliced) ** 2))
        if keep:
            full = np.zeros_like(block)
            index = [slice(None)] * block.ndim
            index[beam] = n
            full[tuple(index)] = sliced
            post.add(cfg, full)
        else:
            post.add(cfg, sliced)
    return prob, post


def beam_distribution(fv: FockVector, beam: int) -> np.ndarray:
    """Measurement distribution of one beam in the Fock basis."""
    probs = np.zeros(fv.cutoff + 1)
    for n in range(fv.cutoff + 1):
        p, _ = project_beam_number(fv, beam, n)
        probs[n] = p
    return probs


def equivalence_report(alpha: float, theta: float, cutoff: int = 40,
                       seed: int = 0) -> dict:
    """Run the fast simulator and this oracle side by side.

    Exercises every element on a seeded random two-photon/two-beam state,
    then the full controlled-path and merging-entangler pipelines up to
    their measurement, and compares the measurement distribution of the
    coupled beam.  Returns the worst distances found.
    """
    from .elements import apply_instruction
    from .detection import enumerate_fock_outcomes
    from .state import state_from_amplitudes

    rng = np.random.default_rng(seed)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)

    def fresh():
        st = state_from_amplitudes(
            [("C", ((0, "H"), (0, "V"))), ("T", ((1, "H"), (1, "V")))],
            vec, paths={0, 1, 2, 3})
        return st.attach_beams((alpha, alpha))

    sel_any = ModeSelector(1, ANY, "T")
    element_suite = [
        ("photon_bs", [PhotonBS(1, 2)]),
        ("pbs_hv", [PbsHV(((0, 0), (1, 1)), ((0, 2), (1, 3)))]),
        ("pbs_diag", [PbsDiag(((1, 1), (0, 0)), ((1, 2), (0, 3)))]),
        ("phase_shift", [PhaseShift(ModeSelector(0, "V", "C"), 0.7)]),
        ("qubus_phase", [QubusPhase(0, -theta)]),
        ("xpm", [Xpm(ModeSelector(0, "V", "C"), 0, theta)]),
        ("qubus_bs", [QubusBS(0, 1)]),
    ]
    report = {}
    worst_elements = 0.0
    for name, seq in element_suite:
        fast = fresh()
        fv = fock_encode(fast, cutoff)
        for ins in seq:
            fast = apply_instruction(fast, ins)
            fv = fock_apply(ins, fv)
        d = compare(fast, fv)
        report[f"element:{name}"] = d
        worst_elements = max(worst_elements, d)

    def run_pipeline(seq):
        fast = fresh()
        fv = fock_encode(fast, cutoff)
        for ins in seq:
            fast = apply_instruction(fast, ins)
            fv = fock_apply(ins, fv)
        return fast, fv

    c_path_seq = [
        PhotonBS(1, 2),
        Xpm(sel_any, 0, theta), Xpm(ModeSelector(0, "V", "C"), 0, theta),
        Xpm(ModeSelector(2, ANY, "T"), 1, theta), Xpm(ModeSelector(0, "H", "C"), 1, theta),
        QubusPhase(0, -theta), QubusPhase(1, -theta), QubusBS(0, 1),
    ]
    fast, fv = run_pipeline(c_path_seq)
    report["pipeline:c_path"] = compare(fast, fv)
    dist_fast = {n: p for n, p, _ in
                 enumerate_fock_outcomes(fast, 0, tail=1e-14)}
    dist_oracle = beam_distribution(fv, 0)
    report["distribution:c_path"] = max(
        abs(p - dist_oracle[n]) for n, p in dist_fast.items())

    # merging entangler: photon T split over paths 1,2 with C as companion,
    # ancilla on path 3 in |+⟩
    def fresh_merge():
        st = state_from_amplitudes(
            [("C", ((0, "H"), (0, "V"))),
             ("T", ((1, "H"), (1, "V"), (2, "H"), (2, "V")))],
            np.array([vec[0], vec[1], 0, 0, 0, 0, vec[2], vec[3]]),
            paths={0, 1, 2, 3})
        st = st.add_photon("A", 3, "+")
        return st.attach_beams((alpha, alpha))

    entangler_seq = [
        Xpm(ModeSelector(1, "V"), 0, theta), Xpm(ModeSelector(2, "V"), 0, theta),
        Xpm(ModeSelector(3, "H", "A"), 0, theta),
        Xpm(ModeSelector(1, "H"), 1, theta), Xpm(ModeSelector(2, "H"), 1, theta),
        Xpm(ModeSelector(3, "V", "A"), 1, theta),
        QubusPhase(0, -theta), QubusPhase(1, -theta), QubusBS(0, 1),
    ]
    fast = fresh_merge()
    fv = fock_encode(fast, cutoff)
    for ins in entangler_seq:
        fast = apply_instruction(fast, ins)
        fv = fock_apply(ins, fv)
    report["pipeline:merging"] = compare(fast, fv)
    dist_fast = {n: p for n, p, _ in
                 enumerate_fock_outcomes(fast, 0, tail=1e-14)}
    dist_oracle = beam_distribution(fv, 0)
    report["distribution:merging"] = max(
        abs(p - dist_oracle[n]) for n, p in dist_fast.items())

    report["worst_element"] = worst_elements
    report["worst_pipeline"] = max(report["pipeline:c_path"],
                                   report["pipeline:merging"])
    report["worst_distribution"] = max(report["distribution:c_path"],
                                       report["distribution:merging"])
    return report
