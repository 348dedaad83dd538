"""Linear-optical elements and weak-Kerr couplings on hybrid states.

Conventions fixed here and used everywhere else:

* photon 50:50 BS on paths (a, b): |a⟩ → (|a⟩+|b⟩)/√2, |b⟩ → (|a⟩−|b⟩)/√2,
  independently per polarization (the real Hadamard-like convention, its own
  inverse);
* qubus 50:50 BS on beams (i, j): (αi, αj) → ((αi−αj)/√2, (αi+αj)/√2),
  exact on coherent amplitudes;
* cross-phase modulation is an ideal conditional phase: a branch whose
  selected photon mode is occupied has its beam amplitude rotated by e^{iθ}
  (no self-phase modulation, no decoherence).

All elements are pure functions preserving the norm.  The photon-side
elements are image tables over (path, polarization) modes, which
`HybridState.map_modes` applies; the beam-side ones rewrite beam columns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .errors import PreconditionViolation
from .state import HybridState, H, V, parse_pol

_SQ2 = math.sqrt(2)

ANY = "ANY"


@dataclass(frozen=True)
class ModeSelector:
    """Selects at most one occupied photon mode per branch.

    `photon` restricts the match to one photon id (None: any photon);
    `pol` is "H", "V" (or the index 0, 1) or ANY.  It is parsed once, when
    the selector is built, into `pol_index` (None for ANY), which
    `HybridState.occupied` takes.
    """

    path: int
    pol: Union[int, str] = ANY
    photon: Optional[str] = None
    pol_index: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pol_index",
                           None if self.pol == ANY else parse_pol(self.pol))


def photon_bs(state: HybridState, path_a: int, path_b: int) -> HybridState:
    """50:50 beam splitter between two spatial paths."""
    state.require_path(path_a)
    state.require_path(path_b)
    h = 1 / _SQ2
    images = {}
    for pol in (H, V):
        a, b = (path_a, pol), (path_b, pol)
        images[b] = ((a, h), (b, -h))
        images[a] = ((a, h), (b, h))  # set last: one path twice keeps sign +1
    return state.map_modes(images, exclusive=True)


def _route(state: HybridState, transmit: Mapping[int, int], reflect: Mapping[int, int],
           images) -> HybridState:
    """Send each photon on an input path to `images(path, pol)`, its
    (mode, coefficient) terms, or None where it has no route."""
    inputs = set(transmit) | set(reflect)
    for p in inputs | set(transmit.values()) | set(reflect.values()):
        state.require_path(p)
    return state.map_modes({(p, pol): images(p, pol) for p in inputs for pol in (H, V)})


def pbs_hv(state: HybridState, transmit: Mapping[int, int],
           reflect: Mapping[int, int]) -> HybridState:
    """Polarizing beam splitter: H follows `transmit`, V follows `reflect`.

    Both maps are keyed by input path; an occupied input without a route for
    its polarization is an error.
    """
    def images(path, pol):
        table = transmit if pol == H else reflect
        return (((table[path], pol), 1 + 0j),) if path in table else None

    return _route(state, transmit, reflect, images)


def pbs_diag(state: HybridState, transmit: Mapping[int, int],
             reflect: Mapping[int, int]) -> HybridState:
    """Diagonal-basis PBS: |+⟩ components transmit, |−⟩ components reflect.

    Internally rotates H/V into the ± basis, routes, and rotates back, so the
    state stays expressed over H/V modes.
    """
    def images(path, pol):
        if path not in transmit or path not in reflect:
            return None
        t, r = transmit[path], reflect[path]
        s = 1.0 if pol == H else -1.0
        # |H/V⟩ = (|+⟩ ± |−⟩)/√2; route and expand back to H/V.
        return (((t, H), 0.5 + 0j), ((t, V), 0.5 + 0j),
                ((r, H), complex(s * 0.5)), ((r, V), complex(-s * 0.5)))

    return _route(state, transmit, reflect, images)


def phase_shift(state: HybridState, selector: ModeSelector, phi: float) -> HybridState:
    """Multiply branches whose selected mode is occupied by e^{iφ}."""
    return state.scaled(cmath.exp(1j * phi), state.occupied(
        selector.path, selector.pol_index, selector.photon))


def qubus_phase(state: HybridState, beam: int, phi: float) -> HybridState:
    """Unconditional phase-space rotation α → α·e^{iφ} of one beam."""
    factor = cmath.exp(1j * phi)
    return state.with_beams({beam: [z * factor for z in state.beam_column(beam)]})


def qubus_bs(state: HybridState, beam_i: int, beam_j: int) -> HybridState:
    """50:50 BS on two qubus beams: (αi, αj) → ((αi−αj)/√2, (αi+αj)/√2)."""
    pairs = list(zip(state.beam_column(beam_i), state.beam_column(beam_j)))
    if beam_i == beam_j:
        raise PreconditionViolation("qubus BS needs two distinct beams")
    return state.with_beams({beam_i: [(ai - aj) / _SQ2 for ai, aj in pairs],
                             beam_j: [(ai + aj) / _SQ2 for ai, aj in pairs]})


def xpm(state: HybridState, selector: ModeSelector, beam: int, theta: float) -> HybridState:
    """Cross-phase modulation: rotate one beam by e^{iθ} in branches whose
    selected photon mode is occupied."""
    column = state.beam_column(beam)
    hits = state.occupied(selector.path, selector.pol_index, selector.photon)
    factor = cmath.exp(1j * theta)
    return state.with_beams({beam: [z * factor if hit else z for z, hit in zip(column, hits)]})


# -- declarative element instructions (shared by the circuit front end and
#    the truncated-Fock oracle, which implements its own matrix action) -----

@dataclass(frozen=True)
class PhotonBS:
    path_a: int
    path_b: int


@dataclass(frozen=True)
class PbsHV:
    transmit: tuple[tuple[int, int], ...]
    reflect: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PbsDiag:
    transmit: tuple[tuple[int, int], ...]
    reflect: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PhaseShift:
    selector: ModeSelector
    phi: float


@dataclass(frozen=True)
class QubusPhase:
    beam: int
    phi: float


@dataclass(frozen=True)
class QubusBS:
    beam_i: int
    beam_j: int


@dataclass(frozen=True)
class Xpm:
    selector: ModeSelector
    beam: int
    theta: float


Instruction = Union[PhotonBS, PbsHV, PbsDiag, PhaseShift, QubusPhase, QubusBS, Xpm]


def apply_instruction(state: HybridState, instr: Instruction) -> HybridState:
    if isinstance(instr, PhotonBS):
        return photon_bs(state, instr.path_a, instr.path_b)
    if isinstance(instr, PbsHV):
        return pbs_hv(state, dict(instr.transmit), dict(instr.reflect))
    if isinstance(instr, PbsDiag):
        return pbs_diag(state, dict(instr.transmit), dict(instr.reflect))
    if isinstance(instr, PhaseShift):
        return phase_shift(state, instr.selector, instr.phi)
    if isinstance(instr, QubusPhase):
        return qubus_phase(state, instr.beam, instr.phi)
    if isinstance(instr, QubusBS):
        return qubus_bs(state, instr.beam_i, instr.beam_j)
    if isinstance(instr, Xpm):
        return xpm(state, instr.selector, instr.beam, instr.theta)
    raise PreconditionViolation(f"unsupported instruction {instr!r}")
