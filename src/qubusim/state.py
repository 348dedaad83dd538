"""Hybrid discrete/continuous-variable state algebra.

A simulation state is a finite superposition of *branches*.  Each branch
pairs a complex amplitude with

* a photon configuration assigning every tracked photon to one
  ``(path, polarization)`` mode or marking it absent, and
* one coherent amplitude per live qubus beam.

Photon configurations are orthonormal labels.  Coherent amplitudes are kept
symbolically (never Fock-expanded here) and overlap through

    ⟨a|b⟩ = exp(−|a|²/2 − |b|²/2 + conj(a)·b),

so branches that differ only in their beam amplitudes are *not* orthogonal.
This keeps every gate pipeline exact for arbitrary |α| while the branch
count stays small.

States are immutable values; every operation returns a new state.  They are
therefore safe to share between threads, and outcome enumerations or
parameter sweeps over them may run concurrently.

Only this module builds branches, ``Branch(amp, config, qubus)``.  Photons
move by mode tables (`map_modes`, which raises the collision errors, and
`swap_paths`); `occupied` flags branches for `scaled`, `swap_photon_labels`
and `select`; beams are read and written as columns (`beam_column`,
`with_beams`); `beam_coherences` and `inner` walk the same branch pairs.
Elsewhere only serializers and `gates.coalesce`'s comparison read `branches`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    MultiPhotonCollision,
    NonUnitaryMatrix,
    PreconditionViolation,
    ShapeMismatch,
    UnknownBeam,
    UnknownPath,
    UnknownPhoton,
)

H = 0
V = 1
POL_NAMES = ("H", "V")

#: one photon's mode: (path id, polarization index), or None when absent
Mode = tuple[int, int]
Config = tuple[Optional[Mode], ...]

# Internal merge tolerance used by operations when tidying their output.
_OP_TOL = 1e-12


def coherent_overlap(a: complex, b: complex) -> complex:
    """Coherent-state inner product ⟨a|b⟩.

    |result| = exp(−|a−b|²/2), so equal amplitudes give 1 and far-apart
    amplitudes become exponentially orthogonal.
    """
    a = complex(a)
    b = complex(b)
    return cmath.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + a.conjugate() * b)


def parse_pol(pol: Union[int, str]) -> int:
    if pol in (H, V):
        return int(pol)
    if isinstance(pol, str) and pol.upper() in POL_NAMES:
        return POL_NAMES.index(pol.upper())
    raise PreconditionViolation(f"not a polarization label: {pol!r}")


def pol_amplitudes(spec) -> tuple[complex, complex]:
    """(H, V) amplitude pair from a label, a mapping or a pair.

    Accepts "H", "V", "+", "-" (diagonal inputs are normalized to H/V
    amplitudes here; the diagonal basis never appears internally), a
    mapping {"H": z, "V": z} or any sequence of two amplitudes (H, V).
    """
    if isinstance(spec, str):
        s = spec.strip().upper()
        r = 1 / math.sqrt(2)
        table = {"H": (1, 0), "V": (0, 1), "+": (r, r), "-": (r, -r),
                 "PLUS": (r, r), "MINUS": (r, -r)}
        if s in table:
            return tuple(complex(x) for x in table[s])
        raise PreconditionViolation(f"unknown polarization state {spec!r}")
    if isinstance(spec, Mapping):
        spec = (spec.get("H", 0), spec.get("V", 0))
    if len(spec) != 2:
        raise PreconditionViolation(f"not a polarization state: {spec!r}")
    amps = (complex(spec[0]), complex(spec[1]))
    if abs(amps[0]) == 0 and abs(amps[1]) == 0:
        raise PreconditionViolation("polarization state has no amplitude")
    return amps


class Branch(NamedTuple):
    amp: complex
    config: Config
    qubus: tuple[complex, ...]


# _branch((amp, config, qubus)) builds a Branch without the Python-level Branch.__new__
_branch = functools.partial(tuple.__new__, Branch)


def _config_key(config: Config):
    return config if None not in config else tuple((-1, -1) if m is None else m for m in config)


@dataclass(frozen=True)
class HybridState:
    """Normalized superposition of photon/qubus branches.

    Attributes:
        photons: ordered photon ids; branch configs are aligned with it.
        paths: registry of declared spatial path ids.
        n_beams: number of live qubus beams (branch qubus tuples match it).
        branches: the superposition terms.
    """

    photons: tuple[str, ...]
    paths: frozenset[int]
    n_beams: int
    branches: tuple[Branch, ...]

    def _with(self, branches: Iterable[Branch]) -> "HybridState":
        """This registry over other branches (faster than `replace`)."""
        return HybridState(self.photons, self.paths, self.n_beams, tuple(branches))

    # -- registry helpers -------------------------------------------------

    def photon_index(self, photon: str) -> int:
        try:
            return self.photons.index(photon)
        except ValueError:
            raise UnknownPhoton(f"photon {photon!r} is not registered") from None

    def require_path(self, path: int) -> None:
        if path not in self.paths:
            raise UnknownPath(f"path {path} is not registered")

    def require_beam(self, beam: int) -> None:
        if not 0 <= beam < self.n_beams:
            raise UnknownBeam(f"beam {beam} is not registered")

    def add_paths(self, paths: Iterable[int]) -> "HybridState":
        return replace(self, paths=self.paths | frozenset(paths))

    def fresh_paths(self, count: int) -> tuple["HybridState", tuple[int, ...]]:
        """Register `count` new path ids above everything used so far."""
        start = max(self.paths, default=-1) + 1
        new = tuple(range(start, start + count))
        return self.add_paths(new), new

    # -- norms and overlaps ------------------------------------------------

    def inner(self, other: "HybridState") -> complex:
        """⟨self|other⟩.  Branches with different photon configurations are
        orthogonal; coherent beam factors overlap via `coherent_overlap`."""
        if self.photons != other.photons or self.n_beams != other.n_beams:
            raise ShapeMismatch("states are defined over different registries")
        total = 0j
        for bra, ket in self._pairs(other):
            ov = 1 + 0j
            for qa, qb in zip(bra.qubus, ket.qubus):
                ov *= coherent_overlap(qa, qb)
            total += bra.amp.conjugate() * ket.amp * ov
        return total

    def _pairs(self, other: "HybridState") -> list[tuple[Branch, Branch]]:
        """The (self, other) branch pairs of one config, in self's order."""
        by_config: dict[Config, list[Branch]] = {}
        for br in other.branches:
            by_config.setdefault(br.config, []).append(br)
        return [(bra, ket) for bra in self.branches
                for ket in by_config.get(bra.config, ())]

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def normalized(self) -> "HybridState":
        n = self.norm()
        if n == 0:
            raise PreconditionViolation("cannot normalize a zero state")
        return self.scaled(1 / n)

    def scaled(self, factor: complex, where: Optional[Sequence[bool]] = None) -> "HybridState":
        """Every branch amplitude times `factor`, or only those of the
        branches flagged in `where` (see `occupied`)."""
        return self._with(
            _branch((br.amp * factor, br.config, br.qubus)) if w else br
            for br, w in zip(self.branches, repeat(True) if where is None else where))

    def amplitudes(self) -> tuple[complex, ...]:
        return tuple(br.amp for br in self.branches)

    # -- canonical form ----------------------------------------------------

    def canonicalize(self, tol: float = 1e-9) -> "HybridState":
        """Merge branches with equal config and beam amplitudes within `tol`
        and drop branches with |amp| below `tol`.  Idempotent; preserves the
        state (and hence all inner products) within the tolerance."""
        if tol <= 0:
            raise PreconditionViolation("tol must be positive")
        groups: list[list] = []
        index: dict[Config, list[int]] = {}
        for br in self.branches:
            merged = False
            for gi in index.get(br.config, ()):
                ref = groups[gi]
                if all(abs(q - r) <= tol for q, r in zip(br.qubus, ref[2])):
                    ref[0] += br.amp
                    merged = True
                    break
            if not merged:
                index.setdefault(br.config, []).append(len(groups))
                groups.append([br.amp, br.config, br.qubus])
        kept = tuple(_branch((a, c, q)) for a, c, q in groups if abs(a) > tol)
        kept = tuple(sorted(kept, key=lambda b: (_config_key(b.config),
                                                 tuple((q.real, q.imag) for q in b.qubus))))
        return self._with(kept)

    # -- photon-side operations ---------------------------------------------

    def map_modes(self, images: Mapping[Mode, Optional[Sequence[tuple[Mode, complex]]]],
                  photon: Optional[str] = None, exclusive: bool = False) -> "HybridState":
        """Send each photon (only `photon`, if given) on a mode of `images`
        to the sum of that mode's nonzero (mode, coefficient) images, and
        canonicalize.  A photon on a mode mapped to None raises UnknownPath;
        two photons on one mode raise MultiPhotonCollision, as, with
        `exclusive`, do two photons on modes of the table."""
        idxs = range(len(self.photons)) if photon is None else (self.photon_index(photon),)
        out = []
        for br in self.branches:
            terms = [(None, br.config)]
            moved = []
            for i in idxs:
                mode = br.config[i]
                if mode not in images:
                    continue
                if images[mode] is None:
                    raise UnknownPath(f"no route for a photon on mode {mode}")
                if exclusive and moved:
                    raise MultiPhotonCollision(
                        f"two photons meet on the modes {sorted(images)}")
                moved.append(i)
                terms = [(c if a is None else a * c, t[:i] + (m,) + t[i + 1:])
                         for a, t in terms for m, c in images[mode] if c]
            if not moved:
                out.append(br)
                continue
            for a, t in terms:
                for i in moved:
                    if not exclusive and t.count(t[i]) > 1:
                        raise MultiPhotonCollision("two photons routed onto one mode")
                out.append(_branch((br.amp * a, t, br.qubus)))
        return self._with(out).canonicalize(_OP_TOL)

    def apply_photon_unitary(self, photon: str, mode_a, mode_b, matrix) -> "HybridState":
        """Apply a 2×2 unitary on two (path, polarization) modes of `photon`.

        Column convention: |mode_a⟩ → m00|mode_a⟩ + m10|mode_b⟩.  Branches in
        which the photon occupies neither mode are untouched.
        """
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise NonUnitaryMatrix("expected a 2x2 matrix")
        dev = np.abs(m.conj().T @ m - np.eye(2)).max()
        if dev > 1e-10:
            raise NonUnitaryMatrix(f"matrix deviates from unitarity by {dev:.3e}")
        ma = (mode_a[0], parse_pol(mode_a[1]))
        mb = (mode_b[0], parse_pol(mode_b[1]))
        self.require_path(ma[0])
        self.require_path(mb[0])
        # mode_a's column last, so that it wins when the two modes coincide
        images = {mb: ((ma, m[0, 1]), (mb, m[1, 1])),
                  ma: ((ma, m[0, 0]), (mb, m[1, 0]))}
        return self.map_modes(images, photon)

    def swap_paths(self, p: int, q: int) -> "HybridState":
        """Relabel all occupancies p↔q in every branch (involutive)."""
        self.require_path(p)
        self.require_path(q)
        relabel = {(a, pol): (b, pol) for a, b in ((q, p), (p, q)) for pol in (H, V)}.get
        return self._with(_branch((br.amp, tuple(map(relabel, br.config, br.config)), br.qubus))
                          for br in self.branches)

    def swap_photon_labels(self, a: str, b: str,
                           where: Optional[Sequence[bool]] = None) -> "HybridState":
        """Exchange the mode assignments of photons `a` and `b` in every
        branch, or in the branches flagged in `where`.  For
        indistinguishable photons this is pure bookkeeping."""
        ia, ib = self.photon_index(a), self.photon_index(b)
        out = []
        for br, w in zip(self.branches, repeat(True) if where is None else where):
            if w:
                cfg = list(br.config)
                cfg[ia], cfg[ib] = cfg[ib], cfg[ia]
                br = _branch((br.amp, tuple(cfg), br.qubus))
            out.append(br)
        return self._with(out)

    def add_photon(self, photon: str, path: int, pol_state) -> "HybridState":
        """Tensor a fresh photon in a pure polarization state onto the state."""
        if photon in self.photons:
            raise PreconditionViolation(f"photon {photon!r} already registered")
        if self.occupants(path):
            raise PreconditionViolation(f"path {path} is already occupied")
        amps = pol_amplitudes(pol_state)
        out = []
        for br in self.branches:
            for pol, amp in ((H, amps[0]), (V, amps[1])):
                if amp == 0:
                    continue
                out.append(_branch((br.amp * amp, br.config + ((path, pol),), br.qubus)))
        return HybridState(self.photons + (photon,), self.paths, self.n_beams, tuple(out))

    # -- beam bookkeeping ----------------------------------------------------

    def attach_beams(self, amplitudes: Sequence[complex]) -> "HybridState":
        """Append fresh coherent beams with the given amplitudes to every branch."""
        amps = tuple(complex(a) for a in amplitudes)
        out = tuple(_branch((br.amp, br.config, br.qubus + amps)) for br in self.branches)
        return HybridState(self.photons, self.paths, self.n_beams + len(amps), out)

    def detach_beam(self, beam: int, tol: float = 1e-9) -> tuple["HybridState", complex]:
        """Drop a beam whose amplitude is uniform across branches.

        The removed product factor is returned so it can be recycled.  Raises
        if branches disagree by more than `tol` (the beam would then be
        entangled with the rest of the state).
        """
        column = self.beam_column(beam)
        ref = column[0] if column else 0j
        if any(abs(z - ref) > tol for z in column):
            raise PreconditionViolation(
                "beam is entangled with the state and cannot be detached")
        out = tuple(
            _branch((br.amp, br.config, br.qubus[:beam] + br.qubus[beam + 1:]))
            for br in self.branches)
        return HybridState(self.photons, self.paths, self.n_beams - 1, out), ref

    def remove_beam_weighted(self, beam: int,
                             weight: Callable[[complex], complex]) -> "HybridState":
        """Drop a beam, scaling each branch amplitude by weight(z), z being
        the branch's amplitude on that beam; a branch of weight 0 is dropped.
        Used by measurement collapses."""
        self.require_beam(beam)
        out = []
        for br in self.branches:
            w = weight(br.qubus[beam])
            if w == 0:
                continue
            out.append(_branch((br.amp * w, br.config,
                              br.qubus[:beam] + br.qubus[beam + 1:])))
        return HybridState(self.photons, self.paths, self.n_beams - 1, tuple(out))

    def beam_column(self, beam: int) -> tuple[complex, ...]:
        """The amplitude of `beam` in each branch."""
        self.require_beam(beam)
        return tuple(br.qubus[beam] for br in self.branches)

    def with_beams(self, columns: Mapping[int, Sequence[complex]]) -> "HybridState":
        """The state with each beam b of `columns` set to the amplitudes
        columns[b], one per branch."""
        for beam in columns:
            self.require_beam(beam)
        if not (self.branches and columns):
            return self
        amps, configs, qubus = zip(*self.branches)
        beams = list(zip(*qubus))
        for beam, column in columns.items():
            beams[beam] = column
        return self._with(map(_branch, zip(amps, configs, zip(*beams))))

    def beam_coherences(self, beam: int) -> tuple[list[complex], np.ndarray]:
        """One beam's reduced state Σ_ab M[a, b]·|a⟩⟨b|: its distinct
        amplitudes (first seen first) and M, where M[a, b] sums
        conj(amp_j)·amp_i·⟨other beams of j|of i⟩ over the same-config
        branch pairs (i, j) at beam amplitudes (a, b)."""
        self.require_beam(beam)
        index: dict[complex, int] = {}
        for br in self.branches:
            index.setdefault(br.qubus[beam], len(index))
        overlaps = np.zeros((len(index), len(index)), dtype=complex)
        for bi, bj in self._pairs(self):
            ov = bj.amp.conjugate() * bi.amp
            for c, (qa, qb) in enumerate(zip(bj.qubus, bi.qubus)):
                if c != beam:
                    ov *= coherent_overlap(qa, qb)
            overlaps[index[bi.qubus[beam]], index[bj.qubus[beam]]] += ov
        return list(index), overlaps

    # -- queries ---------------------------------------------------------------

    def occupied(self, path: int, pol: Optional[int] = None,
                 photon: Optional[str] = None) -> tuple[bool, ...]:
        """Per branch, whether a photon (`photon` only, when given) occupies
        `path` with polarization index `pol` (either, when None).  A branch
        where more than one photon does raises MultiPhotonCollision."""
        self.require_path(path)
        modes = ((path, H), (path, V)) if pol is None else ((path, pol),)
        if photon is not None:
            i = self.photon_index(photon)
            return tuple(br.config[i] in modes for br in self.branches)
        hits = tuple(sum(map(br.config.count, modes)) for br in self.branches)
        if any(h > 1 for h in hits):
            raise MultiPhotonCollision(f"{max(hits)} photons on path {path} in one branch")
        return tuple(h == 1 for h in hits)

    def select(self, where: Sequence[bool]) -> "HybridState":
        """The branches flagged in `where` (see `occupied`), unnormalized."""
        return self._with(br for br, w in zip(self.branches, where) if w)

    def photon_modes(self, photon: str) -> set[Optional[Mode]]:
        idx = self.photon_index(photon)
        return {br.config[idx] for br in self.branches}

    def paths_of(self, photon: str) -> set[int]:
        return {m[0] for m in self.photon_modes(photon) if m is not None}

    def occupants(self, path: int) -> set[str]:
        self.require_path(path)
        modes = ((path, H), (path, V))
        return {pid for br in self.branches
                for pid, mode in zip(self.photons, br.config) if mode in modes}


def product_state(photons: Sequence[tuple[str, int, object]],
                  beams: Sequence[complex] = (),
                  extra_paths: Iterable[int] = ()) -> HybridState:
    """Build a product state of photons in pure polarization states.

    `photons` is a sequence of (id, path, polarization spec) triples; specs
    are anything `pol_amplitudes` accepts.
    """
    ids = tuple(p[0] for p in photons)
    if len(set(ids)) != len(ids):
        raise PreconditionViolation("duplicate photon ids")
    paths = [p[1] for p in photons]
    if len(set(paths)) != len(paths):
        raise PreconditionViolation("two photons share an initial path")
    registry = frozenset(paths) | frozenset(extra_paths)
    state = HybridState(photons=(), paths=registry, n_beams=0,
                        branches=(_branch((1 + 0j, (), ())),))
    for pid, path, spec in photons:
        state = state.add_photon(pid, path, spec)
    if beams:
        state = state.attach_beams(tuple(beams))
    return state


def state_from_amplitudes(photon_modes: Sequence[tuple[str, Sequence[Mode]]],
                          amplitudes,
                          paths: Iterable[int] = (),
                          spectators: Sequence[tuple[str, int, object]] = ()) -> HybridState:
    """Build a general multi-photon state from a dense amplitude vector.

    `photon_modes` lists, per photon, the modes its basis ranges over (most
    significant first); `amplitudes` has one entry per combination.
    `spectators` are photons tensored on in pure polarization states.
    """
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    dims = [len(modes) for _, modes in photon_modes]
    if vec.size != int(np.prod(dims)):
        raise ShapeMismatch("amplitude vector does not match the mode basis")
    ids = tuple(pid for pid, _ in photon_modes)
    registry = {m[0] for _, modes in photon_modes for m in modes}
    registry |= set(paths) | {p for _, p, _ in spectators}
    branches = []
    for flat, amp in enumerate(vec):
        if amp == 0:
            continue
        cfg = []
        rem = flat
        for size in reversed(dims):
            rem, k = divmod(rem, size)
            cfg.append(k)
        cfg.reverse()
        config = tuple((photon_modes[i][1][k][0], parse_pol(photon_modes[i][1][k][1]))
                       for i, k in enumerate(cfg))
        branches.append(_branch((complex(amp), config, ())))
    state = HybridState(photons=ids, paths=frozenset(registry), n_beams=0,
                        branches=tuple(branches))
    for pid, path, spec in spectators:
        state = state.add_photon(pid, path, spec)
    return state


def fidelity(a: HybridState, b: HybridState) -> float:
    """|⟨a|b⟩|² between normalized copies of the states (global-phase free)."""
    na, nb = a.norm(), b.norm()
    if na == 0 or nb == 0:
        return 0.0
    return abs(a.inner(b)) ** 2 / (na * nb) ** 2
