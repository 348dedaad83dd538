"""Elementary qubus gates (controlled-path and merging) with exact outcome
enumeration and feed-forward, plus the composite two-qubit and multi-qubit
constructions built from them.

Every gate returns a `GateResult`: one `Record` per measurement outcome with
its probability, its corrected post-state, the corrections that were applied
and the recycled resources (the surviving qubus amplitude and, after a
merging, the location of the measured ancilla photon, which the next merging
can reuse).  Probabilities across the records of a gate sum to one.

Feed-forward tables (derived from the ±β phase structure of the interfering
qubus components; validated end to end by the gate fidelity tests):

* controlled path, outcome n ≠ 0: swap the two target paths, then a π phase
  on the second path iff n is odd (the two components carry (∓i)ⁿ).
* merging entangler, outcome n ≠ 0: bit flip on the ancilla, then a π phase
  on its V mode iff n is odd; a |−⟩ ancilla input contributes one extra sign
  flip (XOR with the parity rule).
* merging localization: a sign fix on the partner system when the photon is
  found on a path fed by the interferometer's minus port, and on the new
  carrier when the detected polarization is |−⟩.

Measurements default to exact Fock enumeration of the measured beam;
`QndMode` opts into a realistic QND readout (with its explicit ambiguous
failure records), `SampleMode` into one drawn outcome per readout.  Each
builds one `MeasureMode` record.  Both elementary gates read their bus
through one qubus module (`_bus_readout`), which runs the gate's optical
program, the instruction tuple that the oracle's `equivalence_report` runs.

The public `c_path` and `merging` return one record per photon number n
(per detector peak in `QndMode`).  Inside the composite gates every measured
bus carries only the amplitudes 0 and ±iβ, and every n ≥ 1 of one parity
leaves the same corrected state up to a global phase.  So the composites
read each bus by outcome class instead (`classes` is set unless the mode
samples): one record for n = 0 (in `QndMode` the vacuum record), one for
the odd and one for the even n ≥ 2 (detector peaks), plus the ambiguous
record in `QndMode`.  Each class record is the record `coalesce` would make
of its members.  A bus with any other amplitudes is read per n, or per
peak, as before.

Every merging parks the measured photon on one of four localization paths
as the recycled ancilla, in |+⟩ or |−⟩, and the next merging first swaps it
onto its seat.  In exact and `QndMode` readout the composites make that
swap before each later stage (before the controlled path, in
`controlled_pair`), turn a |−⟩ ancilla into |+⟩ by a recorded π phase on
its V mode, and coalesce, so the records of one merging run the next stage
once (`_fold_onto_seat`).  `SampleMode` record lists are not folded.

Inside a composite, `merging` also coalesces the entangler's class records
once their feed-forward is applied (`_merge_classes`), before the photon is
localized: they leave the same state up to a global phase.  So each merging
stage localizes its photon once, and exact Toffoli, Fredkin, 4-control
Toffoli and U(4) synthesis run 2, 2, 4 and 3 mergings, one per physical
merging gate.

In `QndMode` a readout the gate cannot correct (an ambiguous entangler or
controlled-path readout, a no-click or ambiguous localization) is a
heralded failure: `chain` and `map_records` pass such a record on unchanged,
and no later stage of the gate runs on it.

A composite logs its resources from its description, once per stage and
before the stage runs on its records: one controlled-path or merging gate
per stage, and one fresh ancilla photon for the first merging that has no
parked one to reuse.

`SampleMode` draws n from the bus's photon-number distribution, computed as
one array, and collapses the bus only at the drawn n, so a sampled shot
builds one post-state per measured bus for any bus.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import detection
from .detection import (
    DetectorParams,
    draw_index,
    povm_bins,
    read_beam,
    response_matrix,
)
from .elements import (ANY, Instruction, ModeSelector, PhotonBS, QubusBS, QubusPhase, Xpm,
                       apply_instruction, pbs_diag, phase_shift, photon_bs)
from .errors import PreconditionViolation
from .kak import (
    HADAMARD,
    MAGIC,
    PAULI_I,
    PAULI_X,
    check_unitary,
    controlled_diag_pair,
    kak_decompose,
)
from .state import HybridState


# -- measurement modes --------------------------------------------------------

@dataclass(frozen=True)
class MeasureMode:
    """How a gate reads its measured beams.

    By photon number, or through the QND detector `det` (with its peak count
    `k_max`); Poisson tail `tail`.  With `rng`, each readout draws one
    outcome.  With `classes`, a bus of amplitudes 0 and ±z is read by outcome
    class, as the composite gates read it (`_checked_mode`).
    """
    det: Optional[DetectorParams] = None
    k_max: Optional[int] = None
    tail: float = 1e-12
    rng: Optional[np.random.Generator] = None
    classes: bool = False


def ExactMode(tail: float = 1e-12) -> MeasureMode:
    """Exact Fock enumeration of measured beams (the default)."""
    return MeasureMode(tail=tail)


def QndMode(det: DetectorParams, k_max: Optional[int] = None,
            tail: float = 1e-12) -> MeasureMode:
    """Realistic QND readout; introduces explicit ambiguous records."""
    if det is None:
        raise PreconditionViolation("QND readout needs a detector")
    return MeasureMode(det=det, k_max=k_max, tail=tail)


def SampleMode(rng: np.random.Generator, tail: float = 1e-12) -> MeasureMode:
    """Draw a single outcome per measurement from the exact distribution."""
    if rng is None:
        raise PreconditionViolation("sampling needs a random generator")
    return MeasureMode(tail=tail, rng=rng)


def _checked_mode(mode: Optional[MeasureMode],
                  composite: bool = False) -> MeasureMode:
    """`mode`, exact readout for None.  A `composite` gate reads each bus by
    outcome class unless it samples."""
    if mode is None:
        mode = MeasureMode()
    if not isinstance(mode, MeasureMode):
        raise PreconditionViolation(f"unknown measurement mode {mode!r}")
    return replace(mode, classes=mode.rng is None) if composite else mode


def _measure_beam(state: HybridState, beam: int, mode: MeasureMode):
    """(inferred n, label, probability, post-state, multiplicity) for each
    outcome, by outcome class with `mode.classes`, or the one drawn outcome
    with `mode.rng`."""
    return read_beam(state, beam, mode.det, k_max=mode.k_max, tail=mode.tail,
                     vacuum_pointer=True, classes=mode.classes, rng=mode.rng)


# -- resource accounting ------------------------------------------------------

@dataclass(frozen=True)
class ResourceReport:
    c_path_count: int
    merging_count: int
    ancilla_photons_concurrent: int
    xpm_coupling_count: int
    qubus_uses: int
    cumulative_qubus_attenuation: float


@dataclass
class ResourceTrace:
    """Mutable accumulator threaded through gate invocations."""

    c_path_count: int = 0
    merging_count: int = 0
    xpm_coupling_count: int = 0
    qubus_uses: int = 0
    attenuation: float = 1.0
    ancilla_live: int = 0
    ancilla_peak: int = 0

    def log_elementary(self, kind: str, theta: float, couplings: int) -> None:
        if kind == "c_path":
            self.c_path_count += 1
        elif kind == "merging":
            self.merging_count += 1
        else:
            raise PreconditionViolation(f"unknown elementary gate {kind!r}")
        self.xpm_coupling_count += couplings
        self.qubus_uses += 1
        self.attenuation *= math.cos(theta)

    def log_ancilla_new(self) -> None:
        self.ancilla_live += 1
        self.ancilla_peak = max(self.ancilla_peak, self.ancilla_live)

    def report(self) -> ResourceReport:
        return ResourceReport(
            c_path_count=self.c_path_count,
            merging_count=self.merging_count,
            ancilla_photons_concurrent=self.ancilla_peak,
            xpm_coupling_count=self.xpm_coupling_count,
            qubus_uses=self.qubus_uses,
            cumulative_qubus_attenuation=self.attenuation,
        )


def resource_report(trace: ResourceTrace) -> ResourceReport:
    """Snapshot of a gate invocation trace."""
    return trace.report()


# -- outcome records ----------------------------------------------------------

@dataclass(frozen=True)
class Record:
    """One enumerated measurement record of a gate (or gate chain)."""

    labels: tuple
    probability: float
    state: HybridState
    corrections: tuple[str, ...] = ()
    recycled_qubus: Optional[complex] = None
    ancilla: Optional[tuple[str, int, int]] = None  # (photon, path, ±1)
    multiplicity: int = 1


@dataclass(frozen=True)
class GateResult:
    outcomes: tuple[Record, ...]
    resources: ResourceReport

    @property
    def total_probability(self) -> float:
        return sum(r.probability for r in self.outcomes)


def initial_records(state: HybridState) -> list[Record]:
    return [Record(labels=(), probability=1.0, state=state)]


_NO_CORRECTION = "none (ambiguous)"
_AMBIGUOUS_LABEL = ("qnd", detection.AMBIGUOUS)


def _heralded_failure(rec: Record) -> bool:
    """True for a record whose QND readout could not be corrected: a merging
    marks it with the correction `none (ambiguous)`, a controlled path with
    the label `("qnd", "ambiguous")`."""
    return _NO_CORRECTION in rec.corrections or _AMBIGUOUS_LABEL in rec.labels


def chain(records: Sequence[Record],
          stage: Callable[[Record], Union[GateResult, Sequence[Record]]],
          ) -> list[Record]:
    """Feed every record through a gate stage and flatten the outcome tree.

    A heralded failure ends its chain: it is passed on unchanged, in its
    place, and later stages do not run on it."""
    out: list[Record] = []
    for rec in records:
        if _heralded_failure(rec):
            out.append(rec)
            continue
        sub = stage(rec)
        sub_records = sub.outcomes if isinstance(sub, GateResult) else sub
        for s in sub_records:
            out.append(Record(
                labels=rec.labels + s.labels,
                probability=rec.probability * s.probability,
                state=s.state,
                corrections=rec.corrections + s.corrections,
                recycled_qubus=(s.recycled_qubus if s.recycled_qubus is not None
                                else rec.recycled_qubus),
                # a merging that failed leaves no parked ancilla behind
                ancilla=(s.ancilla if s.ancilla is not None
                         or _NO_CORRECTION in s.corrections else rec.ancilla),
                multiplicity=rec.multiplicity * s.multiplicity,
            ))
    return out


def map_records(records: Sequence[Record],
                fn: Callable[[HybridState], HybridState]) -> list[Record]:
    """Apply `fn` to the state of every record but the heralded failures."""
    return [rec if _heralded_failure(rec) else replace(rec, state=fn(rec.state))
            for rec in records]


def _phase_canonical(state: HybridState) -> HybridState:
    """The canonical form of `state` rotated so that its reference branch
    has a real positive amplitude.  The reference is the first branch, in
    canonical order, within a relative 1e-9 of the largest |amp|, so that a
    tie between branches is not settled by rounding."""
    st = state.canonicalize(1e-12)
    amps = st.amplitudes()
    if not amps:
        return st
    top = max(map(abs, amps))
    ref = next(a for a in amps if abs(a) >= top * (1 - 1e-9))
    phase = ref / abs(ref)
    return st.scaled(phase.conjugate())


def _states_match(a: HybridState, b: HybridState, tol: float) -> bool:
    if len(a.branches) != len(b.branches) or a.photons != b.photons:
        return False
    for ba, bb in zip(a.branches, b.branches):
        if ba.config != bb.config or abs(ba.amp - bb.amp) > tol:
            return False
        if any(abs(x - y) > tol for x, y in zip(ba.qubus, bb.qubus)):
            return False
    return True


def coalesce(records: Sequence[Record], tol: float = 1e-9) -> list[Record]:
    """Merge records whose post-states agree up to a global phase.

    A record's global phase is classical bookkeeping (the measurement
    outcome already happened), so merging keeps the enumeration tree small
    through gate chains without touching the physics.
    """
    out: list[Record] = []
    canon: list[HybridState] = []
    for rec in records:
        c = _phase_canonical(rec.state)
        for i, ref in enumerate(canon):
            if (out[i].ancilla == rec.ancilla and _states_match(ref, c, tol)):
                out[i] = replace(
                    out[i],
                    probability=out[i].probability + rec.probability,
                    multiplicity=out[i].multiplicity + rec.multiplicity)
                break
        else:
            canon.append(c)
            out.append(replace(rec, state=c))
    return out


# -- controlled-path gate -----------------------------------------------------

def _qubus_module(beam1_modes: Sequence[ModeSelector],
                  beam2_modes: Sequence[ModeSelector], theta: float,
                  beam: int) -> tuple[Instruction, ...]:
    """Couple beam `beam` to `beam1_modes` and beam `beam + 1` to
    `beam2_modes` by θ, displace both by −θ and mix them on a qubus BS."""
    b2 = beam + 1
    return (*(Xpm(sel, beam, theta) for sel in beam1_modes),
            *(Xpm(sel, b2, theta) for sel in beam2_modes),
            QubusPhase(beam, -theta), QubusPhase(b2, -theta), QubusBS(beam, b2))


def _c_path_program(target: str, path_h: int, path_v: int,
                    v_modes: Sequence[ModeSelector], h_modes: Sequence[ModeSelector],
                    theta: float, beam: int = 0) -> tuple[Instruction, ...]:
    """A controlled path's optical program: the target's beam splitter, then
    the target on `path_h` and the `v_modes` couple to the first beam, the
    target on `path_v` and the `h_modes` to the second."""
    return (PhotonBS(path_h, path_v),
            *_qubus_module([ModeSelector(path_h, ANY, target), *v_modes],
                           [ModeSelector(path_v, ANY, target), *h_modes], theta, beam))


def _control_modes(control: str, path: int) -> tuple[list, list]:
    """The (V, H) modes of the public `c_path`'s control photon on `path`."""
    return [ModeSelector(path, "V", control)], [ModeSelector(path, "H", control)]


def _entangler_program(p: int, q: int, dest_path: int, ancilla: str,
                       theta: float, beam: int = 0) -> tuple[Instruction, ...]:
    """A merging entangler's optical program: V on the source paths and the
    ancilla's H couple to the first beam, H and the ancilla's V to the second."""
    return _qubus_module(
        [ModeSelector(p, "V"), ModeSelector(q, "V"), ModeSelector(dest_path, "H", ancilla)],
        [ModeSelector(p, "H"), ModeSelector(q, "H"), ModeSelector(dest_path, "V", ancilla)],
        theta, beam)


def _bus_readout(state: HybridState, program: Sequence[Instruction], alpha: float,
                 mode: MeasureMode, feed_forward: Callable) -> list[Record]:
    """The qubus module of both elementary gates: attach two beams (α, α),
    run the gate's optical `program` on them (built for the first new beam)
    and read the first.

    Each readout becomes a record: `feed_forward(n̂, post)` gives its
    corrected state and corrections, and the surviving beam is detached as
    the recycled qubus amplitude where it is uniform.
    """
    b1 = state.n_beams
    s = functools.reduce(apply_instruction, program, state.attach_beams((alpha, alpha)))
    records = []
    for n_hat, label, prob, post, mult in _measure_beam(s, b1, mode):
        post, corrections = feed_forward(n_hat, post)
        try:
            post, recycled = post.detach_beam(b1)
        except PreconditionViolation:  # the beam is entangled with the state
            recycled = None
        records.append(Record(labels=(label,), probability=prob, state=post,
                              corrections=corrections, recycled_qubus=recycled,
                              multiplicity=mult))
    return records


def _c_path_core(state: HybridState, target: str, path_h: int, path_v: int,
                 v_modes: Sequence[ModeSelector], h_modes: Sequence[ModeSelector],
                 alpha: float, theta: float, mode: MeasureMode) -> list[Record]:
    """Shared pipeline of the standard and multi-control controlled-path gate.

    Runs `_c_path_program` on the bus.  Outcome n = 0 leaves H-flagged
    components on `path_h`; n ≠ 0 records are corrected by the path swap
    plus the odd-n π phase.
    """
    def feed_forward(n_hat, post):
        corrections = []
        if n_hat is not None and n_hat != 0:
            post = post.swap_paths(path_h, path_v)
            corrections.append(f"swap paths {path_h}<->{path_v}")
            if n_hat % 2 == 1:
                post = phase_shift(post, ModeSelector(path_v, ANY, target), math.pi)
                corrections.append(f"pi phase on path {path_v}")
        return post, tuple(corrections)

    program = _c_path_program(target, path_h, path_v, v_modes, h_modes, theta,
                              state.n_beams)
    records = _bus_readout(state, program, alpha, mode, feed_forward)
    return [replace(rec, state=rec.state.canonicalize(1e-12)) for rec in records]


def c_path(state: HybridState, control: str, target: str,
           target_paths: tuple[int, int], alpha: float, theta: float, *,
           mode: Optional[MeasureMode] = None,
           trace: Optional[ResourceTrace] = None) -> GateResult:
    """Route the target photon by the control polarization.

    The target (entering on the first of `target_paths`) leaves on the first
    path in control-H components and on the second in control-V components;
    every enumerated record is corrected back to that same output.  The
    unmeasured qubus beam survives with amplitude √2·α·cosθ (√2·α in the
    quiet record) and is reported for recycling.
    """
    mode = _checked_mode(mode)
    trace = trace if trace is not None else ResourceTrace()
    p1, p2 = target_paths
    state = state.add_paths([p1, p2])
    cpaths = state.paths_of(control)
    if len(cpaths) != 1:
        raise PreconditionViolation("control photon must sit on a single path")
    (cpath,) = cpaths
    if any(m is None or m[0] != p1 for m in state.photon_modes(target)):
        raise PreconditionViolation("target photon must enter on the first target path")
    if state.occupants(p2):
        raise PreconditionViolation("second target path must be empty")
    trace.log_elementary("c_path", theta, couplings=4)
    v_modes, h_modes = _control_modes(control, cpath)
    records = _c_path_core(state, target, p1, p2, v_modes=v_modes, h_modes=h_modes,
                           alpha=alpha, theta=theta, mode=mode)
    return GateResult(tuple(records), trace.report())


# -- merging gate -------------------------------------------------------------

def _merge_classes(records: list[Record]) -> list[Record]:
    """Coalesce a merging's entangler records once their feed-forward is
    applied, so that the photon is localized once for all of them.

    The composites' entangler bus holds only 0 and ±iβ, and after
    feed-forward its class records (n = 0, odd and even n; in `QndMode`
    vacuum, odd and even peaks) leave the same state up to a global phase.
    Heralded failures are not merged; the readout lists the ambiguous
    outcome last, so they keep their place after the merged records.
    """
    return (coalesce([rec for rec in records if not _heralded_failure(rec)])
            + [rec for rec in records if _heralded_failure(rec)])


@dataclass(frozen=True)
class FreshAncilla:
    """Inject a new ancilla photon in |+⟩ (sign=+1) or |−⟩ (sign=−1)."""
    photon: str = "ancilla"
    sign: int = 1


@dataclass(frozen=True)
class ParkedAncilla:
    """Reuse the photon a previous merging parked on a localization path."""
    photon: str
    path: int
    sign: int


AncillaSpec = Union[FreshAncilla, ParkedAncilla]


def _locate_photon(state: HybridState, photon: str, paths: Sequence[int],
                   mode: MeasureMode, response: Sequence[float]):
    """(path, label, probability, post-state) of each outcome of finding
    the photon on one of `paths`.

    The clean outcomes are weighted by the `response` of the module reading
    the one photon, (vacuum, peak, ambiguous); exact readout is (0, 1, 0).
    A detector adds a no-click record and per-path ambiguous records, whose
    path is None: they get no correction.  With `mode.rng` one is drawn.
    """
    clean = []
    for t in paths:
        sub = state.select(state.occupied(t, photon=photon))
        p = sub.inner(sub).real
        if p > 1e-300:
            clean.append((t, p, sub.scaled(1 / math.sqrt(p)).canonicalize(1e-12)))

    w_vac, w_peak, w_amb = response
    results = [(t, ("qnd_path", t), p * w_peak, sub) for t, p, sub in clean]
    total = sum(p for _, p, _ in clean)
    if total * w_vac > 1e-300:
        results.append((None, ("qnd_path", "no_click"), total * w_vac,
                        state.canonicalize(1e-12)))
    for t, p, sub in clean:
        if p * w_amb > 1e-300:
            results.append((None, ("qnd_path_ambiguous", t), p * w_amb, sub))
    if mode.rng is not None:
        t, label, _, sub = results[draw_index([r[2] for r in results], mode.rng)]
        return [(t, label, 1.0, sub)]
    return results


def merging(state: HybridState, photon: str, source_paths: tuple[int, int],
            dest_path: int, alpha: float, theta: float, *,
            ancilla: AncillaSpec, companion_flip: ModeSelector,
            mode: Optional[MeasureMode] = None,
            trace: Optional[ResourceTrace] = None) -> GateResult:
    """Coherently merge a photon's two path modes onto `dest_path`.

    The ancilla photon sits on the destination path; the entangler writes
    the split photon's polarization onto it, the interferometer and the
    diagonal-basis splitters fan the split photon out over four localization
    paths, and the QND modules find it there.  After feed-forward the
    destination photon carries the merged qubit and the localized photon is
    reported as the recycled ancilla for the next merging.

    `companion_flip` names the mode whose occupancy marks the components
    that entered from the second source path; those pick up the sign fix
    when the photon is localized on a minus-port path (for the standalone
    gate this is the entangled companion photon's V mode).

    The public gate returns one record per entangler outcome n (per peak
    in `QndMode`) and localization path.  Inside a composite the entangler
    records are read by class and merged before localization
    (`_merge_classes`), so the photon is localized once.
    """
    mode = _checked_mode(mode)
    trace = trace if trace is not None else ResourceTrace()
    p, q = source_paths
    state = state.add_paths([p, q, dest_path])
    if None in state.photon_modes(photon) or not state.paths_of(photon) <= {p, q}:
        raise PreconditionViolation("photon to merge must occupy one of the source paths")
    for path in (p, q):
        extra = state.occupants(path) - {photon}
        if extra:
            raise PreconditionViolation(f"path {path} holds other photons: {extra}")

    if isinstance(ancilla, FreshAncilla):
        if state.occupants(dest_path):
            raise PreconditionViolation("destination path must be empty")
        state = state.add_photon(ancilla.photon, dest_path,
                                 "+" if ancilla.sign > 0 else "-")
        trace.log_ancilla_new()
    else:
        if ancilla.path != dest_path:
            if state.occupants(dest_path):
                raise PreconditionViolation("destination path must be empty")
            state = state.swap_paths(ancilla.path, dest_path)
        if state.occupants(dest_path) != {ancilla.photon}:
            raise PreconditionViolation("parked ancilla is not where recorded")
    anc = ancilla.photon

    state, qnd_paths = state.fresh_paths(4)
    t_p_plus, t_p_minus, t_q_plus, t_q_minus = qnd_paths
    minus_port_paths = {t_q_plus, t_q_minus}
    minus_pol_paths = {t_p_minus, t_q_minus}

    def feed_forward(n_hat, post):
        if n_hat is None:
            # ambiguous entangler readout: surfaced as a failure record
            return post, (_NO_CORRECTION,)
        corrections = []
        if n_hat != 0:
            post = post.apply_photon_unitary(anc, (dest_path, "H"),
                                             (dest_path, "V"), PAULI_X)
            corrections.append("ancilla bit flip")
        if (n_hat % 2 == 1) != (ancilla.sign < 0):
            post = phase_shift(post, ModeSelector(dest_path, "V", anc), math.pi)
            corrections.append("pi phase on ancilla V mode")
        return post, tuple(corrections)

    trace.log_elementary("merging", theta, couplings=4)
    entangled = _bus_readout(
        state, _entangler_program(p, q, dest_path, anc, theta, state.n_beams),
        alpha, mode, feed_forward)
    if mode.classes:
        entangled = _merge_classes(entangled)

    # the (vacuum, peak, ambiguous) weights of a module reading the one
    # photon on a localization path
    response = ((0.0, 1.0, 0.0) if mode.det is None else
                response_matrix(mode.det, povm_bins(mode.det, 1), 1)[1].tolist())

    records = []
    for rec in entangled:
        if _heralded_failure(rec):
            records.append(replace(rec, state=rec.state.canonicalize(1e-12)))
            continue
        post = photon_bs(rec.state, p, q)
        post = pbs_diag(post, transmit={p: t_p_plus, q: t_q_plus},
                        reflect={p: t_p_minus, q: t_q_minus})
        for t, sub_label, sub_prob, sub in _locate_photon(post, photon, qnd_paths,
                                                          mode, response):
            sub_corr = list(rec.corrections)
            if t is not None:
                if t in minus_port_paths:
                    sub = phase_shift(sub, companion_flip, math.pi)
                    sub_corr.append("sign flip on companion sector")
                if t in minus_pol_paths:
                    sub = phase_shift(sub, ModeSelector(dest_path, "V", anc),
                                      math.pi)
                    sub_corr.append("sign flip on merged photon")
                pol_sign = -1 if t in minus_pol_paths else 1
                sub = sub.swap_photon_labels(photon, anc)
                parked = (anc, t, pol_sign)
            else:
                sub_corr.append(_NO_CORRECTION)
                parked = None
            records.append(Record(
                labels=rec.labels + (sub_label,),
                probability=rec.probability * sub_prob,
                state=sub.canonicalize(1e-12), corrections=tuple(sub_corr),
                recycled_qubus=rec.recycled_qubus, ancilla=parked,
                multiplicity=rec.multiplicity))
    return GateResult(tuple(records), trace.report())


# -- composite two-qubit gates -------------------------------------------------

def _home_path(state: HybridState, photon: str) -> int:
    paths = state.paths_of(photon)
    if len(paths) != 1:
        raise PreconditionViolation(f"photon {photon!r} is not on a single path")
    return next(iter(paths))


def _apply_local(state: HybridState, photon: str, u: np.ndarray) -> HybridState:
    home = _home_path(state, photon)
    return state.apply_photon_unitary(photon, (home, "H"), (home, "V"), u)


def _ancilla_for(rec: Record, ancilla: Optional[AncillaSpec]) -> AncillaSpec:
    """The ancilla a record's next merging uses: the photon parked by an
    earlier merging, else the caller's spec, else a fresh photon."""
    if rec.ancilla is not None:
        return ParkedAncilla(*rec.ancilla)
    return ancilla if ancilla is not None else FreshAncilla()


def _fold_onto_seat(records: list[Record], seat: int,
                    mode: MeasureMode) -> list[Record]:
    """Move every parked ancilla onto the next merging's seat as |+⟩, then
    coalesce.

    A merging leaves records that differ only in where it parked the
    ancilla and in the ancilla's sign.  The next merging first swaps a
    parked ancilla onto its seat; that swap is made here, and `_fold_sign`
    turns a |−⟩ ancilla into |+⟩.  The records then coalesce, so every
    later stage runs once for them.  Heralded failures are neither moved nor
    merged; they follow the merged records.  Only with `mode.classes`; a
    list with fewer than two parked ancillas is returned as it is.
    """
    live = [rec for rec in records if not _heralded_failure(rec)]
    if not mode.classes or sum(rec.ancilla is not None for rec in live) < 2:
        return records
    moved = []
    for rec in live:
        if rec.ancilla is not None:
            photon, path, sign = rec.ancilla
            rec = _fold_sign(replace(rec, state=rec.state.swap_paths(path, seat),
                                     ancilla=(photon, seat, sign)))
        moved.append(rec)
    return coalesce(moved) + [rec for rec in records if _heralded_failure(rec)]


def _fold_sign(rec: Record) -> Record:
    """A record whose ancilla is parked as |−⟩ (sign −1), with the ancilla
    turned into |+⟩ by a feed-forward π phase on its V mode.

    A merging parks the photon as |−⟩ on a minus-polarization path.  With
    the phase recorded as a correction and the sign set to +1, the next
    merging runs the same feed-forward for both signs.
    """
    photon, path, sign = rec.ancilla
    if sign > 0:
        return rec
    state = phase_shift(rec.state, ModeSelector(path, "V", photon), math.pi)
    corrections = rec.corrections + ("pi phase on parked ancilla V mode",)
    return replace(rec, state=state, corrections=corrections,
                   ancilla=(photon, path, 1))


def _merge_records(records: list[Record], photon: str, pair: tuple[int, int],
                   seat: int, home: int, flip: ModeSelector, alpha: float,
                   theta: float, mode: MeasureMode, trace: ResourceTrace,
                   ancilla: Optional[AncillaSpec]) -> list[Record]:
    """Merge `photon` from `pair` onto `seat` in every record, move the
    merged photon back to `home` and coalesce.

    The stage is logged once: one merging gate, and a fresh ancilla photon
    when the first record to run it has none parked.
    """
    trace.log_elementary("merging", theta, couplings=4)
    first = next((rec for rec in records if not _heralded_failure(rec)), None)
    if first is not None and isinstance(_ancilla_for(first, ancilla), FreshAncilla):
        trace.log_ancilla_new()

    def stage(rec: Record) -> list[Record]:
        res = merging(rec.state, photon, pair, seat, alpha, theta,
                      ancilla=_ancilla_for(rec, ancilla), companion_flip=flip,
                      mode=mode)
        return [replace(r, state=r.state.swap_paths(seat, home))
                for r in res.outcomes]
    return coalesce(chain(records, stage))


def _controlled_pair_records(records: list[Record], control: str, target: str,
                             u1: np.ndarray, u2: np.ndarray, alpha: float,
                             theta: float, mode: MeasureMode,
                             trace: ResourceTrace,
                             ancilla: Optional[AncillaSpec]) -> list[Record]:
    """`controlled_pair` on every record of a list whose records share their
    paths and photon homes, as the records of one gate chain do."""
    u1 = check_unitary(np.asarray(u1, dtype=complex))
    u2 = check_unitary(np.asarray(u2, dtype=complex))
    first = next(rec for rec in records if not _heralded_failure(rec)).state
    c_home = _home_path(first, control)
    t_home = _home_path(first, target)
    _, (aux, seat) = first.fresh_paths(2)
    recs = map_records(records, lambda s: s.add_paths((aux, seat)))
    # parked ancillas move to the seat before the c_path, which leaves it alone
    recs = _fold_onto_seat(recs, seat, mode)

    trace.log_elementary("c_path", theta, couplings=4)
    recs = coalesce(chain(recs, lambda rec: c_path(
        rec.state, control, target, (t_home, aux), alpha, theta, mode=mode)))
    if not np.allclose(u1, PAULI_I):
        recs = map_records(recs, lambda s: s.apply_photon_unitary(
            target, (t_home, "H"), (t_home, "V"), u1))
    if not np.allclose(u2, PAULI_I):
        recs = map_records(recs, lambda s: s.apply_photon_unitary(
            target, (aux, "H"), (aux, "V"), u2))
    return _merge_records(recs, target, (t_home, aux), seat, t_home,
                          ModeSelector(c_home, "V", control), alpha, theta,
                          mode, trace, ancilla)


def controlled_pair(state: HybridState, control: str, target: str,
                    u1: np.ndarray, u2: np.ndarray, alpha: float, theta: float, *,
                    mode: Optional[MeasureMode] = None,
                    trace: Optional[ResourceTrace] = None,
                    ancilla: Optional[AncillaSpec] = None) -> GateResult:
    """|H⟩⟨H|⊗U1 + |V⟩⟨V|⊗U2 on (control, target).

    One controlled-path gate routes the target, U1/U2 act on the two paths,
    and one merging gate brings the paths back together; the ancilla photon
    used by the merging is recycled and its parked location reported.
    """
    mode = _checked_mode(mode, composite=True)
    trace = trace if trace is not None else ResourceTrace()
    recs = _controlled_pair_records(initial_records(state), control, target,
                                    u1, u2, alpha, theta, mode, trace, ancilla)
    return GateResult(tuple(recs), trace.report())


def cnot(state: HybridState, control: str, target: str, alpha: float,
         theta: float, **kw) -> GateResult:
    """Bit flip of the target conditioned on the control being V."""
    return controlled_pair(state, control, target, PAULI_I, PAULI_X,
                           alpha, theta, **kw)


def cz(state: HybridState, control: str, target: str, alpha: float,
       theta: float, **kw) -> GateResult:
    return controlled_pair(state, control, target, PAULI_I,
                           np.diag([1, -1]).astype(complex), alpha, theta, **kw)


def c_phase(state: HybridState, control: str, target: str, phi: float,
            alpha: float, theta: float, **kw) -> GateResult:
    return controlled_pair(state, control, target, PAULI_I,
                           np.diag([1, np.exp(1j * phi)]), alpha, theta, **kw)


# -- arbitrary U(4) synthesis ---------------------------------------------------

@functools.cache
def _magic_as_gates():
    """Magic basis change as locals plus one controlled phase pair.

    The magic transformation is Weyl-equivalent to exp(iπ/4 σx⊗σx), which
    Hadamards turn into the controlled diagonal diag(e^{iπ/4}, e^{−iπ/4})
    pair, so it costs exactly one elementary gate pair.
    """
    params = kak_decompose(MAGIC)
    if not (math.isclose(params.ax, math.pi / 4, abs_tol=1e-9)
            and abs(params.ay) < 1e-9 and abs(params.az) < 1e-9):
        raise PreconditionViolation("magic transformation has unexpected class")
    # N(π/4,0,0) = exp(iπ/4 σx⊗σx) = (Hd⊗Hd)·exp(iπ/4 σz⊗σz)·(Hd⊗Hd)
    phase = cmath.exp(1j * math.pi / 4)
    u1 = np.diag([phase, phase.conjugate()])
    u2 = np.diag([phase.conjugate(), phase])
    left = (params.a1 @ HADAMARD, params.a2 @ HADAMARD)
    right = (HADAMARD @ params.a3, HADAMARD @ params.a4)
    return left, (u1, u2), right


def synth_two_qubit(state: HybridState, control: str, target: str,
                    u: np.ndarray, alpha: float, theta: float, *,
                    mode: Optional[MeasureMode] = None,
                    trace: Optional[ResourceTrace] = None,
                    ancilla: Optional[AncillaSpec] = None) -> GateResult:
    """Arbitrary U ∈ U(4) on (control, target) via the canonical form.

    U = (A1⊗A2)·N·(A3⊗A4); N is diagonalized by the magic transformation
    into a polarization-controlled pair of diagonal phase gates, and the
    magic transformation itself costs one more controlled pair on each side,
    so the synthesis runs three controlled-path/merging rounds with one
    recycled ancilla photon.
    """
    mode = _checked_mode(mode, composite=True)
    trace = trace if trace is not None else ResourceTrace()
    u = check_unitary(np.asarray(u, dtype=complex))
    params = kak_decompose(u)
    d1, d2 = controlled_diag_pair(params.ax, params.ay, params.az)
    (m_l1, m_l2), (m_u1, m_u2), (m_r1, m_r2) = _magic_as_gates()

    def locals_stage(recs, a, b):
        recs = map_records(recs, lambda s: _apply_local(s, control, a))
        return map_records(recs, lambda s: _apply_local(s, target, b))

    def cp_stage(recs, ua, ub):
        return _controlled_pair_records(recs, control, target, ua, ub, alpha,
                                        theta, mode, trace, ancilla)

    recs = initial_records(state)
    recs = locals_stage(recs, params.a3, params.a4)
    # magic-inverse: locals, controlled pair, locals
    recs = locals_stage(recs, m_l1.conj().T, m_l2.conj().T)
    recs = cp_stage(recs, m_u1.conj().T, m_u2.conj().T)
    recs = locals_stage(recs, m_r1.conj().T, m_r2.conj().T)
    # the diagonalized canonical gate
    recs = cp_stage(recs, d1, d2)
    # magic: locals, controlled pair, locals
    recs = locals_stage(recs, m_r1, m_r2)
    recs = cp_stage(recs, m_u1, m_u2)
    recs = locals_stage(recs, m_l1, m_l2)
    recs = locals_stage(recs, params.a1, params.a2)
    recs = coalesce(recs)
    return GateResult(tuple(recs), trace.report())


# -- multi-qubit gates -----------------------------------------------------------

def fredkin(state: HybridState, control: str, target1: str, target2: str,
            alpha: float, theta: float, *, mode: Optional[MeasureMode] = None,
            trace: Optional[ResourceTrace] = None,
            ancilla: Optional[AncillaSpec] = None) -> GateResult:
    """Swap the two target qubits when the control is V.

    Two controlled-path gates split the targets, the V-side paths are
    exchanged (with the identical-photon labels rebound), and two merging
    gates undo the splits; one ancilla photon serves both mergings.
    """
    mode = _checked_mode(mode, composite=True)
    trace = trace if trace is not None else ResourceTrace()
    c_home = _home_path(state, control)
    h1 = _home_path(state, target1)
    h2 = _home_path(state, target2)
    state, (o1, o2, seat1, seat2) = state.fresh_paths(4)
    flip = ModeSelector(c_home, "V", control)

    recs = initial_records(state)
    for photon, pair in ((target1, (h1, o1)), (target2, (h2, o2))):
        trace.log_elementary("c_path", theta, couplings=4)
        recs = coalesce(chain(recs, lambda rec, photon=photon, pair=pair: c_path(
            rec.state, control, photon, pair, alpha, theta, mode=mode)))
    recs = map_records(recs, lambda s: s.swap_paths(o1, o2))
    # identical-photon bookkeeping: where target1 now sits on o2, the two
    # targets swap labels
    recs = map_records(recs, lambda s: s.swap_photon_labels(
        target1, target2, s.occupied(o2, photon=target1)))

    for photon, pair, seat, home in ((target1, (h1, o1), seat1, h1),
                                     (target2, (h2, o2), seat2, h2)):
        recs = _merge_records(_fold_onto_seat(recs, seat, mode), photon, pair,
                              seat, home, flip, alpha, theta, mode, trace,
                              ancilla)
    return GateResult(tuple(recs), trace.report())


def multi_toffoli(state: HybridState, controls: Sequence[str], target: str,
                  alpha: float, theta: float, *,
                  mode: Optional[MeasureMode] = None,
                  trace: Optional[ResourceTrace] = None,
                  ancilla: Optional[AncillaSpec] = None) -> GateResult:
    """Bit flip of the target when every control is V.

    A chain of k controlled-path gates routes each successive photon by the
    all-V flag accumulated on the odd paths (one beam couples the new V
    flag, the other couples every earlier H flag, which a branch can fire at
    most once), the flip acts on the all-V target path alone, and k merging
    gates undo the routing while reusing a single ancilla photon.
    """
    mode = _checked_mode(mode, composite=True)
    trace = trace if trace is not None else ResourceTrace()
    k = len(controls)
    if k < 2:
        raise PreconditionViolation("need at least two control photons")
    homes = [_home_path(state, c) for c in controls]
    t_home = _home_path(state, target)
    state, fresh = state.fresh_paths(2 * k)
    odd = fresh[:k]          # odd[j]: all-V path created by stage j+1
    seats = fresh[k:]        # merge destinations
    flags = [homes[0]] + list(odd)

    recs = initial_records(state)
    stage_targets = list(controls[1:]) + [target]
    stage_homes = homes[1:] + [t_home]
    for j, (photon, home) in enumerate(zip(stage_targets, stage_homes)):
        v_modes = [ModeSelector(flags[j], "V")]
        h_modes = [ModeSelector(f, "H") for f in flags[:j + 1]]
        args = (photon, home, odd[j], v_modes, h_modes, alpha, theta, mode)
        trace.log_elementary("c_path", theta, couplings=4)
        recs = coalesce(chain(recs, lambda rec, args=args: _c_path_core(
            rec.state, *args)))

    recs = map_records(recs, lambda s: s.apply_photon_unitary(
        target, (odd[k - 1], "H"), (odd[k - 1], "V"), PAULI_X))

    merge_specs = [(target, (t_home, odd[k - 1]), seats[k - 1], t_home,
                    ModeSelector(flags[k - 1], "V"))]
    for j in range(k - 2, -1, -1):
        merge_specs.append((stage_targets[j], (stage_homes[j], odd[j]),
                            seats[j], stage_homes[j],
                            ModeSelector(flags[j], "V")))
    for photon, pair, seat, home, flip in merge_specs:
        recs = _merge_records(_fold_onto_seat(recs, seat, mode), photon, pair,
                              seat, home, flip, alpha, theta, mode, trace,
                              ancilla)
    return GateResult(tuple(recs), trace.report())


def toffoli(state: HybridState, control1: str, control2: str, target: str,
            alpha: float, theta: float, **kw) -> GateResult:
    """Doubly-V-controlled bit flip (the two-control case of the chain)."""
    return multi_toffoli(state, [control1, control2], target, alpha, theta, **kw)
