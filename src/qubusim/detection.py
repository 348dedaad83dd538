"""Measurement layer: the one readout of a qubus beam, by photon number or
through an indirect photon-number (QND) detector with a realistic POVM.

Every gate readout runs `read_beam`: P(n), the photon-number distribution
of the beam up to the Poisson cutoff, is one array (`_fock_density`, which
keeps the cross terms of branches that are not orthogonal elsewhere), a
response table R[n, o] (the identity for photon counting, the detector
response for a QND readout) gives P(o) = Σ_n P(n)·R[n, o], and a post-state
is built only for the outcomes reported: each outcome, one per parity class
on a bus of amplitudes 0 and ±z, or the one drawn.  `qnd_detect`, the POVM
readout of a circuit's `qnd` instruction, weights each branch by the root
of its POVM response instead of collapsing onto the inferred photon number;
that keeps the post-state pure and is exact whenever branches with distinct
signal amplitudes are orthogonal on the photon side, as in every gate here.

The QND readout chain is: attach probe beams |γ⟩|γ⟩, rotate the first probe
by e^{inθp} per signal Fock component n, interfere the probes on a 50:50 BS
and detect the difference mode |γ(e^{inθp}−1)/√2⟩ with a detector of quantum
efficiency η whose diagonal POVM elements are

    Π0      = Σ (1−η)^m |m⟩⟨m|                      (no response),
    Π_{n_k} = Σ_{m=n_k}^{n_k'} [1 − (1−η)^m] |m⟩⟨m|  (k-th Poisson peak),
    Π_E     = 1 − Π0 − Σ_k Π_{n_k}                   (ambiguous response)
            = Σ_{m uncovered} [1 − (1−η)^m] |m⟩⟨m|,

where the uncovered m lie below the first peak bin or above the last.  Each
outcome sums its slice of one Poisson window (±40σ) of the difference mode;
Π_E sums the uncovered slices, so its small weights are not rounding noise.

Direct Fock projection removes the measured beam from the registry (a Fock
state is not representable by a coherent label).  By default the collapse is
the literal Born rule; gates opt into the idealized pointer collapse where a
zero-photon outcome selects exactly the zero-amplitude branches, the reading
under which the feed-forward corrections restore the target state exactly
(see `vacuum_pointer`).  The weight this idealization reassigns is the n = 0
overlap of the ±β branches, e^{−|β|²} per unit of their weight (0.137 of a
public `c_path`'s n = 0 record at α 2, θ 0.5): the n = 0 term that
`vacuum_response_probability` includes and `detection_error_exact` leaves out.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BinsOverlap,
    CutoffTooSmall,
    PreconditionViolation,
)
from .state import HybridState

VACUUM = "vacuum"
PEAK = "peak"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class DetectorParams:
    """Detector model: quantum efficiency η, probe amplitude γ and probe
    cross-phase step θp."""

    eta: float
    gamma: float
    theta_p: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise PreconditionViolation("quantum efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class PovmBins:
    """Fock ranges of the difference-mode detector backing each outcome.

    `bins` holds (k, n_k, n_k') with disjoint increasing ranges; k = 0 is the
    vacuum window around the dark response, bins k ≥ 1 straddle the Poisson
    mean |γ(e^{ikθp}−1)/√2|² = |γ|²(1−cos kθp).
    """

    gamma: float
    theta_p: float
    bins: tuple[tuple[int, int, int], ...]

    @property
    def k_max(self) -> int:
        return self.bins[-1][0]


@dataclass(frozen=True)
class PovmOutcome:
    tag: str                    # VACUUM, PEAK or AMBIGUOUS
    k: Optional[int]            # peak index for PEAK outcomes
    probability: float


# -- Poisson utilities --------------------------------------------------------

def poisson_pmf(n: int, mean: float) -> float:
    if mean <= 0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def poisson_cutoff(mean: float, tail: float) -> int:
    """Smallest N ≥ mean whose bound on P(n > N) is below `tail`.

    Past the mean the Poisson terms shrink at least by the ratio
    mean/(N+2), so P(n > N) ≤ Pois(N+1)/(1 − mean/(N+2)).  Unlike
    1 − P(n ≤ N), this bound is not swamped by rounding near tails of 1e-15.
    """
    if mean <= 0:
        return 0
    limit = int(mean + 30 * math.sqrt(mean) + 60)
    for n in range(math.ceil(mean), limit):
        if poisson_pmf(n + 1, mean) / (1.0 - mean / (n + 2)) < tail:
            return n
    return limit


def _fock_amp(beta: complex, n: int) -> complex:
    """⟨n|β⟩ = e^{−|β|²/2} βⁿ/√n!, evaluated stably for large |β|."""
    r = abs(beta)
    if r == 0:
        return 1.0 + 0j if n == 0 else 0j
    mag = math.exp(-0.5 * r * r + n * math.log(r) - 0.5 * math.lgamma(n + 1))
    return mag * cmath.exp(1j * n * cmath.phase(beta))


# -- the photon-number distribution of a beam ---------------------------------

def _fock_collapse(state: HybridState, beam: int, n: int,
                   vacuum_pointer: bool, zero_tol: float = 1e-9):
    """Unnormalized post-state for outcome n plus its (honest) probability."""
    projected = state.remove_beam_weighted(beam, lambda z: _fock_amp(z, n))
    prob = projected.inner(projected).real
    post = projected
    if vacuum_pointer and n == 0 and any(
            abs(z) <= zero_tol for z in state.beam_column(beam)):
        post = state.remove_beam_weighted(
            beam, lambda z: _fock_amp(z, 0) if abs(z) <= zero_tol else 0j)
    return post, prob


# the largest mean photon number of a beam that a readout enumerates
_MAX_MEAN = 1e6


def _beam_means(state: HybridState, beam: int) -> set[float]:
    """The mean photon numbers of one beam over the branches; a beam above
    `_MAX_MEAN` photons, or not finite, raises PreconditionViolation."""
    amps = {abs(z) for z in state.beam_column(beam)}
    if not all(a * a <= _MAX_MEAN for a in amps):
        raise PreconditionViolation(
            f"beam {beam} holds more than {_MAX_MEAN:g} photons on average")
    return {a ** 2 for a in amps}


def _normalized_post(post: HybridState, norm2: float) -> HybridState:
    """`post`, a nonzero state whose squared norm is about `norm2`, scaled
    to norm 1 and canonicalized."""
    if norm2 < sys.float_info.min:
        # the squared amplitudes underflow: rescale before taking the norm
        post = post.scaled(1 / max(map(abs, post.amplitudes())))
    return post.scaled(1 / post.norm()).canonicalize(1e-12)


def _fock_amps(beta: complex, log_fact: np.ndarray) -> np.ndarray:
    """⟨n|β⟩ for n = 0..len(log_fact)−1, the vector form of `_fock_amp`;
    `log_fact` holds log n!."""
    out = np.zeros(len(log_fact), dtype=complex)
    r = abs(beta)
    if r == 0:
        out[0] = 1.0
        return out
    n = np.arange(len(log_fact))
    return np.exp(-0.5 * r * r + n * math.log(r) - 0.5 * log_fact
                  + 1j * cmath.phase(beta) * n)


def _fock_density(state: HybridState, beam: int, n_max: int,
                  ) -> tuple[list, np.ndarray, np.ndarray]:
    """Photon-number distribution of one beam for n = 0..n_max.

    Returns the distinct beam amplitudes a in first-seen order, their Fock
    vectors F_a as the rows of one array, and
    P(n) = Re Σ_ab M[a, b]·F_a(n)·F̄_b(n), where M is the beam's reduced
    state (`HybridState.beam_coherences`).  Cross terms between branches
    that are not orthogonal in the photon or other-beam sector are
    therefore kept.
    """
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    amps, overlaps = state.beam_coherences(beam)
    fock = np.array([_fock_amps(a, log_fact) for a in amps])
    density = np.einsum("an,ab,bn->n", fock, overlaps, fock.conj()).real
    return amps, fock, density


def _readout_range(state: HybridState, beam: int, cutoff: Optional[int],
                   tail: float) -> int:
    """The largest n a readout of `beam` covers: the Poisson cutoff of its
    branch means, or `cutoff` when given.  Raises CutoffTooSmall when
    `cutoff` leaves a Poisson tail above 1e-9."""
    means = _beam_means(state, beam)
    needed = max((poisson_cutoff(m, tail) for m in means), default=0)
    if cutoff is None:
        return needed
    if cutoff < needed and any(
            sum(poisson_pmf(n, m) for n in range(cutoff + 1)) < 1 - 1e-9
            for m in means):
        raise CutoffTooSmall(
            f"cutoff {cutoff} leaves a Poisson tail above 1e-9 (need {needed})")
    return cutoff


_CLASS_TOL = 1e-12


def _class_amplitude(state: HybridState, beam: int) -> Optional[complex]:
    """z when every amplitude on `beam` is 0, +z or −z (within 1e-12), else
    None (also when every amplitude is 0)."""
    z = None
    for q in state.beam_column(beam):
        if abs(q) <= _CLASS_TOL:
            continue
        if z is None:
            z = q
        elif abs(q - z) > _CLASS_TOL and abs(q + z) > _CLASS_TOL:
            return None
    return z


def draw_index(probabilities: Sequence[float], rng: np.random.Generator) -> int:
    """Inverse-CDF draw; deterministic for a fixed generator state."""
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if u < acc:
            return i
    return len(probabilities) - 1


# -- POVM construction --------------------------------------------------------

def peak_mean(det: DetectorParams, k: int) -> float:
    """Difference-mode Poisson mean |γ|²(1−cos kθp) for signal Fock k."""
    try:
        return abs(det.gamma) ** 2 * (1.0 - math.cos(k * det.theta_p))
    except OverflowError:
        raise PreconditionViolation(f"probe amplitude {det.gamma!r} overflows |γ|²") from None


def povm_bins(det: DetectorParams, k_max: int) -> PovmBins:
    """Place bin boundaries at midpoints between adjacent Poisson means.

    Raises BinsOverlap when adjacent means are closer than the sum of three
    standard deviations (√mean each) — the negligible-overlap assumption
    behind the binning would then be violated.
    """
    if k_max < 1:
        raise PreconditionViolation("k_max must be at least 1")
    if (k_max + 1) * abs(det.theta_p) > math.pi:
        raise BinsOverlap(
            "probe phase wraps beyond π; Poisson means are no longer monotone")
    means = [peak_mean(det, k) for k in range(k_max + 2)]
    for k in range(k_max + 1):
        gap = means[k + 1] - means[k]
        if gap < 3.0 * (math.sqrt(means[k]) + math.sqrt(means[k + 1])):
            raise BinsOverlap(
                f"Poisson peaks {k} and {k + 1} overlap beyond the 3σ guard")
    bounds = [0.5 * (means[k] + means[k + 1]) for k in range(k_max + 1)]
    bins = [(0, 0, int(bounds[0]))]
    for k in range(1, k_max + 1):
        lo = int(bounds[k - 1]) + 1
        hi = int(bounds[k])
        bins.append((k, lo, hi))
    return PovmBins(gamma=det.gamma, theta_p=det.theta_p, bins=tuple(bins))


def povm_diagonals(det: DetectorParams, bins: PovmBins, dim: int) -> dict:
    """Diagonal entries of Π0, every Π_{n_k} and Π_E on a truncated space."""
    m = np.arange(dim)
    pi0 = (1.0 - det.eta) ** m
    peaks = {}
    covered = np.zeros(dim, dtype=bool)
    for k, lo, hi in bins.bins[1:]:
        sel = (m >= lo) & (m <= min(hi, dim - 1))
        peaks[k] = np.where(sel, 1.0 - pi0, 0.0)
        covered |= sel
    pie = np.where(covered, 0.0, 1.0 - pi0)
    return {"pi0": pi0, "peaks": peaks, "pie": pie}


def outcome_keys(k_max: int) -> list:
    """The (tag, k) outcome alphabet in response-row order: vacuum, peak
    1..k_max, ambiguous.  Peak k sits at column k."""
    return [(VACUUM, None)] + [(PEAK, k) for k in range(1, k_max + 1)] \
        + [(AMBIGUOUS, None)]


def _poisson_window(mean: float, lo: int, hi: int) -> np.ndarray:
    """Pois(m; mean) for m = lo..hi, a window around the mode ⌊mean⌋ that
    holds all but a negligible share of the mass (±40σ in `_response_row`).

    The log-ratios log(mean/m) are summed outward from the mode and the
    window is normalized to 1, so no term carries the rounding of
    −mean + m·log(mean) − log m!, which grows with the mean.
    """
    mode = int(mean)
    up = np.cumsum(np.log(mean / np.arange(mode + 1, hi + 1)))
    down = np.cumsum(np.log(np.arange(mode, lo, -1) / mean))[::-1]
    weights = np.exp(np.concatenate((down, [0.0], up)))
    return weights / weights.sum()


def _click_probability(eta: float, m: np.ndarray) -> np.ndarray:
    """1 − (1−η)^m: the chance that the detector responds to m photons."""
    if eta >= 1:
        return (m > 0).astype(float)
    return -np.expm1(m * math.log1p(-eta))


def _response_row(det: DetectorParams, bins: PovmBins, probe_mean: float) -> np.ndarray:
    """P(outcome | difference mode in a coherent state of mean `probe_mean`),
    in `outcome_keys` order.

    Each peak sums Pois(m)·(1−(1−η)^m) over its Fock range within ±40σ of
    the mean; Π_E sums the same terms over the m that no peak bin covers.
    """
    row = np.zeros(len(bins.bins) + 1)
    row[0] = math.exp(-det.eta * probe_mean)
    if probe_mean <= 0:
        return row  # all the weight sits at m = 0
    sigma = math.sqrt(probe_mean)
    lo = max(0, int(probe_mean - 40 * sigma - 10))
    hi = int(probe_mean + 40 * sigma + 10)
    terms = _poisson_window(probe_mean, lo, hi) * _click_probability(
        det.eta, np.arange(lo, hi + 1))

    def window_sum(first: int, last: int) -> float:
        return terms[max(first, lo) - lo:max(min(last, hi) + 1 - lo, 0)].sum()

    for k, first, last in bins.bins[1:]:
        row[k] = window_sum(first, last)
    row[-1] = window_sum(0, bins.bins[0][2]) + window_sum(bins.bins[-1][2] + 1, hi)
    return row


def response_matrix(det: DetectorParams, bins: PovmBins, n_max: int) -> np.ndarray:
    """R[n, o] = P(outcome o | signal Fock n) for n = 0..n_max, outcomes in
    `outcome_keys(bins.k_max)` order."""
    return np.array([_response_row(det, bins, peak_mean(det, n))
                     for n in range(n_max + 1)])


def _response_table(det: DetectorParams, n_max: int,
                    k_max: Optional[int]) -> tuple[int, np.ndarray]:
    """The peak count k_max of a readout (by default one peak per n up to
    n_max, and at least one) and its response table R[n, o]."""
    if k_max is None:
        k_max = max(n_max, 1)
    return k_max, response_matrix(det, povm_bins(det, k_max), n_max)


# -- the QND analysis ---------------------------------------------------------

@dataclass(frozen=True)
class _QndAnalysis:
    """Outcome probabilities of one QND readout, plus the root of the POVM
    response √(Σ_n |⟨n|a⟩|²·R[n, o]) of every distinct beam amplitude a."""

    outcomes: list
    probs: list
    roots: dict

    def weighted_post(self, state: HybridState, beam: int, o: int) -> HybridState:
        """The beam removed and each branch scaled by its response root."""
        return state.remove_beam_weighted(beam, lambda z: self.roots[z][o])


def _qnd_analysis(state: HybridState, beam: int, det: DetectorParams,
                  k_max: Optional[int], tail: float) -> _QndAnalysis:
    """Outcome probabilities of a QND readout (see `_fock_density`):
    P(o) = Re Σ_ab M[a, b]·(F_a ∘ F̄_b) @ R[:, o] = Σ_n P(n)·R[n, o]."""
    n_max = _readout_range(state, beam, None, tail)
    k_max, resp = _response_table(det, n_max, k_max)
    amps, fock, density = _fock_density(state, beam, n_max)
    roots = np.sqrt(np.abs(fock) ** 2 @ resp).tolist()
    return _QndAnalysis(outcomes=outcome_keys(k_max),
                        probs=(density @ resp).tolist(),
                        roots=dict(zip(amps, roots)))


_QND_FLOOR = 1e-300  # the smallest outcome probability a QND readout reports


# -- the one readout ----------------------------------------------------------

def read_beam(state: HybridState, beam: int,
              det: Optional[DetectorParams] = None, *,
              k_max: Optional[int] = None, tail: float = 1e-12,
              cutoff: Optional[int] = None, vacuum_pointer: bool = False,
              classes: bool = False,
              rng: Optional[np.random.Generator] = None) -> list[tuple]:
    """Read one beam by photon number (up to `cutoff` when given), or
    through the QND detector `det`.

    Returns an (n̂, label, probability, post-state, multiplicity) record per
    outcome of probability above 0 (Fock) or 1e-300 (QND), in outcome order.
    Outcome n of a Fock readout infers n̂ = n, label ("n", n); a QND readout
    infers n̂ = 0 (("qnd", "vacuum")), n̂ = k (("qnd_peak", k)) or nothing
    (n̂ = None, ("qnd", "ambiguous")).  The beam is collapsed onto |n̂⟩, or
    each branch weighted by its POVM response root where n̂ is None.  With
    `rng`, one `draw_index` over those outcomes picks the one record of a
    shot (probability 1).  Else, with `classes`, a beam of amplitudes 0 and
    ±z folds the outcomes n̂ ≥ 1 of one parity into one record at the first
    member, with the summed probability and the member count.
    """
    if det is None:
        n_max = _readout_range(state, beam, cutoff, tail)
        probs = _fock_density(state, beam, n_max)[2]
    else:
        analysis = _qnd_analysis(state, beam, det, k_max, tail)
        probs = np.maximum(analysis.probs, 0.0)
    # outcome o infers n̂ = o; the last QND outcome (ambiguous) infers none
    n_hats = np.arange(len(probs))
    if det is not None:
        n_hats[-1] = -1
    support = probs > (0.0 if det is None else _QND_FLOOR)
    outcomes = np.flatnonzero(support)

    def inferred(o: int) -> tuple:
        n_hat = int(n_hats[o])
        if det is None:
            return n_hat, ("n", n_hat)
        if n_hat < 0:
            return None, ("qnd", AMBIGUOUS)
        return n_hat, ("qnd", VACUUM) if n_hat == 0 else ("qnd_peak", n_hat)

    def post_state(o: int) -> Optional[HybridState]:
        """The normalized post-state of outcome o; None where the collapse
        onto its n̂ underflows to zero."""
        if n_hats[o] < 0:
            return _normalized_post(analysis.weighted_post(state, beam, o),
                                    analysis.probs[o])
        post, norm2 = _fock_collapse(state, beam, int(n_hats[o]), vacuum_pointer)
        return _normalized_post(post, norm2) if norm2 > 0 else None

    if rng is not None:
        drawn = int(outcomes[draw_index(probs[outcomes].tolist(), rng)])
        return [(*inferred(drawn), 1.0, post_state(drawn), 1)]
    probs = probs.tolist()
    if classes and _class_amplitude(state, beam) is not None:
        folded = support & (n_hats > 0)
        groups = [[o] for o in np.flatnonzero(support & ~folded).tolist()] + [
            np.flatnonzero(folded & (n_hats % 2 == r)).tolist() for r in (1, 0)]
    else:
        groups = [[o] for o in outcomes.tolist()]
    records = []
    for group in groups:
        # members whose collapse underflows to zero are left out
        while group and (post := post_state(group[0])) is None:
            group = group[1:]
        if group:
            records.append((group[0], (*inferred(group[0]), sum(
                probs[o] for o in group), post, len(group))))
    return [rec for _, rec in sorted(records)]


def enumerate_fock_outcomes(state: HybridState, beam: int,
                            cutoff: Optional[int] = None,
                            tail: float = 1e-12,
                            vacuum_pointer: bool = False,
                            ) -> list[tuple[int, float, HybridState]]:
    """(n, probability, normalized post-state) for every n with P(n) > 0
    up to the Poisson tail (or `cutoff`); the measured beam is removed."""
    return [(n, p, post) for n, _, p, post, _ in read_beam(
        state, beam, tail=tail, cutoff=cutoff, vacuum_pointer=vacuum_pointer)]


def fock_outcome_classes(state: HybridState, beam: int, tail: float = 1e-12,
                         vacuum_pointer: bool = False,
                         ) -> Optional[list[tuple[int, float, HybridState, int]]]:
    """Fock readout of a beam whose amplitudes are 0, +z or −z, by class.

    On such a beam the outcome n ≥ 1 projects onto e^{−|z|²/2}·zⁿ/√n! ·
    (A₊ + (−1)ⁿA₋), where A± gathers the branches at ±z, so all outcomes of
    one parity leave the same post-state up to a global phase.  The classes
    n = 0, odd n and even n ≥ 2 each give the (n, probability, post-state,
    multiplicity) that `coalesce` makes of their `enumerate_fock_outcomes`
    records, in increasing n.  None for a beam with any other amplitudes.
    """
    if _class_amplitude(state, beam) is None:
        return None
    return [(n, p, post, m) for n, _, p, post, m in read_beam(
        state, beam, tail=tail, vacuum_pointer=vacuum_pointer, classes=True)]


def sample_fock(state: HybridState, beam: int, rng: np.random.Generator,
                tail: float = 1e-12, vacuum_pointer: bool = False,
                cutoff: Optional[int] = None) -> tuple[int, HybridState]:
    """Draw one Fock outcome as a draw over `enumerate_fock_outcomes` with
    the same generator would, and collapse onto the drawn n only."""
    [(n, _, _, post, _)] = read_beam(state, beam, tail=tail, cutoff=cutoff,
                                     vacuum_pointer=vacuum_pointer, rng=rng)
    return n, post


def qnd_gate_outcomes(state: HybridState, beam: int, det: DetectorParams,
                      k_max: Optional[int] = None, tail: float = 1e-12):
    """QND readout as used inside a gate: (inferred n, label, probability,
    post-state) per outcome of probability above 1e-300, the post-state
    collapsed onto the inferred n (the pointer component for vacuum), or
    response-weighted with n = None for the ambiguous outcome."""
    return [rec[:4] for rec in read_beam(state, beam, det, k_max=k_max,
                                         tail=tail, vacuum_pointer=True)]


def qnd_detect(state: HybridState, beam: int, det: DetectorParams, *,
               rng: Optional[np.random.Generator] = None,
               k_max: Optional[int] = None, tail: float = 1e-12):
    """Indirect photon-number readout of one beam.

    Returns a list of (PovmOutcome, post-state) pairs covering the full
    outcome alphabet {vacuum, peak k, ambiguous} (probabilities sum to 1),
    or, with `rng`, the one pair a `draw_index` over them picks.  The
    measured beam is removed; each branch is reweighted by the root of its
    POVM response.  An outcome of probability 1e-300 or less has no
    post-state (None).
    """
    analysis = _qnd_analysis(state, beam, det, k_max, tail)
    probs = [max(p, 0.0) for p in analysis.probs]

    def result(i: int):
        tag, k = analysis.outcomes[i]
        post = (_normalized_post(analysis.weighted_post(state, beam, i), probs[i])
                if probs[i] > _QND_FLOOR else None)
        return PovmOutcome(tag=tag, k=k, probability=probs[i]), post

    if rng is not None:
        return result(draw_index(probs, rng))
    return [result(i) for i in range(len(probs))]


# -- readout of a coherent signal ---------------------------------------------

def misclassification_probability(det: DetectorParams, signal_mean: float,
                                  k_max: Optional[int] = None,
                                  tail: float = 1e-12) -> float:
    """P(readout label ≠ true Fock n) for a coherent signal of given mean.

    The correct label for n = 0 is the vacuum response and for n ≥ 1 the
    k = n peak; residual Poisson mass beyond k_max counts as error.
    """
    n_max = poisson_cutoff(signal_mean, tail)
    k_max, resp = _response_table(det, n_max, k_max)
    resp = resp.tolist()
    return 1.0 - sum(poisson_pmf(n, signal_mean) * resp[n][n]
                     for n in range(min(n_max, k_max) + 1))


def simulate_readout(det: DetectorParams, signal_mean: float, shots: int,
                     rng: np.random.Generator, k_max: Optional[int] = None,
                     tail: float = 1e-12) -> list[tuple[int, str, Optional[int]]]:
    """Monte-Carlo (true n, outcome tag, outcome k) triples for a coherent
    signal: latent Fock draws followed by detector responses."""
    n_max = poisson_cutoff(signal_mean, tail)
    k_max, resp = _response_table(det, n_max, k_max)
    resp = resp.tolist()
    keys = outcome_keys(k_max)
    pois = [poisson_pmf(n, signal_mean) for n in range(n_max + 1)]
    records = []
    for _ in range(shots):
        n = draw_index(pois, rng)
        o = keys[draw_index(resp[n], rng)]
        records.append((n, o[0], o[1]))
    return records


# -- detection-error formulas ---------------------------------------------------

def signal_mean_from_gate(alpha: float, theta: float) -> float:
    """|β|² of the measured qubus component, with β = i√2·α·sinθ."""
    return 2.0 * (alpha * math.sin(theta)) ** 2


def detection_error_exact(alpha: float, theta: float, det: DetectorParams,
                          tail: float = 1e-15) -> float:
    """Probability that a nonzero-n signal is reported as vacuum.

    Exact summation of Σ_{n≥1} Pois(n; |β|²) · e^{−η|γ|²(1−cos nθp)} with
    the Poisson tail below `tail`.  The n = 0 term is a correct
    classification, not an error, so it is excluded; θ = 0 therefore gives 0.
    A signal above `_MAX_MEAN` mean photons, or not finite, raises
    PreconditionViolation, as a readout of such a beam does.
    """
    amp = alpha * math.sin(theta)
    if not 2.0 * amp * amp <= _MAX_MEAN:
        raise PreconditionViolation(
            f"the signal holds more than {_MAX_MEAN:g} photons on average")
    mean = signal_mean_from_gate(alpha, theta)
    if mean == 0:
        return 0.0
    n_max = poisson_cutoff(mean, tail)
    total = 0.0
    for n in range(1, n_max + 1):
        total += poisson_pmf(n, mean) * math.exp(-det.eta * peak_mean(det, n))
    return total


def vacuum_response_probability(alpha: float, theta: float, det: DetectorParams,
                                tail: float = 1e-15) -> float:
    """Σ_{n≥0} Pois(n; |β|²) · e^{−η|γ|²(1−cos nθp)}: the total probability
    that the detector stays silent on the ±β signal, i.e. the n = 0 term
    e^{−|β|²} (a correct classification) plus `detection_error_exact`."""
    return (math.exp(-signal_mean_from_gate(alpha, theta))
            + detection_error_exact(alpha, theta, det, tail))


def detection_error_eq11(alpha: float, theta: float, det: DetectorParams) -> float:
    """Closed-form approximation exp{−2(1−e^{−ηγ²θp²/2})·α²sin²θ}.

    It equals Σ_{n≥0} Pois(n; |β|²)·e^{−nηγ²θp²/2}: the sum in
    `detection_error_exact` with the detector exponent |γ|²(1−cos nθp)
    linearized to n|γ|²θp²/2 (n² → n) and the n = 0 term kept.  It is
    therefore an upper bound on the exact error while the Poisson mass stays
    at nθp ≤ π and θp is small enough for the n = 0 term to cover the n = 1
    excess (1−cos θp < θp²/2); past nθp = π the probe phase revives and the
    bound fails.  It is not a two-sided approximation at moderate |α|sinθ:
    at |α|sinθ = 2 it is 5–16× the exact error.  Degenerates to 1 at θ = 0
    (the exact error is 0 there); useful only in the near-deterministic
    regime |α|sinθ ≫ 1.
    """
    inner = 1.0 - math.exp(-0.5 * det.eta * det.gamma ** 2 * det.theta_p ** 2)
    return math.exp(-2.0 * inner * (alpha * math.sin(theta)) ** 2)
