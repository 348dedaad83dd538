import math

import numpy as np
import pytest

from qubusim import detection, gates
from qubusim.detection import (
    AMBIGUOUS,
    PEAK,
    VACUUM,
    DetectorParams,
    PovmBins,
    _fock_amp,
    _fock_density,
    _qnd_analysis,
    detection_error_eq11,
    detection_error_exact,
    draw_index,
    enumerate_fock_outcomes,
    misclassification_probability,
    outcome_keys,
    peak_mean,
    poisson_cutoff,
    poisson_pmf,
    povm_bins,
    povm_diagonals,
    qnd_detect,
    read_beam,
    response_matrix,
    sample_fock,
    simulate_readout,
    vacuum_response_probability,
)
from qubusim.errors import BinsOverlap, CutoffTooSmall, PreconditionViolation
from qubusim.state import Branch, HybridState, coherent_overlap, product_state


def two_component_state(beta: float, quiet_amp: complex, live_amp: complex,
                        second_beam=None):
    """Quiet branch (vacuum beam) vs live branch (|±β⟩) in distinct configs."""
    q2 = () if second_beam is None else (second_beam,)
    branches = (
        Branch(quiet_amp, ((0, 0),), (0j,) + q2),
        Branch(live_amp / math.sqrt(2), ((1, 0),), (beta,) + q2),
        Branch(live_amp / math.sqrt(2), ((2, 0),), (-beta,) + q2),
    )
    return HybridState(("p",), frozenset({0, 1, 2}), 1 + len(q2), branches)


class TestEnumerateFock:
    def test_interference_style_distribution(self):
        # quiet amplitude 1/√2, ±β components 1/2 each with |β|² = 4
        beta = 2.0
        st = two_component_state(beta, 1 / math.sqrt(2), 1 / math.sqrt(2))
        outs = enumerate_fock_outcomes(st, 0, tail=1e-14)
        probs = {n: p for n, p, _ in outs}
        assert probs[0] == pytest.approx((1 + math.exp(-4)) / 2, abs=1e-9)
        assert probs[0] == pytest.approx(0.509158, abs=1e-6)
        for n in range(1, 8):
            assert probs[n] == pytest.approx(poisson_pmf(n, 4.0) / 2, abs=1e-12)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_beam_is_deterministic(self):
        st = product_state([("p", 0, "+")], beams=[0.0])
        outs = enumerate_fock_outcomes(st, 0)
        assert len(outs) == 1
        n, p, post = outs[0]
        assert (n, p) == (0, pytest.approx(1.0))
        assert post.n_beams == 0
        assert len(post.branches) == 2  # photon state untouched

    def test_cutoff_too_small(self):
        st = product_state([("p", 0, "H")], beams=[3.0])
        with pytest.raises(CutoffTooSmall):
            enumerate_fock_outcomes(st, 0, cutoff=2)

    def test_vacuum_pointer_drops_leakage(self):
        beta = 1.0
        st = two_component_state(beta, 1 / math.sqrt(2), 1 / math.sqrt(2))
        honest = enumerate_fock_outcomes(st, 0, tail=1e-12)[0]
        pointer = enumerate_fock_outcomes(st, 0, tail=1e-12, vacuum_pointer=True)[0]
        assert honest[1] == pytest.approx(pointer[1])  # same Born probability
        assert len(honest[2].branches) == 3
        assert len(pointer[2].branches) == 1


class TestSampleFock:
    def test_deterministic_beam(self):
        st = product_state([("p", 0, "H")], beams=[0.0])
        n, post = sample_fock(st, 0, np.random.default_rng(1))
        assert n == 0

    def test_reproducible_for_fixed_seed(self):
        st = product_state([("p", 0, "H")], beams=[1.3])
        a = sample_fock(st, 0, np.random.default_rng(7))
        b = sample_fock(st, 0, np.random.default_rng(7))
        assert a[0] == b[0]
        assert a[1].branches == b[1].branches

    def test_matches_enumeration_statistically(self):
        beta = 2.0
        st = two_component_state(beta, 1 / math.sqrt(2), 1 / math.sqrt(2))
        outs = enumerate_fock_outcomes(st, 0, tail=1e-12)
        probs = np.array([p for _, p, _ in outs])
        rng = np.random.default_rng(5)
        shots = 100_000
        counts = np.zeros(len(probs))
        for i in np.searchsorted(np.cumsum(probs), rng.random(shots)):
            counts[min(i, len(probs) - 1)] += 1
        # 3σ multinomial agreement on every outcome
        for k in range(len(probs)):
            sigma = math.sqrt(max(shots * probs[k] * (1 - probs[k]), 1.0))
            assert abs(counts[k] - shots * probs[k]) <= 3 * sigma
        # the scalar sampler draws from the same distribution
        small = [sample_fock(st, 0, np.random.default_rng(100 + i))[0]
                 for i in range(2000)]
        p0 = probs[0]
        got = sum(1 for n in small if n == 0) / 2000
        assert abs(got - p0) <= 3 * math.sqrt(p0 * (1 - p0) / 2000)


def non_class_state(z: complex):
    """A beam at 0, z and iz in three photon configurations: not a ±z bus."""
    branches = (
        Branch(0.6, ((0, 0),), (0j,)),
        Branch(0.48, ((1, 0),), (z,)),
        Branch(0.64j, ((2, 0),), (1j * z,)),
    )
    return HybridState(("p",), frozenset({0, 1, 2}), 1, branches)


def overlapping_state():
    """One photon configuration over three signal amplitudes, with a second
    beam whose overlaps between the branches are neither 0 nor 1."""
    config = ((0, 0),)
    return HybridState(("p",), frozenset({0}), 2, (
        Branch(0.5, config, (0j, 0.3)),
        Branch(0.6j, config, (1.2j, 0.1 - 0.2j)),
        Branch(-0.4 + 0.3j, config, (-1.2j, 0.5j)),
        Branch(0.2, ((0, 1),), (1.2j, 0.3)),
    )).normalized()


FAST_PATH_STATES = [
    *[pytest.param(two_component_state(math.sqrt(mean), 0.6, 0.8), id=f"pm-z-{mean}")
      for mean in (0.08, 1.0, 8.0, 80.0, 800.0)],
    *[pytest.param(non_class_state(z), id=f"0-z-iz-{abs(z) ** 2:g}")
      for z in (0.3 + 0.1j, 2.0, 9.0 - 3.0j)],
    pytest.param(overlapping_state(), id="overlapping"),
]


class TestSampleFockFastPath:
    """`sample_fock` against an inverse-CDF draw over the per-n records."""

    @pytest.mark.parametrize("vacuum_pointer", [False, True])
    @pytest.mark.parametrize("state", FAST_PATH_STATES)
    def test_same_draw_and_post_state_as_enumeration(self, state, vacuum_pointer):
        outs = enumerate_fock_outcomes(state, 0, vacuum_pointer=vacuum_pointer)
        probs = [p for _, p, _ in outs]
        drawn = set()
        for seed in range(40):
            want_n, _, want_post = outs[draw_index(probs, np.random.default_rng(seed))]
            n, post = sample_fock(state, 0, np.random.default_rng(seed),
                                  vacuum_pointer=vacuum_pointer)
            assert n == want_n
            assert post == want_post
            drawn.add(n)
        assert len(drawn) > 1 or len(outs) == 1

    @pytest.mark.parametrize("state", FAST_PATH_STATES)
    def test_density_matches_the_per_n_probabilities(self, state):
        n_max = max(poisson_cutoff(abs(br.qubus[0]) ** 2, 1e-12)
                    for br in state.branches)
        # the Born norm of each per-n collapse, apart from `_fock_density`
        per_n = {n: p for n in range(n_max + 1)
                 if (p := detection._fock_collapse(state, 0, n, False)[1]) > 0}
        amps, fock, density = _fock_density(state, 0, n_max)
        assert set(amps) == {br.qubus[0] for br in state.branches}
        assert fock.shape == (len(amps), n_max + 1)
        assert max(per_n) <= n_max
        for n in range(n_max + 1):
            assert abs(density[n] - per_n.get(n, 0.0)) <= 1e-12

    @pytest.mark.parametrize("cutoff", [None, 12, 30])
    def test_cutoff_sets_the_range_as_in_enumeration(self, cutoff):
        # at mean 1 the default range ends at 14; a cutoff of 12 passes the
        # 1e-9 tail check and truncates it
        state = two_component_state(1.0, 0.6, 0.8)
        outs = enumerate_fock_outcomes(state, 0, cutoff=cutoff)
        probs = [p for _, p, _ in outs]
        for seed in range(20):
            want_n, _, want_post = outs[draw_index(probs, np.random.default_rng(seed))]
            n, post = sample_fock(state, 0, np.random.default_rng(seed),
                                  cutoff=cutoff)
            assert (n, post) == (want_n, want_post)
        st = product_state([("p", 0, "H")], beams=[3.0])
        with pytest.raises(CutoffTooSmall):
            sample_fock(st, 0, np.random.default_rng(0), cutoff=2)

    def test_one_collapse_per_measured_beam(self, monkeypatch):
        # guards against a return of the per-n loop: a sampled CNOT at a
        # bus mean of about 184 collapses each bus once, at the drawn n
        calls = []
        collapse = detection._fock_collapse

        def counting(*args, **kwargs):
            calls.append(args)
            return collapse(*args, **kwargs)

        monkeypatch.setattr(detection, "_fock_collapse", counting)
        st = product_state([("C", 0, "+"), ("T", 1, "H")])
        for seed in range(3):
            calls.clear()
            res = gates.cnot(st, "C", "T", 20.0, 0.5,
                             mode=gates.SampleMode(np.random.default_rng(seed)))
            assert len(res.outcomes) == 1
            assert res.resources.c_path_count == res.resources.merging_count == 1
            assert len(calls) == 2


class TestPovmBins:
    def test_first_peak_straddles_mean(self):
        det = DetectorParams(eta=0.9, gamma=100.0, theta_p=0.1)
        bins = povm_bins(det, 3)
        mean1 = peak_mean(det, 1)
        assert mean1 == pytest.approx(49.958, abs=1e-3)
        k, lo, hi = bins.bins[1]
        assert k == 1 and lo <= mean1 <= hi

    def test_vacuum_bin_bounded_by_first_midpoint(self):
        det = DetectorParams(eta=0.9, gamma=100.0, theta_p=0.1)
        bins = povm_bins(det, 2)
        k, lo, hi = bins.bins[0]
        assert (k, lo) == (0, 0)
        assert hi == int(peak_mean(det, 1) / 2)

    def test_overlapping_peaks_rejected(self):
        det = DetectorParams(eta=0.9, gamma=10.0, theta_p=0.01)
        with pytest.raises(BinsOverlap):
            povm_bins(det, 2)

    def test_overflowing_probe_amplitude_rejected(self):
        det = DetectorParams(eta=0.9, gamma=1e308, theta_p=0.1)
        with pytest.raises(PreconditionViolation, match="overflows"):
            povm_bins(det, 2)

    def test_povm_completeness_and_positivity(self):
        det = DetectorParams(eta=0.9, gamma=100.0, theta_p=0.1)
        bins = povm_bins(det, 5)
        diags = povm_diagonals(det, bins, dim=800)
        total = diags["pi0"] + sum(diags["peaks"].values()) + diags["pie"]
        assert np.abs(total - 1.0).max() <= 1e-12
        assert diags["pie"].min() >= -1e-12
        assert diags["pi0"].min() >= 0


class TestQndDetect:
    def test_vacuum_signal_always_reports_vacuum(self):
        st = product_state([("p", 0, "H")], beams=[0.0])
        det = DetectorParams(eta=0.4, gamma=100.0, theta_p=0.1)
        results = qnd_detect(st, 0, det)
        probs = {(oc.tag, oc.k): oc.probability for oc, _ in results}
        assert probs[(VACUUM, None)] == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_probability_matches_direct_sum(self):
        # signal |β⟩ with |β|² = 2 against the response kernel
        beta = math.sqrt(2.0)
        det = DetectorParams(eta=0.9, gamma=100.0, theta_p=0.1)
        st = product_state([("p", 0, "H")], beams=[beta])
        results = qnd_detect(st, 0, det)
        probs = {(oc.tag, oc.k): oc.probability for oc, _ in results}
        expected = sum(
            poisson_pmf(n, 2.0)
            * math.exp(-det.eta * det.gamma ** 2 * (1 - math.cos(n * det.theta_p)))
            for n in range(60))
        assert probs[(VACUUM, None)] == pytest.approx(expected, abs=1e-12)

    def test_outcome_completeness(self):
        st = two_component_state(1.2, 0.8, 0.6, second_beam=1.0 + 0.5j)
        det = DetectorParams(eta=0.7, gamma=100.0, theta_p=0.1)
        results = qnd_detect(st, 0, det)
        total = sum(oc.probability for oc, _ in results)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_high_quality_readout_matches_truth(self):
        det = DetectorParams(eta=1.0, gamma=2000.0, theta_p=0.1)
        p_err = misclassification_probability(det, signal_mean=2.0)
        assert p_err <= 1e-6

    def test_sampled_errors_within_three_sigma(self):
        # a marginal detector (low efficiency, scarcely separated peaks) so
        # misclassifications actually occur at this shot count
        det = DetectorParams(eta=0.3, gamma=40.0, theta_p=0.15)
        p_err = misclassification_probability(det, signal_mean=2.0, k_max=8)
        assert p_err > 1e-4
        rng = np.random.default_rng(11)
        shots = 20_000
        records = simulate_readout(det, 2.0, shots, rng, k_max=8)
        wrong = 0
        for n, tag, k in records:
            ok = (tag == VACUUM and n == 0) or (tag == PEAK and k == n)
            wrong += 0 if ok else 1
        sigma = math.sqrt(shots * p_err * (1 - p_err))
        assert wrong > 0
        assert abs(wrong - shots * p_err) <= 3 * sigma


class TestDetectionError:
    def test_zero_theta_means_no_error(self):
        det = DetectorParams(eta=0.5, gamma=100.0, theta_p=0.02)
        assert detection_error_exact(50.0, 0.0, det) == 0.0

    def test_spot_values(self):
        det = DetectorParams(eta=0.5, gamma=100.0, theta_p=0.02)
        # independent direct summation, frozen
        mu = 2 * (50 * math.sin(0.02)) ** 2
        expected = sum(
            poisson_pmf(n, mu) * math.exp(-0.5 * 1e4 * (1 - math.cos(0.02 * n)))
            for n in range(1, 200))
        got = detection_error_exact(50.0, 0.02, det)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.1045732, abs=1e-6)
        # the total silent-response weight includes the correct n = 0 share
        assert vacuum_response_probability(50.0, 0.02, det) == pytest.approx(
            0.2399446, abs=1e-6)
        # closed form by direct substitution (0.2824 with sinθ ≈ θ)
        assert detection_error_eq11(50.0, 0.02, det) == pytest.approx(
            0.2825012, abs=1e-6)
        assert detection_error_eq11(50.0, 0.02, det) == pytest.approx(
            0.2824, abs=2e-4)

    def test_eq11_degenerates_at_zero_theta(self):
        det = DetectorParams(eta=0.5, gamma=100.0, theta_p=0.02)
        assert detection_error_eq11(50.0, 0.0, det) == pytest.approx(1.0)

    def test_perfect_probe_limit(self):
        det = DetectorParams(eta=1.0, gamma=4000.0, theta_p=0.02)
        assert detection_error_exact(50.0, 0.02, det) <= 1e-12

    def test_monotone_in_eta_and_gamma(self):
        base = dict(alpha=100.0, theta=0.01)
        last = None
        for eta in (0.2, 0.4, 0.6, 0.8, 1.0):
            det = DetectorParams(eta=eta, gamma=100.0, theta_p=0.01)
            err = detection_error_exact(base["alpha"], base["theta"], det)
            if last is not None:
                assert err <= last + 1e-15
            last = err
        last = None
        for gamma in (50.0, 100.0, 200.0, 400.0):
            det = DetectorParams(eta=0.5, gamma=gamma, theta_p=0.01)
            err = detection_error_exact(base["alpha"], base["theta"], det)
            if last is not None:
                assert err <= last + 1e-15
            last = err

    def test_near_deterministic_regime(self):
        # α·sinθ ≥ 3 with η·γ²·θp² ≥ 2 pushes both errors below e^{-10}
        theta = 0.02
        det = DetectorParams(eta=0.5, gamma=100.0, theta_p=0.02)
        alpha = 3.0 / math.sin(theta)
        bound = math.exp(-10)
        assert detection_error_exact(alpha, theta, det) <= bound
        assert detection_error_eq11(alpha, theta, det) <= bound

    def test_ratio_landscape_against_closed_form(self):
        # frozen from the direct summation: the closed form tracks the exact
        # error to within a factor ~2 at α·sinθ = 1 but overestimates by an
        # order of magnitude at α·sinθ = 2 (its exponent replaces n² by n)
        det_half = DetectorParams(eta=0.5, gamma=100.0, theta_p=0.01)
        det_two = DetectorParams(eta=0.5, gamma=100.0, theta_p=0.02)
        grid = {}
        for theta in (0.01, 0.02):
            for asin in (1.0, 2.0):
                alpha = asin / math.sin(theta)
                for det in (det_half, det_two):
                    c = 0.5 * det.eta * det.gamma ** 2 * det.theta_p ** 2
                    exact = detection_error_exact(alpha, theta, det)
                    approx = detection_error_eq11(alpha, theta, det)
                    grid[(asin, c)] = exact / approx
        assert grid[(1.0, 0.25)] == pytest.approx(0.515, abs=2e-3)
        assert grid[(1.0, 1.0)] == pytest.approx(0.370, abs=2e-3)
        assert grid[(2.0, 0.25)] == pytest.approx(0.060, abs=2e-3)
        assert grid[(2.0, 1.0)] == pytest.approx(0.187, abs=2e-3)


class TestDrawIndex:
    def test_frequencies(self):
        rng = np.random.default_rng(0)
        probs = [0.2, 0.5, 0.3]
        counts = [0, 0, 0]
        shots = 100_000
        for _ in range(shots):
            counts[draw_index(probs, rng)] += 1
        for k, p in enumerate(probs):
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(counts[k] - shots * p) <= 3 * sigma


class TestPoissonCutoff:
    @pytest.mark.parametrize("mean", [8.0, 50.0, 200.0])
    def test_cutoff_is_where_the_summed_tail_drops_below(self, mean):
        def tail_above(n):
            return math.fsum(poisson_pmf(k, mean) for k in range(n + 1, n + 400))

        n = poisson_cutoff(mean, 1e-15)
        assert tail_above(n) < 1e-15 <= tail_above(n - 1)

    def test_cutoffs_of_the_shipped_means_stay(self):
        # the gate means of circuits/*.json and of the benchmark workloads
        expected = {1.034: 14, 1.839: 18, 183.88: 287, 199.99: 307,
                    0.0004: 3, 0.0008: 3, 0.08: 7}
        assert {m: poisson_cutoff(m, 1e-12) for m in expected} == expected


# -- the array response against the term-by-term sums it replaced ------------

def reference_response_weights(det, bins, probe_mean):
    """P(outcome | probe mean) summed one Poisson term at a time, the
    ambiguous weight taken as the complement."""
    w = {(VACUUM, None): math.exp(-det.eta * probe_mean)}
    total = w[(VACUUM, None)]
    for k, lo, hi in bins.bins[1:]:
        if probe_mean > 0:
            sigma = math.sqrt(probe_mean)
            lo_eff = max(lo, int(probe_mean - 40 * sigma - 10))
            hi_eff = min(hi, int(probe_mean + 40 * sigma + 10))
        else:
            lo_eff, hi_eff = lo, hi
        s = 0.0
        for mm in range(lo_eff, hi_eff + 1):
            s += poisson_pmf(mm, probe_mean) * (1.0 - (1.0 - det.eta) ** mm)
        w[(PEAK, k)] = s
        total += s
    w[(AMBIGUOUS, None)] = max(0.0, 1.0 - total)
    return w


def reference_qnd_analysis(state, beam, det, k_max, tail):
    """Outcome probabilities and response roots by the pairwise loop over
    branches, outcomes and photon numbers."""
    n_max = max((poisson_cutoff(abs(br.qubus[beam]) ** 2, tail)
                 for br in state.branches), default=0)
    if k_max is None:
        k_max = max(n_max, 1)
    bins = povm_bins(det, k_max)
    resp = [reference_response_weights(det, bins, peak_mean(det, n))
            for n in range(n_max + 1)]
    outcomes = list(resp[0])
    probs = {o: 0.0 for o in outcomes}
    for bi in state.branches:
        for bj in state.branches:
            if bi.config != bj.config:
                continue
            ov = bj.amp.conjugate() * bi.amp
            for c, (qa, qb) in enumerate(zip(bj.qubus, bi.qubus)):
                if c != beam:
                    ov *= coherent_overlap(qa, qb)
            for o in outcomes:
                s = 0j
                for n in range(n_max + 1):
                    s += (_fock_amp(bi.qubus[beam], n)
                          * _fock_amp(bj.qubus[beam], n).conjugate() * resp[n][o])
                probs[o] += (ov * s).real
    roots = {br.qubus[beam]: [math.sqrt(max(sum(
        abs(_fock_amp(br.qubus[beam], n)) ** 2 * resp[n][o]
        for n in range(n_max + 1)), 0.0)) for o in outcomes]
        for br in state.branches}
    return probs, roots


def midpoint_bins(det, k_max):
    """`povm_bins`' midpoint placement without its 3σ guard, so that every
    detector of the grid below has bins."""
    means = [peak_mean(det, k) for k in range(k_max + 2)]
    bounds = [int(0.5 * (means[k] + means[k + 1])) for k in range(k_max + 1)]
    bins = [(0, 0, bounds[0])] + [(k, bounds[k - 1] + 1, bounds[k])
                                  for k in range(1, k_max + 1)]
    return PovmBins(gamma=det.gamma, theta_p=det.theta_p, bins=tuple(bins))


DETECTOR_GRID = [(eta, gamma, theta_p) for eta in (0.3, 0.9, 1.0)
                 for gamma in (40.0, 100.0, 200.0) for theta_p in (0.1, 0.15)]


class TestResponseArrays:
    @pytest.mark.parametrize("eta,gamma,theta_p", DETECTOR_GRID)
    def test_rows_match_the_term_by_term_sum(self, eta, gamma, theta_p):
        # every n up to the cutoff of a mean-2 signal; probe means reach 8e4
        det = DetectorParams(eta, gamma, theta_p)
        n_max = poisson_cutoff(2.0, 1e-12)
        k_max = min(n_max, int(math.pi / theta_p) - 1)
        bins = midpoint_bins(det, k_max)
        got = response_matrix(det, bins, n_max)
        assert got.shape == (n_max + 1, k_max + 2)
        for n in range(n_max + 1):
            want = reference_response_weights(det, bins, peak_mean(det, n))
            assert list(want) == outcome_keys(k_max)
            assert got[n].tolist() == pytest.approx(list(want.values()), abs=1e-9)

    @pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
    def test_ambiguous_weight_sums_the_uncovered_photon_numbers(self, eta):
        det = DetectorParams(eta, 200.0, 0.1)
        bins = povm_bins(det, 12)
        below, above = bins.bins[1][1], bins.bins[-1][2] + 1
        resp = response_matrix(det, bins, 12)
        for n in range(13):
            mean = peak_mean(det, n)
            top = int(mean + 50 * math.sqrt(mean) + 50)
            want = math.fsum(poisson_pmf(m, mean) * (1.0 - (1.0 - eta) ** m)
                             for m in [*range(1, below), *range(above, top)])
            assert abs(resp[n, -1] - want) <= 1e-13
            assert resp[n, -1] == pytest.approx(want, rel=1e-8, abs=0)

    def test_ambiguous_weight_spot_values(self):
        # 50-digit sums over the uncovered photon numbers; the complement
        # 1 − Σ(other outcomes) read 0, 4.3e-12 and 1.4e-11 here
        det = DetectorParams(0.9, 200.0, 0.1)
        resp = response_matrix(det, povm_bins(det, 12), 12)
        assert resp[1, -1] == pytest.approx(2.00726165525e-15, rel=1e-9, abs=0)
        assert resp[6, -1] == 0.0
        assert resp[12, -1] == pytest.approx(4.20818524906e-32, rel=1e-9, abs=0)


class TestQndAnalysisArrays:
    @staticmethod
    def recorded_readouts(monkeypatch, gate, alpha, gamma):
        """The (state, beam, det, k_max, tail) of every QND readout of a gate."""
        seen = []

        def recording(state, beam, det=None, **kw):
            if det is not None:
                seen.append((state, beam, det, kw["k_max"], kw["tail"]))
            return read_beam(state, beam, det, **kw)

        monkeypatch.setattr(gates, "read_beam", recording)
        st = product_state([("C", 0, "+"), ("T", 1, {"H": 0.6, "V": 0.8j})])
        det = DetectorParams(0.9, gamma, 0.1)
        getattr(gates, gate)(st, "C", "T", alpha, 0.5, mode=gates.QndMode(det))
        assert seen
        return seen

    @staticmethod
    def assert_matches_reference(args):
        got = _qnd_analysis(*args)
        probs, roots = reference_qnd_analysis(*args)
        assert got.outcomes == list(probs)
        assert got.probs == pytest.approx(list(probs.values()), abs=1e-12)
        # compare the squared roots: a root magnifies the rounding noise
        # that the reference's complement Π_E carries
        assert set(got.roots) == set(roots)
        for amp, want in roots.items():
            assert [r * r for r in got.roots[amp]] == pytest.approx(
                [r * r for r in want], abs=1e-12)

    @pytest.mark.parametrize("gate,alpha,gamma",
                             [("cnot", 1.5, 200.0), ("cz", 2.0, 100.0)])
    def test_gate_states_match_the_pairwise_loop(self, monkeypatch, gate,
                                                 alpha, gamma):
        for args in self.recorded_readouts(monkeypatch, gate, alpha, gamma):
            self.assert_matches_reference(args)

    def test_cross_terms_match_the_pairwise_loop(self):
        det = DetectorParams(eta=0.7, gamma=100.0, theta_p=0.1)
        self.assert_matches_reference((overlapping_state(), 0, det, 6, 1e-12))


class TestQndSample:
    @pytest.mark.parametrize("alpha,gamma", [(1.5, 200.0), (2.0, 100.0)])
    def test_same_draw_and_post_state_as_enumeration(self, monkeypatch, alpha,
                                                     gamma):
        readouts = TestQndAnalysisArrays.recorded_readouts(
            monkeypatch, "cnot", alpha, gamma)
        for state, beam, det, k_max, tail in readouts:
            enumerated = qnd_detect(state, beam, det, k_max=k_max, tail=tail)
            probs = [oc.probability for oc, _ in enumerated]
            for seed in range(20):
                want = enumerated[draw_index(probs, np.random.default_rng(seed))]
                got = qnd_detect(state, beam, det, rng=np.random.default_rng(seed),
                                 k_max=k_max, tail=tail)
                assert got == want
