import math

import numpy as np
import pytest

from qubusim.detection import (
    PEAK,
    VACUUM,
    DetectorParams,
    detection_error_eq11,
    detection_error_exact,
    draw_index,
    enumerate_fock_outcomes,
    misclassification_probability,
    peak_mean,
    poisson_cutoff,
    poisson_pmf,
    povm_bins,
    povm_diagonals,
    qnd_detect,
    sample_fock,
    simulate_readout,
    vacuum_response_probability,
)
from qubusim.errors import BinsOverlap, CutoffTooSmall
from qubusim.state import Branch, HybridState, product_state


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
