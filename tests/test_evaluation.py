"""Tests for truth regions, outcome accounting, and the simulation harness."""

import concurrent.futures
import dataclasses
import math
import os

import numpy as np
import pytest

from peaksig import (
    DEFAULT_BANDWIDTH_GRID,
    Candidates,
    DetectionResult,
    DetectorConfig,
    Grid,
    NoiseSpec,
    SignalSpec,
    SimConfig,
    SpectralMoments,
    bonferroni,
    classify,
    matched_filter_objective,
    optimal_gamma,
    replication_seed,
    run_simulation,
    standard_design,
    truth_regions,
)

ONE_PEAK = SignalSpec(peaks=((10.0, 50.0),), peak_scale=3.0, peak_truncation=2.0)


def fake_result(times, rejected):
    n = len(times)
    candidates = Candidates(
        index=np.arange(n),
        time=times,
        height=np.zeros(n),
        p_value=np.full(n, 0.5),
        rejected=rejected,
    )
    return DetectionResult(
        candidates=candidates,
        decision=bonferroni([], 0.05),
        moments_used=SpectralMoments(1.0, 0.5, 1.0),
        boundary_excluded=0,
        config=DetectorConfig(gamma=3.0),
    )


class TestTruthRegions:
    def test_single_peak_regions(self):
        # b = 3, c_h = 2: support [44, 56].
        r = truth_regions(ONE_PEAK, (0.0, 100.0))
        assert r.signal_region.tolist() == [[44.0, 56.0]]
        assert r.rejection_regions.tolist() == [[44.0, 56.0]]
        assert r.peak_supports.tolist() == [[44.0, 56.0]]
        assert r.num_peaks == 1

    def test_overlapping_supports_split_at_midpoint(self):
        two = SignalSpec(peaks=((1.0, 0.0), (1.0, 10.0)), peak_scale=3.0)
        r = truth_regions(two, (-6.0, 16.0))
        assert r.peak_supports.tolist() == [[-6.0, 6.0], [4.0, 16.0]]
        assert r.signal_region.tolist() == [[-6.0, 16.0]]
        assert r.rejection_regions.tolist() == [[-6.0, 5.0], [5.0, 16.0]]

    def test_peak_outside_window_dropped(self):
        spec = SignalSpec(peaks=((1.0, 50.0), (1.0, 500.0)), peak_scale=3.0)
        r = truth_regions(spec, (0.0, 100.0))
        assert r.num_peaks == 1

    def test_per_peak_rows_stay_aligned_when_credit_leaves_window(self):
        # Peak -5's support [-11, 1] meets the window, but its credit
        # [-11, -4] (split at the midpoint to peak -3) does not: the peak
        # drops from both per-peak arrays.
        spec = SignalSpec(
            peaks=((1.0, -5.0), (1.0, -3.0), (1.0, 50.0)),
            peak_scale=3.0,
            peak_truncation=2.0,
        )
        r = truth_regions(spec, (0.0, 100.0))
        assert r.num_peaks == 2
        assert r.rejection_regions.tolist() == [[0.0, 3.0], [44.0, 56.0]]
        assert r.peak_supports.tolist() == [[0.0, 3.0], [44.0, 56.0]]
        assert r.signal_region.tolist() == [[0.0, 3.0], [44.0, 56.0]]
        # Two candidates on peak 50 count as that peak's multiple maxima.
        rc = classify(fake_result([45.0, 50.0], [False, False]), r)
        assert rc.multi_max_peaks == 1
        rc = classify(fake_result([0.5, 2.5], [True, False]), r)
        assert (rc.multi_max_peaks, rc.detected_peaks, rc.true_rejections) == (1, 1, 1)

    def test_unsorted_peaks_handled(self):
        spec = SignalSpec(peaks=((1.0, 70.0), (1.0, 30.0)), peak_scale=3.0)
        r = truth_regions(spec, (0.0, 100.0))
        assert r.peak_supports[0, 0] < r.peak_supports[1, 0]

    def test_rejects_bad_inputs(self):
        for window in ((5.0, 5.0), (10.0, 5.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="window"):
                truth_regions(ONE_PEAK, window)

    def test_partition_invariants_on_random_layouts(self):
        rng = np.random.default_rng(55)
        window = (0.0, 200.0)
        for _ in range(25):
            k = int(rng.integers(1, 8))
            taus = np.sort(rng.uniform(5.0, 195.0, size=k))
            b = float(rng.uniform(1.0, 6.0))
            spec = SignalSpec(
                peaks=tuple((1.0, float(t)) for t in taus), peak_scale=b
            )
            r = truth_regions(spec, window)
            # The signal region is sorted, disjoint and inside the window.
            sr = r.signal_region
            assert np.all(sr[:, 0] <= sr[:, 1])
            assert np.all(sr[1:, 0] > sr[:-1, 1])
            assert sr[0, 0] >= window[0] and sr[-1, 1] <= window[1]
            # Rejection regions tile the signal region: disjoint interiors,
            # same total length, same span per merged component.
            sig_len = np.diff(sr, axis=1).sum()
            rr = r.rejection_regions
            assert np.all(rr[1:, 0] >= rr[:-1, 1] - 1e-12)
            assert np.isclose(np.diff(rr, axis=1).sum(), sig_len)
            for lo, hi in sr:
                inside = rr[(rr[:, 0] >= lo) & (rr[:, 1] <= hi)]
                assert inside[0, 0] == lo and inside[-1, 1] == hi


class TestClassify:
    REGIONS = truth_regions(ONE_PEAK, (0.0, 100.0))

    def test_mixed_outcome(self):
        rc = classify(fake_result([10.0, 50.0, 70.0], [True, True, False]), self.REGIONS)
        assert rc.rejections == 2
        assert rc.false_rejections == 1
        assert rc.true_rejections == 1
        assert rc.detected_peaks == 1
        assert rc.num_tests == 3
        assert rc.num_signal_tests == 1
        assert rc.num_null_tests == 2
        assert rc.multi_max_peaks == 0

    def test_no_rejections(self):
        rc = classify(fake_result([10.0, 50.0], [False, False]), self.REGIONS)
        assert rc.rejections == 0
        assert rc.false_rejections == 0
        assert rc.detected_peaks == 0

    def test_two_candidates_on_one_peak(self):
        # Both count as true rejections but the peak is detected once,
        # and it carries a multiple-maximum event.
        rc = classify(fake_result([48.0, 52.0], [True, True]), self.REGIONS)
        assert rc.true_rejections == 2
        assert rc.detected_peaks == 1
        assert rc.multi_max_peaks == 1

    def test_multi_max_counts_candidates_not_rejections(self):
        rc = classify(fake_result([48.0, 52.0], [False, False]), self.REGIONS)
        assert rc.multi_max_peaks == 1
        assert rc.detected_peaks == 0

    def test_transition_zone_counts_false(self):
        # Near the support, where smoothing spreads the peak, but outside it: false.
        rc = classify(fake_result([40.0], [True]), self.REGIONS)
        assert rc.false_rejections == 1
        assert rc.detected_peaks == 0

    def test_empty_result(self):
        rc = classify(fake_result([], []), self.REGIONS)
        assert rc.num_tests == 0
        assert rc.num_peaks == 1


class TestReplicationSeed:
    def test_deterministic(self):
        assert replication_seed(7, 3) == replication_seed(7, 3)

    def test_distinct_across_reps_and_bases(self):
        seeds = {replication_seed(b, r) for b in range(3) for r in range(200)}
        assert len(seeds) == 600


class TestStandardDesign:
    def test_default_window_length(self):
        # 20 peaks of support width 12 at spacing 100: union 240; at
        # signal fraction 0.12 the window is 2000 samples.
        config = standard_design()
        assert config.grid.length == 2000
        assert config.signal.peaks[0] == (10.0, 50.0)
        assert config.signal.peaks[-1] == (10.0, 1950.0)
        assert config.signal.peaks[1][1] - config.signal.peaks[0][1] == 100.0

    def test_overlapping_design_shrinks_window(self):
        # Spacing 9 < width 12: union 240 - 19 * 3 = 183 -> 1525 samples.
        config = standard_design(peak_spacing=9.0)
        assert config.grid.length == 1525
        taus = [tau for _, tau in config.signal.peaks]
        assert taus[0] == pytest.approx(4.5)
        assert taus[1] == pytest.approx(13.5)

    def test_signal_fraction_preserved(self):
        for spacing in (100.0, 9.0, 6.0):
            config = standard_design(peak_spacing=spacing)
            width = 12.0
            union = 20 * width - 19 * max(0.0, width - spacing)
            assert config.grid.length == pytest.approx(union / 0.12, abs=0.5)

    def test_passthrough_options(self):
        config = standard_design(
            amplitude=15.0, nu=1.0, gammas=(2.0, 3.0), replications=50, base_seed=9
        )
        assert config.signal.peaks[0][0] == 15.0
        assert config.noise.nu == 1.0
        assert config.gammas == (2.0, 3.0)
        assert config.replications == 50
        assert config.base_seed == 9

    def test_whole_float_num_peaks_is_kept_as_int(self):
        assert standard_design(num_peaks=2.0) == standard_design(num_peaks=2)

    def test_study_fields_are_simconfig_defaults(self):
        config = standard_design()
        defaults = {
            f.name: f.default
            for f in dataclasses.fields(SimConfig)
            if f.default is not dataclasses.MISSING
        }
        assert defaults
        assert {name: getattr(config, name) for name in defaults} == defaults


class TestSimConfigValidation:
    def test_rejects_bad_values(self):
        base = standard_design(num_peaks=2, replications=4)
        with pytest.raises(ValueError):
            dataclasses.replace(base, gammas=())
        with pytest.raises(ValueError):
            dataclasses.replace(base, gammas=(0.0,))
        with pytest.raises(ValueError):
            dataclasses.replace(base, methods=("holm",))
        with pytest.raises(ValueError):
            dataclasses.replace(base, replications=0)
        with pytest.raises(ValueError):
            dataclasses.replace(base, workers=0)
        with pytest.raises(ValueError):
            dataclasses.replace(base, alpha=1.0)

    @pytest.mark.parametrize("seed", [1.5, -1, math.inf, math.nan])
    def test_base_seed_must_be_whole_and_non_negative(self, seed):
        with pytest.raises(ValueError, match="base_seed must be an integer >= 0"):
            standard_design(num_peaks=2, replications=4, base_seed=seed)

    @pytest.mark.parametrize(
        "layout, dropped",
        [
            ({"signal_fraction": 0.5}, 15),
            ({"peak_spacing": 200.0}, 10),
            ({"signal_fraction": 0.125}, 1),
        ],
    )
    def test_window_dropping_peaks_refused(self, layout, dropped):
        with pytest.raises(ValueError, match=f"the grid window drops {dropped} of 20 peaks"):
            standard_design(**layout)

    def test_explicit_peak_outside_grid_refused(self):
        signal = SignalSpec(((5.0, 50.0), (5.0, 500.0)))
        with pytest.raises(ValueError, match="the grid window drops 1 of 2 peaks"):
            SimConfig(signal, NoiseSpec(), Grid(200), (3.0,))

    @pytest.mark.parametrize(
        "noise, gammas", [(NoiseSpec(sigma=1e200), (3.0,)), (NoiseSpec(), (3.0, 1e-300))]
    )
    def test_model_moments_outside_float_range_refused(self, noise, gammas):
        signal = SignalSpec(((5.0, 50.0),))
        with pytest.raises(ValueError, match="outside the float range"):
            SimConfig(signal, noise, Grid(200), gammas)

    def test_subnormal_model_moments_refused(self):
        # At sigma = 2^-531, sigma2 is subnormal: its cells drifted from those
        # at sigma = 1, so the study is refused when it is built.
        with pytest.raises(ValueError, match="outside the float range"):
            standard_design(sigma=2**-531, amplitude=10 * 2**-531)

    def test_power_of_two_noise_scale_keeps_cells(self):
        # Each stage scales exactly, and the model moments at 2^-505 are normal.
        def cells(scale):
            design = standard_design(
                num_peaks=4, replications=40, base_seed=3, sigma=scale, amplitude=10 * scale
            )
            return run_simulation(design).cells

        assert cells(2.0**-505) == cells(1.0)

    @pytest.mark.parametrize(
        "layout",
        [{}, {"peak_spacing": 9.0}, {"nu": 1.0}, {"num_peaks": 3, "peak_spacing": 120.0}],
    )
    def test_designs_keeping_every_peak_accepted(self, layout):
        config = standard_design(**layout)
        window = (config.grid.origin, config.grid.times()[-1])
        assert truth_regions(config.signal, window).num_peaks == len(config.signal.peaks)

    def test_whole_float_base_seed_is_kept_as_int(self):
        config = standard_design(num_peaks=2, replications=4, base_seed=3.0)
        assert type(config.base_seed) is int and config.base_seed == 3


class TestRunSimulation:
    # Two peaks on a 200-sample window: cheap enough to rerun.
    CONFIG = standard_design(num_peaks=2, replications=12, base_seed=3)

    def test_report_shape_and_ranges(self):
        report = run_simulation(self.CONFIG)
        assert len(report.cells) == 2  # one gamma, two methods
        for cell in report.cells:
            for rate in (cell.fwer, cell.fdr, cell.power, cell.multi_max_prob):
                assert 0.0 <= rate <= 1.0
            # FDP <= 1{any false rejection} pathwise, so FDR <= FWER.
            assert cell.fdr <= cell.fwer + 1e-12
            assert cell.mean_rejections <= cell.mean_tests
            assert cell.mean_false_rejections + cell.mean_true_rejections == (
                pytest.approx(cell.mean_rejections)
            )

    def test_candidate_count_near_rice_rate(self):
        # Pure-noise candidate density at xi = 3 is about 0.065 per
        # sample; on 200 samples expect roughly 13 maxima.
        report = run_simulation(self.CONFIG)
        assert 8.0 < report.cells[0].mean_tests < 18.0

    def test_deterministic_rerun(self):
        a = run_simulation(self.CONFIG)
        b = run_simulation(self.CONFIG)
        assert a.cells == b.cells

    def test_worker_count_does_not_change_results(self):
        serial = run_simulation(self.CONFIG)
        parallel = run_simulation(dataclasses.replace(self.CONFIG, workers=2))
        assert serial.cells == parallel.cells

    @pytest.mark.parametrize(
        "cpus, workers, started",
        [(3, 5000, [3]), (64, 5000, [12]), (8, 2, [2]), (1, 4, [])],
        ids=["cpus", "blocks", "workers", "one-cpu"],
    )
    def test_processes_capped(self, monkeypatch, cpus, workers, started):
        # At most min(workers, blocks, usable CPUs) processes; no real one starts.
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = run_simulation(dataclasses.replace(self.CONFIG, workers=workers))
        assert pools == started
        assert report.cells == run_simulation(self.CONFIG).cells

    def test_cell_lookup(self):
        report = run_simulation(self.CONFIG)
        assert report.cell(3.0, "bh").method == "bh"
        with pytest.raises(KeyError):
            report.cell(9.9, "bh")

    def test_bh_power_at_least_bonferroni(self):
        report = run_simulation(
            standard_design(num_peaks=2, replications=40, base_seed=5)
        )
        assert report.cell(3.0, "bh").power >= report.cell(3.0, "bonferroni").power


class TestBandwidthSelection:
    def test_optimal_gamma_values(self):
        assert optimal_gamma(3.0, 0.0) == pytest.approx(3.0)
        assert optimal_gamma(3.0, 1.0) == pytest.approx(math.sqrt(7.0))
        assert optimal_gamma(3.0, 2.0) == pytest.approx(1.0)
        assert optimal_gamma(3.0, 3.0) == 0.0

    def test_objective_pinned_value(self):
        assert matched_filter_objective(3.0, 0.0, 3.0) == pytest.approx(
            0.3066457194515511, rel=1e-12
        )

    def test_objective_grid_argmax_matches_formula(self):
        grid = np.arange(0.01, 8.0, 0.01)
        for nu in (0.0, 1.0, 2.0):
            vals = [matched_filter_objective(3.0, nu, g) for g in grid]
            best = grid[int(np.argmax(vals))]
            assert best == pytest.approx(optimal_gamma(3.0, nu), abs=0.02)

    def test_objective_decreasing_when_no_optimum(self):
        # nu = b: smoothing only hurts, the objective falls monotonically.
        grid = np.arange(0.05, 6.0, 0.05)
        vals = [matched_filter_objective(3.0, 3.0, g) for g in grid]
        assert np.all(np.diff(vals) < 0)

    def test_objective_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            matched_filter_objective(3.0, 0.0, 0.0)

    def test_optimal_gamma_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            optimal_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            optimal_gamma(3.0, -1.0)

    def test_stock_bandwidth_grids(self):
        assert DEFAULT_BANDWIDTH_GRID[0] == 1.0
        assert DEFAULT_BANDWIDTH_GRID[-1] == 6.5
        assert len(DEFAULT_BANDWIDTH_GRID) == 12
