import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clickwitness.detectors import (
    CountDistribution,
    DetectorConfig,
    click_distribution,
    photo_distribution,
    pnr_distribution,
)
from clickwitness.sampler import (
    _CHUNK as CHUNK,
    empirical_witness,
    histogram_distribution,
    read_histogram,
    sample,
    splitmix64,
    uniform01,
    write_histogram,
)
from clickwitness.states import coherent_state, make_cat
from clickwitness.witnesses import (
    INDETERMINATE,
    NONCLASSICAL,
    NO_VIOLATION,
    count_matrix,
    enumerate_index_sets,
)

ONOFF5 = DetectorConfig.onoff(5, 0.5)


def scalar_splitmix(seed, count, start=0):
    """Pure-Python SplitMix64 reference, independent of the vectorized path."""
    mask = (1 << 64) - 1
    out = []
    for k in range(start + 1, start + count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestGenerator:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 42, 2 ** 63 + 11):
            got = splitmix64(seed, 10).tolist()
            assert got == scalar_splitmix(seed, 10)

    @pytest.mark.parametrize("start", [0, 1, 2 ** 16 - 3])
    def test_offset_matches_scalar_reference(self, start):
        for seed in (0, 42, 2 ** 63 + 11):
            got = splitmix64(seed, 10, start).tolist()
            assert got == scalar_splitmix(seed, 10, start)

    def test_uniforms_in_unit_interval(self):
        u = uniform01(7, 10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(float(np.mean(u)) - 0.5) < 0.02


def single_pass_counts(dist, shots, seed):
    """Histogram from one full-length draw, the unchunked definition."""
    cdf = np.cumsum(np.array(dist.probs))
    idx = np.searchsorted(cdf, uniform01(seed, shots), side="right")
    idx = np.minimum(idx, len(dist.probs) - 1)
    return tuple(int(c) for c in np.bincount(idx, minlength=len(dist.probs)))


class TestSample:
    @pytest.mark.parametrize("shots", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("model", ["onoff", "pnr"])
    def test_chunked_draw_equals_single_pass(self, model, shots):
        state = make_cat(1.0, "odd")
        if model == "onoff":
            dist = click_distribution(state, ONOFF5)
        else:
            dist = pnr_distribution(state, DetectorConfig.pnr(4, 2, 0.5))
        run = sample(dist, shots, seed=19)
        assert run.counts == single_pass_counts(dist, shots, 19)

    def test_memory_bounded_at_shot_cap(self):
        # A fresh process, so that its peak RSS is the draw at the shot cap
        # plus the import, not the rest of the suite.
        code = (
            "import resource\n"
            "from clickwitness.detectors import DetectorConfig, pnr_distribution\n"
            "from clickwitness.sampler import _MAX_SHOTS, sample\n"
            "from clickwitness.states import make_cat\n"
            "cfg = DetectorConfig.pnr(8, 2, 0.5)\n"
            "dist = pnr_distribution(make_cat(1.0, 'odd'), cfg)\n"
            "run = sample(dist, _MAX_SHOTS, seed=3)\n"
            "print(sum(run.counts), _MAX_SHOTS,"
            " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        total, cap, peak_kib = (int(v) for v in out.split())
        assert total == cap == 100_000_000
        assert peak_kib / 1024 < 100.0

    def test_point_mass(self):
        dist = CountDistribution("click", (0, 1), (0.0, 1.0), DetectorConfig.onoff(1))
        run = sample(dist, 1000, seed=3)
        assert run.counts == (0, 1000)

    def test_uniform_four_outcomes_within_four_sigma(self):
        dist = CountDistribution(
            "click", (0, 1, 2, 3), (0.25,) * 4, DetectorConfig.onoff(3)
        )
        shots = 1_000_000
        run = sample(dist, shots, seed=11)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for count in run.counts:
            assert abs(count - shots * 0.25) < 4 * sigma

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 5000))
    def test_seed_determines_histogram(self, seed, shots):
        dist = click_distribution(make_cat(1.0, "odd"), ONOFF5)
        first = sample(dist, shots, seed)
        second = sample(dist, shots, seed)
        assert first.counts == second.counts
        assert sum(first.counts) == shots

    def test_zero_shots_rejected(self):
        dist = click_distribution(coherent_state(1.0), ONOFF5)
        with pytest.raises(ValueError):
            sample(dist, 0, seed=1)

    def test_unnormalized_rejected(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bad = CountDistribution("click", (0, 1), (0.4, 0.4),
                                    DetectorConfig.onoff(1))
        with pytest.raises(ValueError):
            sample(bad, 10, seed=1)

    def test_empirical_distribution(self):
        dist = click_distribution(coherent_state(1.0), ONOFF5)
        run = sample(dist, 5000, seed=9)
        emp = run.empirical()
        assert emp.total() == pytest.approx(1.0, abs=1e-12)
        assert emp.config == ONOFF5


class TestEmpiricalWitness:
    def test_coherent_state_stays_near_psd(self):
        dist = click_distribution(coherent_state(1.2), ONOFF5)
        run = sample(dist, 1_000_000, seed=21)
        iset = enumerate_index_sets(ONOFF5)[0]
        result = empirical_witness(run, ONOFF5, iset, resamples=120)
        err = result.stderrs["min_eig"]
        assert result.values["min_eig"] > -5 * err
        assert result.verdict in (NO_VIOLATION, INDETERMINATE)

    def test_odd_cat_detected_with_margin(self):
        cat = make_cat(1.0, "odd")
        dist = click_distribution(cat, ONOFF5)
        iset = enumerate_index_sets(ONOFF5)[0]
        exact = count_matrix(cat, ONOFF5, iset).min_eig
        run = sample(dist, 1_000_000, seed=5)
        result = empirical_witness(run, ONOFF5, iset, resamples=150)
        assert result.verdict == NONCLASSICAL
        assert result.values["min_eig"] < 0
        assert abs(result.values["min_eig"] - exact) < 5 * result.stderrs["min_eig"]

    def test_small_samples_are_inconclusive(self):
        cat = make_cat(0.6, "odd")
        dist = click_distribution(cat, ONOFF5)
        iset = enumerate_index_sets(ONOFF5)[0]
        run = sample(dist, 10, seed=2)
        result = empirical_witness(run, ONOFF5, iset, resamples=60)
        assert result.stderrs["min_eig"] > 0.0
        assert result.verdict in (INDETERMINATE, NONCLASSICAL, NO_VIOLATION)

    def test_error_shrinks_with_shots(self):
        cat = make_cat(1.0, "odd")
        dist = click_distribution(cat, ONOFF5)
        iset = enumerate_index_sets(ONOFF5)[0]
        exact = count_matrix(cat, ONOFF5, iset).min_eig
        mean_abs_error = []
        for shots in (10_000, 100_000, 1_000_000):
            errors = []
            for seed in range(10):
                run = sample(dist, shots, seed=seed)
                emp = run.empirical()
                from clickwitness.witnesses import count_matrix_from_counts

                errors.append(abs(count_matrix_from_counts(emp, iset).min_eig - exact))
            mean_abs_error.append(float(np.mean(errors)))
        assert mean_abs_error[0] > mean_abs_error[1] > mean_abs_error[2]

    def test_bootstrap_stream_is_pinned(self):
        # The redraws come from numpy's Generator.multinomial, whose stream
        # numpy does not promise across versions (NEP 19).  The golden value
        # was taken with numpy 2.4.6; a changed stream fails here.
        dist = click_distribution(make_cat(1.0, "odd"), ONOFF5)
        run = sample(dist, 100_000, seed=5)
        iset = enumerate_index_sets(ONOFF5)[0]
        result = empirical_witness(run, ONOFF5, iset, resamples=50)
        assert result.stderrs["min_eig"] == pytest.approx(0.00022913905426499942, rel=1e-9)

    def test_config_mismatch_rejected(self):
        dist = click_distribution(coherent_state(1.0), ONOFF5)
        run = sample(dist, 100, seed=1)
        other = DetectorConfig.onoff(4, 0.5)
        with pytest.raises(ValueError):
            empirical_witness(run, other, enumerate_index_sets(other)[0])

    def test_klyshko_errors_reported_for_clicks(self):
        dist = click_distribution(make_cat(1.0, "odd"), ONOFF5)
        run = sample(dist, 200_000, seed=31)
        iset = enumerate_index_sets(ONOFF5)[0]
        result = empirical_witness(run, ONOFF5, iset, resamples=80)
        assert "klyshko_integer" in result.values
        assert result.stderrs["klyshko_integer"] > 0.0


BOOTSTRAP_CASES = {
    "onoff5": (ONOFF5, click_distribution),
    "onoff31": (DetectorConfig.onoff(31, 0.5), click_distribution),
    "pnr8_2": (DetectorConfig.pnr(8, 2, 0.5), pnr_distribution),
    "pnr5_3": (DetectorConfig.pnr(5, 3, 0.5), pnr_distribution),
    "photo": (DetectorConfig.photoelectric(0.5), photo_distribution),
}


def assert_same_scalars(got, want):
    """Equal bit for bit; NaN only where the reference has NaN."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if math.isnan(value):
            assert math.isnan(got[key]), key
        else:
            assert got[key] == value, key


def assert_matches_loop(run, cfg, iset, resamples, kind):
    result = empirical_witness(run, cfg, iset, resamples=resamples, kind=kind)
    values, stderrs, verdict, report, resolved = oracles.loop_empirical_witness(
        run, iset, resamples, kind
    )
    assert np.array_equal(result.report.matrix.entries, report.matrix.entries)
    assert result.report.min_eig == report.min_eig
    assert result.report.minors == report.minors
    assert_same_scalars(result.values, values)
    assert_same_scalars(result.stderrs, stderrs)
    assert result.verdict == verdict
    return resolved


class TestBatchedBootstrap:
    """The one-pass bootstrap against the redraw-by-redraw loop, bit for bit."""

    @pytest.mark.parametrize("case", sorted(BOOTSTRAP_CASES))
    def test_matches_loop(self, case):
        cfg, distribution = BOOTSTRAP_CASES[case]
        run = sample(distribution(make_cat(1.0, "odd"), cfg), 1_000_000, seed=3)
        for iset in enumerate_index_sets(cfg):
            if not iset.elements:
                continue
            for kind in ("counts", "moments"):
                assert_matches_loop(run, cfg, iset, 40, kind)

    @pytest.mark.parametrize("resamples, half_resolved", [(2, 1), (50, 35)])
    def test_ten_shots_with_vanishing_klyshko_denominators(self, resamples,
                                                           half_resolved):
        # Histogram (6, 3, 1, 0, 0, 0): outcome 2 drops out of some redraws,
        # so the half Klyshko ratio is skipped there; with 2 redraws it
        # resolves once and its error is NaN.
        run = sample(click_distribution(make_cat(1.0, "odd"), ONOFF5), 10, seed=5)
        assert run.counts == (6, 3, 1, 0, 0, 0)
        for iset in enumerate_index_sets(ONOFF5):
            for kind in ("counts", "moments"):
                resolved = assert_matches_loop(run, ONOFF5, iset, resamples, kind)
                assert resolved["klyshko_half"] == half_resolved

    def test_unknown_kind_rejected(self):
        run = sample(click_distribution(make_cat(1.0, "odd"), ONOFF5), 1000, seed=1)
        with pytest.raises(ValueError, match="kind"):
            empirical_witness(run, ONOFF5, enumerate_index_sets(ONOFF5)[0], kind="count")


class TestHistogramRoundTrip:
    def test_click_histogram(self, tmp_path):
        dist = click_distribution(coherent_state(1.0), ONOFF5)
        run = sample(dist, 20_000, seed=13)
        path = tmp_path / "clicks.csv"
        write_histogram(run, path)
        outcomes, counts = read_histogram(path)
        assert outcomes == dist.outcomes
        assert counts == run.counts
        rebuilt = histogram_distribution(outcomes, counts, "click", ONOFF5)
        assert rebuilt.probs == run.empirical().probs

    def test_pnr_histogram_with_tuple_outcomes(self, tmp_path):
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        dist = pnr_distribution(make_cat(1.0, "even"), cfg)
        run = sample(dist, 5000, seed=17)
        path = tmp_path / "pnr.csv"
        write_histogram(run, path)
        outcomes, counts = read_histogram(path)
        assert outcomes == dist.outcomes
        assert counts == run.counts
