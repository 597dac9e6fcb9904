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
from oracles import (
    histogram_distribution,
    scalar_splitmix,
    seed_drawing,
    single_pass_counts,
    uniform01,
)
from clickwitness.detectors import (
    CountDistribution,
    DetectorConfig,
    click_distribution,
    photo_distribution,
    pnr_distribution,
)
from clickwitness.numerics import leading_minors
from clickwitness.sampler import (
    _CHUNK as CHUNK,
    _GOLDEN as GOLDEN,
    _MAX_COMPARED,
    _count_by_buckets,
    _count_by_comparison,
    _mix_rounds,
    derive_seed,
    empirical_witness,
    read_histogram,
    sample,
    splitmix64,
    write_histogram,
)
from clickwitness.states import coherent_state, make_cat
from clickwitness.witnesses import (
    INDETERMINATE,
    NONCLASSICAL,
    NO_VIOLATION,
    count_matrix,
    count_matrix_from_counts,
    enumerate_index_sets,
    moment_matrix_from_counts,
)

ONOFF5 = DetectorConfig.onoff(5, 0.5)


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

    @pytest.mark.parametrize("seed", [2 ** 64 - 1, -5])
    def test_wrapping_seeds_match_scalar_reference(self, seed):
        for start in (0, 3 * CHUNK):
            got = splitmix64(seed, 10, start).tolist()
            assert got == scalar_splitmix(seed, 10, start)

    @pytest.mark.parametrize("seed", [
        np.int64(3), np.int64(-5), np.uint64(2 ** 64 - 1), -5, 2 ** 64 - 1,
    ])
    def test_numpy_and_wrapping_seeds(self, seed):
        assert splitmix64(seed, 10, 7).tolist() == scalar_splitmix(int(seed), 10, 7)
        child = scalar_splitmix(int(seed) ^ 0xA5A5A5A5A5A5A5A5, 1)[0]
        assert derive_seed(seed) == child == derive_seed(int(seed))
        assert type(derive_seed(seed)) is int

    def test_two_rounds_fix_the_top_31_bits(self):
        # sample reads its comparison prefixes and bucket indices before the
        # last round z ^= z >> 31.
        rng = np.random.default_rng(16)
        sums = [int(v) for v in rng.integers(0, 2 ** 63, 2000, dtype=np.uint64)]
        sums += [int(v) << 1 | 1 for v in rng.integers(0, 2 ** 63, 2000, dtype=np.uint64)]
        sums += [0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 33 - 1, 2 ** 33, 2 ** 63 - 1,
                 2 ** 63, 2 ** 64 - 2 ** 33, 2 ** 64 - 1]
        z = np.array(sums, dtype=np.uint64)
        _mix_rounds(z, np.empty_like(z))
        # Seed z - GOLDEN gives counter sum z for the first output.
        full = [scalar_splitmix((v - GOLDEN) % 2 ** 64, 1)[0] for v in sums]
        assert (z >> np.uint64(33)).tolist() == [v >> 33 for v in full]

    def test_uniforms_in_unit_interval(self):
        u = uniform01(7, 10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(float(np.mean(u)) - 0.5) < 0.02


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

    @pytest.mark.parametrize("seed", [0, 2 ** 63 + 11, 2 ** 64 - 1, -5])
    @pytest.mark.parametrize("shots", [CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("model", ["onoff", "pnr"])
    def test_chunk_offsets_wrap_like_splitmix(self, model, shots, seed):
        # Each chunk adds (seed + start * GOLDEN) mod 2^64 to one shared
        # counter-step array; the oracle draws every counter through splitmix64.
        state = make_cat(1.0, "odd")
        if model == "onoff":
            dist = click_distribution(state, ONOFF5)
        else:
            dist = pnr_distribution(state, DetectorConfig.pnr(4, 2, 0.5))
        assert sample(dist, shots, seed).counts == single_pass_counts(dist, shots, seed)

    @pytest.mark.parametrize("seed", [np.uint64(2 ** 64 - 1), np.int64(-5)])
    def test_numpy_integer_seed(self, seed):
        dist = click_distribution(make_cat(1.0, "odd"), ONOFF5)
        run = sample(dist, CHUNK + 1, seed)
        assert run.counts == sample(dist, CHUNK + 1, int(seed)).counts
        assert type(run.seed) is int
        empirical_witness(run, ONOFF5, enumerate_index_sets(ONOFF5)[0], resamples=2)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="the child's peak RSS is read from /proc/self/status")
    def test_memory_bounded_at_shot_cap(self):
        # A fresh process, so that its peak RSS is the draw at the shot cap
        # plus the import, not the rest of the suite.  Linux carries ru_maxrss
        # across exec, so the child would report the suite's peak; its VmHWM
        # is its own.
        code = (
            "from clickwitness.detectors import DetectorConfig, pnr_distribution\n"
            "from clickwitness.sampler import _MAX_SHOTS, sample\n"
            "from clickwitness.states import make_cat\n"
            "cfg = DetectorConfig.pnr(8, 2, 0.5)\n"
            "dist = pnr_distribution(make_cat(1.0, 'odd'), cfg)\n"
            "run = sample(dist, _MAX_SHOTS, seed=3)\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "print(sum(run.counts), _MAX_SHOTS, peak)\n"
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

    @pytest.mark.parametrize("shots", [1e6, 1e9])
    def test_float_shots_rejected_before_drawing(self, shots):
        # Read before the cap check and the draw, like the seed.
        dist = click_distribution(coherent_state(1.0), ONOFF5)
        with pytest.raises(TypeError, match="integer"):
            sample(dist, shots, seed=1)

    @pytest.mark.parametrize("shots", [True, np.int64(3)])
    def test_integer_like_shots_stored_as_int(self, shots):
        run = sample(click_distribution(coherent_state(1.0), ONOFF5), shots, seed=1)
        assert type(run.shots) is int and run.shots == int(shots)
        assert sum(run.counts) == run.shots

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

    def test_nan_total_rejected(self):
        # The constructor rejects NaN; a NaN that gets in past it must still
        # fail the normalisation check instead of drawing a histogram.
        dist = CountDistribution("click", (0, 1), (0.0, 1.0), DetectorConfig.onoff(1))
        object.__setattr__(dist, "probs", (math.nan, 1.0))
        with pytest.raises(ValueError, match="nan"):
            sample(dist, 1000, seed=3)

    def test_empirical_distribution(self):
        dist = click_distribution(coherent_state(1.0), ONOFF5)
        run = sample(dist, 5000, seed=9)
        emp = run.empirical()
        assert emp.total() == pytest.approx(1.0, abs=1e-12)
        assert emp.config == ONOFF5


@st.composite
def draw_cases(draw):
    """(probs, shots, seed) covering the integer draw's corner cases."""
    # A third of the cases have at most 8 outcomes, around the crossover
    # between the comparison and the bucket counters.
    size = draw(st.integers(1, 8) if draw(st.integers(0, 2)) == 0
                else st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probs = rng.random(size) ** draw(st.sampled_from([1.0, 4.0, 30.0]))
    probs[rng.random(size) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if draw(st.booleans()):
        # Many tiny outcomes crowded into one bucket.
        lo = draw(st.integers(0, size - 1))
        hi = draw(st.integers(lo, min(size, lo + 4000)))
        probs[lo:hi] = 1e-12 * rng.random(hi - lo)
    if not probs.any():
        probs[-1] = 1.0
    probs /= probs.sum()
    probs *= 1.0 + draw(st.sampled_from([0.0, -5e-11, 5e-11]))
    shots = draw(st.one_of(
        st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5]),
        st.integers(1, 3 * CHUNK),
    ))
    return probs, shots, draw(st.integers(0, 2 ** 64 - 1))


class TestIntegerDraw:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(draw_cases())
    def test_matches_float_search(self, case):
        probs, shots, seed = case
        dist = CountDistribution("click", tuple(range(len(probs))), tuple(probs))
        assert sample(dist, shots, seed).counts == single_pass_counts(dist, shots, seed)

    def test_draws_on_and_beside_a_cdf_value(self):
        # A draw at or above cdf_0 belongs to outcome 1, one below it to outcome 0.
        seed = next(s for s in range(100) if splitmix64(s, 1)[0] >> np.uint64(11) < 2 ** 51)
        m = int(splitmix64(seed, 1)[0] >> np.uint64(11))
        for offset, want in ((-0.5, (0, 1)), (0.0, (0, 1)), (0.5, (1, 0)), (1.0, (1, 0))):
            p0 = (m + offset) * 2.0 ** -53
            dist = CountDistribution("click", (0, 1), (p0, 1.0 - p0))
            assert sample(dist, 1, seed).counts == want == single_pass_counts(dist, 1, seed)

    # A shot in the first chunk, a middle one and the partial last one.
    @pytest.mark.parametrize("shot", [5, CHUNK + 100, 3 * CHUNK + 3])
    # Prefixes X = m >> 22 inside the range and at its top, 2^31 - 1.
    @pytest.mark.parametrize("m", [3 << 50 | 12345, ((1 << 31) - 1) << 22 | 777])
    def test_thresholds_at_and_beside_a_drawn_shot(self, shot, m):
        # Thresholds m - 1, m and m + 1 share the shot's top 31 bits, so only
        # its last round decides: it lands on outcome 2.
        shots = 3 * CHUNK + 7
        seed = seed_drawing(m, shot)
        assert (m - 1) >> 22 == (m + 1) >> 22 == m >> 22
        cdf = [(m + d) * 2.0 ** -53 for d in (-1, 0, 1)]
        probs = (cdf[0], cdf[1] - cdf[0], cdf[2] - cdf[1], 1.0 - cdf[2])
        dist = CountDistribution("click", (0, 1, 2, 3), probs)
        counts = sample(dist, shots, seed).counts
        assert counts == single_pass_counts(dist, shots, seed)
        assert counts[2] == 1
        # With one threshold t, the shot is at or above m - 1 and m, below m + 1.
        got = {}
        for t in (m - 1, m, m + 1):
            two = CountDistribution("click", (0, 1), (t * 2.0 ** -53, 1 - t * 2.0 ** -53))
            got[t] = sample(two, shots, seed).counts
            assert got[t] == single_pass_counts(two, shots, seed)
        assert got[m - 1] == got[m]
        assert got[m][1] == got[m + 1][1] + 1

    @pytest.mark.parametrize("probs", [
        (0.0, 0.0, 0.3, 0.7),
        (0.25, 0.75 + 5e-11, 0.0, 0.0),
        (0.0, 0.3, 0.7 + 5e-11, 1e-20),
        (0.3, 0.7 - 1e-10, 1e-10),
        (1.0,),
        (0.0, 0.0, 1.0),
    ])
    def test_thresholds_outside_the_draw_range(self, probs):
        # Leading zero outcomes have t <= 0 and hold every shot at or above
        # them; a CDF past 1 before the last outcome gives t >= 2^53; 1e-10
        # last puts the inner threshold before it at X = 2^31 - 1.
        dist = CountDistribution("click", tuple(range(len(probs))), probs)
        for shots, seed in ((CHUNK + 9, 7), (3 * CHUNK + 7, 2 ** 64 - 1)):
            assert sample(dist, shots, seed).counts == single_pass_counts(dist, shots, seed)

    @pytest.mark.parametrize("size", range(1, 10))
    def test_both_counters_agree_at_every_small_size(self, size):
        # sample picks one counter by _MAX_COMPARED; each is checked here
        # on both sides of it.
        probs = np.random.default_rng(size).random(size)
        probs /= probs.sum()
        dist = CountDistribution("click", tuple(range(size)), tuple(probs))
        thresholds = np.ceil(np.cumsum(probs) * 2.0 ** 53).astype(np.int64)
        inner = np.arange(size - 1)
        want = single_pass_counts(dist, 2 * CHUNK + 5, 3)
        assert tuple(_count_by_comparison(thresholds, inner, 3, 2 * CHUNK + 5)) == want
        assert tuple(_count_by_buckets(thresholds, 3, 2 * CHUNK + 5)) == want
        assert sample(dist, 2 * CHUNK + 5, 3).counts == want
        assert 1 <= _MAX_COMPARED < 8

    def test_large_outcome_space(self):
        # 2^18 buckets, the widest; a few outcomes hold most of the mass.
        probs = np.full(100_000, 1e-7)
        probs[[10, 50_000, 99_999]] = 1.0
        probs /= probs.sum()
        dist = CountDistribution("click", tuple(range(len(probs))), tuple(probs))
        assert sample(dist, CHUNK + 9, 4).counts == single_pass_counts(dist, CHUNK + 9, 4)


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

    @pytest.mark.parametrize("case", sorted(BOOTSTRAP_CASES))
    def test_report_equals_the_from_counts_matrix(self, case):
        # The point estimate is row 0 of the bootstrap stack.
        cfg, distribution = BOOTSTRAP_CASES[case]
        run = sample(distribution(make_cat(1.0, "odd"), cfg), 100_000, seed=8)
        matrix_of = {"counts": count_matrix_from_counts,
                     "moments": moment_matrix_from_counts}
        for iset in enumerate_index_sets(cfg):
            if not iset.elements:
                continue
            for kind, from_counts in matrix_of.items():
                got = empirical_witness(run, cfg, iset, resamples=3, kind=kind).report
                want = from_counts(run.empirical(), iset)
                assert np.array_equal(got.matrix.entries, want.matrix.entries)
                assert type(got.min_eig) is float
                assert all(type(minor) is float for minor in got.minors)
                assert (got.labels, got.min_eig, got.minors, got.source, got.metadata) \
                    == (want.labels, want.min_eig, want.minors, want.source, want.metadata)
                assert got.minors == tuple(leading_minors(got.matrix))

    @pytest.mark.parametrize("case", sorted(BOOTSTRAP_CASES))
    def test_scalars_are_min_eig_and_the_klyshko_ratios(self, case):
        # The redraws carry no minors; the report keeps the point estimate's.
        cfg, distribution = BOOTSTRAP_CASES[case]
        run = sample(distribution(make_cat(1.0, "odd"), cfg), 100_000, seed=8)
        keys = ["min_eig"]
        if cfg.model == "onoff":
            keys += ["klyshko_integer", "klyshko_half"]
        for iset in enumerate_index_sets(cfg):
            if not iset.elements:
                continue
            result = empirical_witness(run, cfg, iset, resamples=3)
            assert list(result.values) == list(result.stderrs) == keys

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

    @pytest.mark.parametrize("body", ["0,5\n1\n", "0,5\n\n1,3\n", "0,5\n1,x\n"])
    def test_malformed_row_names_its_line(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("outcome,count\n" + body)
        with pytest.raises(ValueError, match="line 3"):
            read_histogram(path)
