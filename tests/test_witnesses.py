import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clickwitness.detectors import (
    DetectorConfig,
    click_distribution,
    photo_distribution,
    pnr_distribution,
)
from clickwitness.numerics import HalfInt
from clickwitness.states import CoherentStack, FockVector, coherent_state, make_cat
from clickwitness.witnesses import (
    _pair_quantities,
    _pair_sum_multi,
    _pair_sum_scalar,
    INDETERMINATE,
    NONCLASSICAL,
    NO_VIOLATION,
    IndexSet,
    click_stats,
    count_matrix,
    count_matrix_from_counts,
    enumerate_index_sets,
    enumerate_pnr_moment_sets,
    from_counts_entries,
    g_functions,
    g_matrix,
    klyshko_ratio,
    min_eig_sweep,
    moment_matrix,
    moment_matrix_from_counts,
    qb_parameter,
    skewness_witness,
)
from helpers import random_cat, random_coherent, random_coherent_mixture
from oracles import _pair_sum as half_int_pair_sum
from oracles import loop_from_counts_entries

HALF_SET = IndexSet(("1/2", "3/2"), "half")
INT_SET_12 = IndexSet((1, 2), "integer")


class TestIndexSet:
    def test_sorts_and_dedups(self):
        iset = IndexSet((2, 0, 1, 1), "integer")
        assert [k.twice for k in iset.elements] == [0, 2, 4]

    def test_rejects_mixed_classes(self):
        with pytest.raises(ValueError):
            IndexSet((0, "1/2"), "bad")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IndexSet((-1, 0), "bad")

    def test_multi_index_admissibility(self):
        iset = IndexSet((("1/2", 0, "3/2"), ("3/2", 0, "1/2")), "pattern")
        assert iset.multi
        assert iset.class_pattern == ("half", "integer", "half")
        with pytest.raises(ValueError):
            IndexSet((("1/2", 0, "3/2"), (0, 0, 2)), "bad")


class TestEnumeration:
    def test_onoff_n4(self):
        cfg = DetectorConfig.onoff(4, 0.5)
        integer, half = enumerate_index_sets(cfg)
        assert [k.twice for k in integer.elements] == [0, 2, 4]
        assert [k.twice for k in half.elements] == [1, 3]

    def test_onoff_n5(self):
        cfg = DetectorConfig.onoff(5, 0.5)
        integer, half = enumerate_index_sets(cfg)
        assert [float(k) for k in integer.elements] == [0.0, 1.0, 2.0]
        assert [float(k) for k in half.elements] == [0.5, 1.5, 2.5]

    def test_photoelectric_defaults(self):
        cfg = DetectorConfig.photoelectric(0.5)
        integer, half = enumerate_index_sets(cfg)
        assert [float(k) for k in integer.elements] == [0.0, 1.0, 2.0]
        assert [float(k) for k in half.elements] == [0.5, 1.5]

    def test_pnr_n4_k2_enumerates_all_class_patterns(self):
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        sets = enumerate_index_sets(cfg)
        described = {s.label: {tuple(float(p) for p in e) for e in s.elements}
                     for s in sets}
        assert described["int-int-int"] == {
            (0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0), (2, 0, 0), (0, 2, 0)
        }
        assert described["half-int-half"] == {
            (0.5, 0, 1.5), (1.5, 0, 0.5), (0.5, 1, 0.5)
        }
        assert described["int-half-half"] == {
            (0, 0.5, 1.5), (0, 1.5, 0.5), (1, 0.5, 0.5)
        }
        assert described["half-half-int"] == {
            (0.5, 0.5, 1), (1.5, 0.5, 0), (0.5, 1.5, 0)
        }

    def test_pnr_empty_pattern_is_flagged_empty(self):
        # N=1, K=2: both leading slots half-odd needs total twice >= 2 > 1
        cfg = DetectorConfig.pnr(1, 2, 0.5)
        sets = {s.label: s for s in enumerate_index_sets(cfg)}
        assert sets["half-half-half"].elements == ()

    def test_pnr_moment_sets_allow_lower_totals(self):
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        sets = enumerate_pnr_moment_sets(cfg)
        assert len(sets) == 8
        all_int = next(s for s in sets if s.label == "int-int-int")
        totals = {sum(p.twice for p in e) for e in all_int.elements}
        assert totals == {0, 2, 4}


class TestPairSums:
    @pytest.mark.parametrize("cfg", [
        DetectorConfig.photoelectric(0.5),
        DetectorConfig.onoff(31, 0.5),
        DetectorConfig.pnr(4, 2, 0.5),
        DetectorConfig.pnr(8, 2, 0.5),
        DetectorConfig.pnr(5, 3, 0.5),
    ])
    def test_integer_sums_match_half_integer_sums(self, cfg):
        for iset in enumerate_index_sets(cfg):
            pair_sum = _pair_sum_multi if iset.multi else _pair_sum_scalar
            got = _pair_quantities(iset, pair_sum)
            assert got == _pair_quantities(iset, half_int_pair_sum)
            for key in got.values():
                assert all(type(k) is int for k in (key if iset.multi else (key,)))

    @pytest.mark.parametrize("a, b", [(1, 2), (-1, -2), (3, 0)])
    def test_odd_sums_raise_as_half_integers(self, a, b):
        pairs = [
            (lambda: _pair_sum_scalar(HalfInt(a), HalfInt(b)),
             lambda: (HalfInt(a) + HalfInt(b)).to_int()),
            (lambda: _pair_sum_multi((HalfInt(2), HalfInt(a)), (HalfInt(0), HalfInt(b))),
             lambda: half_int_pair_sum((HalfInt(2), HalfInt(a)), (HalfInt(0), HalfInt(b)))),
        ]
        for got, want in pairs:
            with pytest.raises(ValueError) as want_exc:
                want()
            with pytest.raises(ValueError) as got_exc:
                got()
            assert str(got_exc.value) == str(want_exc.value)


FROM_COUNTS_CASES = {
    "photo": (DetectorConfig.photoelectric(0.5),
              lambda cfg: photo_distribution(coherent_state(1.0), cfg, n_max=12)),
    "onoff5": (DetectorConfig.onoff(5, 0.5),
               lambda cfg: click_distribution(coherent_state(1.0), cfg)),
    "onoff8": (DetectorConfig.onoff(8, 0.5),
               lambda cfg: click_distribution(coherent_state(1.0), cfg)),
    "pnr4_2": (DetectorConfig.pnr(4, 2, 0.5),
               lambda cfg: pnr_distribution(coherent_state(1.0), cfg)),
    "pnr5_3": (DetectorConfig.pnr(5, 3, 0.5),
               lambda cfg: pnr_distribution(coherent_state(1.0), cfg)),
}

# Zeros of both signs and tiny negatives, which clipping lets through.
PROB_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-300, -1e-16, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(-1e-15, 0.0),
)


@st.composite
def from_counts_cases(draw):
    """(counts, probs, iset, kind) over every model and kind."""
    cfg, distribution = FROM_COUNTS_CASES[draw(st.sampled_from(sorted(FROM_COUNTS_CASES)))]
    kind = draw(st.sampled_from(["counts", "moments"]))
    sets = enumerate_index_sets(cfg)
    if cfg.model == "pnr" and kind == "moments":
        sets += enumerate_pnr_moment_sets(cfg)
    iset = draw(st.sampled_from([s for s in sets if 0 < len(s.elements) <= 16]))
    counts = distribution(cfg)
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)])) + (len(counts.outcomes),)
    values = draw(st.lists(PROB_VALUES, min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return counts, np.array(values).reshape(shape), iset, kind


class TestFromCountsEntries:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(from_counts_cases())
    def test_matches_the_outcome_loop(self, case):
        counts, probs, iset, kind = case
        got = from_counts_entries(counts, probs, iset, kind)
        want = loop_from_counts_entries(counts, probs, iset, kind)
        assert got.shape == probs.shape[:-1] + (len(iset.elements),) * 2
        # array_equal treats -0.0 == 0.0; the signs must agree as well.
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_non_finite_probs_rejected(self, bad, rows):
        cfg = DetectorConfig.onoff(5, 0.5)
        counts = click_distribution(coherent_state(1.0), cfg)
        iset = enumerate_index_sets(cfg)[0]
        probs = np.broadcast_to(np.array(counts.probs), rows + (6,)).copy()
        # Outcome 5 weighs 0 in every entry of the integer counts matrix.
        probs[..., 5] = bad
        with pytest.raises(ValueError, match="finite"):
            from_counts_entries(counts, probs, iset, "counts")


class TestCountMatrix:
    def test_coherent_onoff_rank_one(self):
        cfg = DetectorConfig.onoff(4, 0.8)
        iset = IndexSet((0, 1), "integer")
        report = count_matrix(coherent_state(1.1), cfg, iset)
        p = 1.0 - math.exp(-0.8 * 1.1 ** 2 / 4)
        q = 1.0 - p
        assert report.matrix.entries[0, 0] == pytest.approx(q ** 4, rel=1e-12)
        assert report.matrix.entries[0, 1] == pytest.approx(q ** 3 * p, rel=1e-12)
        assert abs(report.min_eig) <= 1e-12 * max(report.max_abs, 1.0)

    def test_cap_violation_names_pair(self):
        cfg = DetectorConfig.onoff(4, 0.5)
        iset = IndexSet((1, 3), "integer")
        with pytest.raises(ValueError, match="3"):
            count_matrix(coherent_state(1.0), cfg, iset)

    def test_pnr_total_rule(self):
        cfg = DetectorConfig.pnr(4, 2, 0.5)
        bad = IndexSet(((0, 0, 1),), "short")
        with pytest.raises(ValueError):
            count_matrix(coherent_state(1.0), cfg, bad)

    def test_empty_set_rejected(self):
        cfg = DetectorConfig.pnr(1, 2, 0.5)
        empty = next(s for s in enumerate_index_sets(cfg) if not s.elements)
        with pytest.raises(ValueError):
            count_matrix(coherent_state(1.0), cfg, empty)

    def test_matches_distribution_route_onoff(self):
        rng = np.random.default_rng(3)
        cfg = DetectorConfig.onoff(5, 0.5)
        for iset in enumerate_index_sets(cfg):
            state = random_cat(rng)
            direct = count_matrix(state, cfg, iset)
            counted = count_matrix_from_counts(click_distribution(state, cfg), iset)
            assert direct.matrix.entries == pytest.approx(
                counted.matrix.entries, rel=1e-11, abs=1e-13
            )

    def test_matches_distribution_route_photo_and_pnr(self):
        state = make_cat(1.1, "odd")
        photo_cfg = DetectorConfig.photoelectric(0.5)
        for iset in enumerate_index_sets(photo_cfg):
            direct = count_matrix(state, photo_cfg, iset)
            counted = count_matrix_from_counts(
                photo_distribution(state, photo_cfg, n_max=40), iset
            )
            assert direct.matrix.entries == pytest.approx(
                counted.matrix.entries, rel=1e-10, abs=1e-13
            )
        pnr_cfg = DetectorConfig.pnr(4, 2, 0.5)
        for iset in enumerate_index_sets(pnr_cfg):
            direct = count_matrix(state, pnr_cfg, iset)
            counted = count_matrix_from_counts(pnr_distribution(state, pnr_cfg), iset)
            assert direct.matrix.entries == pytest.approx(
                counted.matrix.entries, rel=1e-10, abs=1e-13
            )


class TestMomentMatrix:
    def test_onoff_top_left_entry_is_one(self):
        cfg = DetectorConfig.onoff(4, 0.5)
        iset = IndexSet((0, 1, 2), "integer")
        report = moment_matrix(make_cat(1.0, "odd"), cfg, iset)
        assert report.matrix.entries[0, 0] == pytest.approx(1.0, rel=1e-13)

    def test_photoelectric_half_set_determinant(self):
        # det = <:n:><:n^3:> - <:n^2:>^2 with the eta-scaled number operator
        from clickwitness.detectors import factorial_moment

        cfg = DetectorConfig.photoelectric(0.5)
        state = make_cat(1.2, "even")
        report = moment_matrix(state, cfg, HALF_SET)
        m1 = factorial_moment(state, cfg, 1)
        m2 = factorial_moment(state, cfg, 2)
        m3 = factorial_moment(state, cfg, 3)
        assert report.minors[-1] == pytest.approx(m1 * m3 - m2 ** 2, rel=1e-10)

    def test_coherent_is_psd_for_any_set(self):
        state = coherent_state(1.4)
        for cfg in (
            DetectorConfig.photoelectric(0.7),
            DetectorConfig.onoff(6, 0.7),
            DetectorConfig.pnr(4, 2, 0.7),
        ):
            for iset in enumerate_index_sets(cfg):
                report = moment_matrix(state, cfg, iset)
                assert report.min_eig >= -report.tolerance

    def test_moments_from_counts_agree(self):
        cfg = DetectorConfig.onoff(5, 0.5)
        state = make_cat(0.9, "even")
        dist = click_distribution(state, cfg)
        for iset in enumerate_index_sets(cfg):
            direct = moment_matrix(state, cfg, iset)
            counted = moment_matrix_from_counts(dist, iset)
            assert direct.matrix.entries == pytest.approx(
                counted.matrix.entries, rel=1e-11, abs=1e-13
            )


class TestTwoByTwoClosedForms:
    def test_count_minors_match_distribution_products(self):
        # det C = (2k)!(2l)! p_2k p_2l - ((k+l)!)^2 p_(k+l)^2
        state = make_cat(1.1, "odd")
        cfg = DetectorConfig.photoelectric(0.5)
        dist = photo_distribution(state, cfg, n_max=50)
        for k, l in ((1, 2), (0, 1)):
            iset = IndexSet((k, l), "integer")
            report = count_matrix(state, cfg, iset)
            expected = (
                math.factorial(2 * k) * math.factorial(2 * l)
                * dist.prob(2 * k) * dist.prob(2 * l)
                - math.factorial(k + l) ** 2 * dist.prob(k + l) ** 2
            )
            assert report.minors[-1] == pytest.approx(expected, rel=1e-9, abs=1e-14)

    def test_half_integer_count_minor(self):
        state = make_cat(1.1, "even")
        cfg = DetectorConfig.photoelectric(0.5)
        dist = photo_distribution(state, cfg, n_max=50)
        report = count_matrix(state, cfg, HALF_SET)
        expected = (
            math.factorial(1) * math.factorial(3) * dist.prob(1) * dist.prob(3)
            - math.factorial(2) ** 2 * dist.prob(2) ** 2
        )
        assert report.minors[-1] == pytest.approx(expected, rel=1e-9, abs=1e-14)


class TestParitySelectivity:
    GRID = np.logspace(-2, 1, 25)

    def classify(self, cfg, iset, parity, kind):
        build = count_matrix if kind == "counts" else moment_matrix
        return [
            build(make_cat(math.sqrt(s), parity), cfg, iset).nonclassical
            for s in self.GRID
        ]

    @pytest.mark.parametrize("kind", ["counts", "moments"])
    def test_onoff_n5(self, kind):
        cfg = DetectorConfig.onoff(5, 0.5)
        integer, half = enumerate_index_sets(cfg)
        assert any(self.classify(cfg, integer, "odd", kind))
        assert not any(self.classify(cfg, integer, "even", kind))
        assert any(self.classify(cfg, half, "even", kind))
        assert not any(self.classify(cfg, half, "odd", kind))

    def test_sign_agreement_counts_vs_moments(self):
        cfg = DetectorConfig.onoff(5, 0.5)
        for iset in enumerate_index_sets(cfg):
            for parity in ("even", "odd"):
                for s in self.GRID:
                    cat = make_cat(math.sqrt(s), parity)
                    rc = count_matrix(cat, cfg, iset)
                    rm = moment_matrix(cat, cfg, iset)
                    sign_c = 0 if abs(rc.min_eig) <= rc.tolerance else math.copysign(1, rc.min_eig)
                    sign_m = 0 if abs(rm.min_eig) <= rm.tolerance else math.copysign(1, rm.min_eig)
                    assert sign_c == sign_m

    def test_classical_states_stay_psd(self):
        rng = np.random.default_rng(55)
        configs = [
            DetectorConfig.photoelectric(0.5),
            DetectorConfig.onoff(4, 0.5),
            DetectorConfig.pnr(4, 2, 0.5),
        ]
        states = [random_coherent(rng) for _ in range(6)]
        states += [random_coherent_mixture(rng) for _ in range(3)]
        for cfg in configs:
            for iset in enumerate_index_sets(cfg):
                for state in states:
                    for build in (count_matrix, moment_matrix):
                        report = build(state, cfg, iset)
                        assert report.min_eig >= -report.tolerance


class TestKlyshko:
    def test_coherent_saturates_integer_bound(self):
        for bins in range(3, 8):
            cfg = DetectorConfig.onoff(bins, 0.6)
            dist = click_distribution(coherent_state(1.2), cfg)
            result = klyshko_ratio(dist, "integer")
            assert result.ratio == pytest.approx(result.bound, abs=1e-12)
            assert result.bound == pytest.approx(0.5 * (1 - 1 / bins))
            assert result.verdict == NO_VIOLATION

    def test_coherent_saturates_half_bound(self):
        for bins in range(3, 8):
            cfg = DetectorConfig.onoff(bins, 0.6)
            dist = click_distribution(coherent_state(1.2), cfg)
            result = klyshko_ratio(dist, "half")
            assert result.ratio == pytest.approx(result.bound, abs=1e-12)
            assert result.bound == pytest.approx((2 / 3) * (1 - 1 / (bins - 1)))

    def test_single_photon_violates(self):
        cfg = DetectorConfig.onoff(2, 1.0)
        dist = click_distribution(FockVector((0.0, 1.0)), cfg)
        result = klyshko_ratio(dist, "integer")
        assert result.ratio == pytest.approx(0.0)
        assert result.bound == pytest.approx(0.25)
        assert result.verdict == NONCLASSICAL

    def test_vacuum_is_indeterminate(self):
        cfg = DetectorConfig.onoff(4, 1.0)
        dist = click_distribution(coherent_state(0.0), cfg)
        assert klyshko_ratio(dist, "integer").verdict == INDETERMINATE


class TestGFunctions:
    def test_coherent_is_flat(self):
        cfg = DetectorConfig.onoff(5, 0.7)
        gs = g_functions(coherent_state(1.0), cfg, 4)
        assert gs == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-11)

    def test_vacuum_rejected(self):
        cfg = DetectorConfig.onoff(5, 0.7)
        with pytest.raises(ValueError):
            g_functions(coherent_state(0.0), cfg, 2)

    def test_order_above_bins_rejected(self):
        with pytest.raises(ValueError, match="N=3"):
            g_functions(coherent_state(1.0), DetectorConfig.onoff(3, 0.7), 4)

    def test_g_matrix_determinant_identities(self):
        cfg = DetectorConfig.onoff(5, 0.5)
        cat = make_cat(1.0, "odd")
        gs = g_functions(cat, cfg, 3)
        report01 = g_matrix(moment_matrix(cat, cfg, IndexSet((0, 1), "integer")))
        assert report01.minors[-1] == pytest.approx(gs[1] - 1.0, rel=1e-11)
        report_half = g_matrix(moment_matrix(cat, cfg, HALF_SET))
        assert report_half.minors[-1] == pytest.approx(
            gs[2] - gs[1] ** 2, rel=1e-11
        )

    def test_congruence_preserves_psd_status(self):
        # the diagonal congruence preserves the exact eigenvalue signs; the
        # numerical zero band may reclassify a boundary case, so assert that
        # no clear negativity flips to clear positivity or vice versa
        rng = np.random.default_rng(71)
        cfg = DetectorConfig.onoff(5, 0.5)
        for _ in range(6):
            state = random_cat(rng)
            for iset in enumerate_index_sets(cfg):
                base = moment_matrix(state, cfg, iset)
                scaled = g_matrix(base)
                base_sign = 0 if abs(base.min_eig) <= base.tolerance else math.copysign(1, base.min_eig)
                scaled_sign = 0 if abs(scaled.min_eig) <= scaled.tolerance else math.copysign(1, scaled.min_eig)
                assert base_sign * scaled_sign >= 0


class TestClickStats:
    def test_binomial_maps_to_powers(self):
        bins, p = 6, 0.37
        cfg = DetectorConfig.onoff(bins, 1.0)
        probs = tuple(
            math.comb(bins, k) * p ** k * (1 - p) ** (bins - k)
            for k in range(bins + 1)
        )
        from clickwitness.detectors import CountDistribution

        dist = CountDistribution("click", tuple(range(bins + 1)), probs, cfg)
        stats = click_stats(dist)
        assert stats.moments == pytest.approx((p, p ** 2, p ** 3), rel=1e-12)

    def test_single_photon_two_bins(self):
        cfg = DetectorConfig.onoff(2, 1.0)
        dist = click_distribution(FockVector((0.0, 1.0)), cfg)
        stats = click_stats(dist)
        assert stats.mean == pytest.approx(1.0)
        assert stats.variance == pytest.approx(0.0, abs=1e-14)
        assert math.isnan(stats.skewness)

    def test_mapped_moments_equal_direct_sums(self):
        from clickwitness.detectors import click_moment_from_counts

        rng = np.random.default_rng(13)
        cfg = DetectorConfig.onoff(5, 0.5)
        for _ in range(5):
            dist = click_distribution(random_cat(rng), cfg)
            stats = click_stats(dist)
            for m, mapped in enumerate(stats.moments, start=1):
                assert mapped == pytest.approx(
                    click_moment_from_counts(dist, m), rel=1e-12, abs=1e-12
                )


class TestQbParameter:
    def test_coherent_is_binomial(self):
        cfg = DetectorConfig.onoff(6, 0.8)
        dist = click_distribution(coherent_state(1.1), cfg)
        assert qb_parameter(dist) == pytest.approx(0.0, abs=1e-12)

    def test_single_photon(self):
        cfg = DetectorConfig.onoff(2, 1.0)
        dist = click_distribution(FockVector((0.0, 1.0)), cfg)
        assert qb_parameter(dist) == pytest.approx(-1.0)

    def test_odd_cat_is_sub_binomial(self):
        cfg = DetectorConfig.onoff(5, 0.5)
        dist = click_distribution(make_cat(1.0, "odd"), cfg)
        assert qb_parameter(dist) < 0.0

    def test_saturated_detector_rejected(self):
        cfg = DetectorConfig.onoff(3, 1.0)
        dist = click_distribution(coherent_state(0.0), cfg)
        with pytest.raises(ValueError):
            qb_parameter(dist)


class TestSkewnessWitness:
    def test_binomial_clicks_vanish(self):
        cfg = DetectorConfig.onoff(5, 0.9)
        dist = click_distribution(coherent_state(1.3), cfg)
        assert abs(skewness_witness(dist)) < 1e-12

    def test_vacuum_vanishes(self):
        cfg = DetectorConfig.onoff(5, 0.9)
        dist = click_distribution(coherent_state(0.0), cfg)
        assert skewness_witness(dist) == pytest.approx(0.0, abs=1e-15)

    def test_matches_half_set_moment_determinant(self):
        cfg = DetectorConfig.onoff(5, 0.5)
        negatives = 0
        for s in np.logspace(-1, 0.8, 10):
            cat = make_cat(math.sqrt(s), "even")
            dist = click_distribution(cat, cfg)
            witness = skewness_witness(dist)
            det = moment_matrix(cat, cfg, HALF_SET).minors[-1]
            assert witness == pytest.approx(det, rel=1e-9, abs=1e-14)
            negatives += witness < 0
        assert negatives > 0


def test_wide_onoff_sweep_evaluates_tail_series_once_per_kernel_call(monkeypatch):
    # the tail series of pi_K is shared by every exponent tuple of a kernel
    # call, so a sweep must not re-evaluate it per matrix entry
    from clickwitness import detectors, witnesses

    calls = {"tail": 0, "kernel": 0}
    tail_series, kernel = detectors._tail_series, witnesses.povm_product_value

    def counted_tail(*args):
        calls["tail"] += 1
        return tail_series(*args)

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(detectors, "_tail_series", counted_tail)
    monkeypatch.setattr(witnesses, "povm_product_value", counted_kernel)
    cfg = DetectorConfig.onoff(31, 0.5)
    stack = CoherentStack([make_cat(math.sqrt(s), parity)
                           for s in np.logspace(-2, 1.5, 10)
                           for parity in ("even", "odd")])
    values = {}
    for iset in enumerate_index_sets(cfg):
        for kind in ("counts", "moments"):
            min_eig_sweep(stack, cfg, kind, iset, values)
    assert len(values) == 63
    # (0, 31) closes the half-set counts, after which every half-set moment
    # (0, s) is known and that matrix needs no kernel call
    assert calls["kernel"] == 3
    assert 1 <= calls["tail"] <= calls["kernel"]
