import math

import numpy as np
import pytest

from clickwitness import multimode
from clickwitness.detectors import DetectorConfig, factorial_moment, photo_distribution
from clickwitness.multimode import (
    DIVERGENT,
    MultiIndex,
    count_ratio_criterion,
    joint_counts,
    joint_moment,
    mean_total_photons,
    mode_class_patterns,
    multimode_matrices,
    ratio_criterion,
)
from clickwitness.numerics import MAX_DIM
from clickwitness.scenarios import StateInput
from clickwitness.states import coherent_state, make_cat
from clickwitness.witnesses import INDETERMINATE, NONCLASSICAL, NO_VIOLATION
from oracles import loop_multimode_matrices

MODE_COUNTS = (1, 2, 3, 5)


def cat_amplitudes(total_intensity, modes, rng=None):
    """Random complex amplitudes with the requested total intensity."""
    if rng is None:
        return tuple(math.sqrt(total_intensity / modes) for _ in range(modes))
    weights = rng.dirichlet(np.ones(modes))
    phases = rng.uniform(0, 2 * np.pi, size=modes)
    return tuple(
        math.sqrt(total_intensity * w) * np.exp(1j * ph)
        for w, ph in zip(weights, phases)
    )


def closed_form_moment(amps, parity, index, eta=1.0):
    """|alpha^m|^2 [1 +/- (-1)^|m| exp(-2 s)] / [1 +/- exp(-2 s)], eta-scaled."""
    sign = 1.0 if parity == "even" else -1.0
    s = sum(abs(a) ** 2 for a in amps)
    ms = index.to_ints()
    mag = math.prod(abs(a) ** (2 * m) for a, m in zip(amps, ms))
    order = sum(ms)
    decay = math.exp(-2 * s)
    return (
        eta ** order
        * mag
        * (1.0 + sign * (-1.0) ** order * decay)
        / (1.0 + sign * decay)
    )


def closed_form_counts(amps, parity, index):
    """m! p_m = |alpha^m|^2 [1 +/- (-1)^|m|] / [exp(s) +/- exp(-s)] at eta = 1."""
    sign = 1.0 if parity == "even" else -1.0
    s = sum(abs(a) ** 2 for a in amps)
    ms = index.to_ints()
    mag = math.prod(abs(a) ** (2 * m) for a, m in zip(amps, ms))
    order = sum(ms)
    return (
        mag
        * (1.0 + sign * (-1.0) ** order)
        / (math.exp(s) + sign * math.exp(-s))
    )


class TestMultiIndex:
    def test_total_and_classes(self):
        idx = MultiIndex.of(("1/2", 1, "3/2"))
        assert idx.total().twice == 6
        assert not idx.is_whole
        assert (idx + idx).is_whole

    def test_factorial(self):
        assert MultiIndex.of((3, 2, 0)).factorial() == 12

    def test_scaling(self):
        assert (MultiIndex.of(("1/2", "3/2")) * 2).to_ints() == (1, 3)

    def test_mode_mismatch(self):
        with pytest.raises(ValueError):
            MultiIndex.of((1, 2)) + MultiIndex.of((1,))


class TestJointMoment:
    def test_product_coherent(self):
        betas = (0.9, 1.3)
        eta = 0.6
        state = coherent_state(betas, modes=2)
        idx = MultiIndex.of((2, 1))
        expected = (eta * 0.9 ** 2) ** 2 * (eta * 1.3 ** 2)
        assert joint_moment(state, idx, eta) == pytest.approx(expected, rel=1e-12)

    def test_matches_closed_form_across_grid(self):
        rng = np.random.default_rng(2)
        for modes in MODE_COUNTS:
            for s in np.logspace(-3, 1, 9):
                amps = cat_amplitudes(s, modes, rng)
                parts = tuple(int(rng.integers(0, 3)) for _ in range(modes))
                idx = MultiIndex.of(parts)
                for parity in ("even", "odd"):
                    state = make_cat(amps, parity)
                    got = joint_moment(state, idx, 0.7)
                    want = closed_form_moment(amps, parity, idx, 0.7)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-280)

    def test_half_integer_exponents_rejected(self):
        state = make_cat((1.0, 1.0), "even")
        with pytest.raises(ValueError):
            joint_moment(state, MultiIndex.of(("1/2", "1/2")))

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            joint_moment(make_cat(1.0, "even"), MultiIndex.of((1, 0)))


class TestJointCounts:
    def test_vacuum(self):
        state = coherent_state((0.0, 0.0), modes=2)
        assert joint_counts(state, MultiIndex.of((0, 0))) == pytest.approx(1.0)

    def test_even_cat_odd_total_vanishes(self):
        state = make_cat((0.8, 0.5), "even")
        assert joint_counts(state, MultiIndex.of((1, 0))) == 0.0
        assert joint_counts(state, MultiIndex.of((1, 2))) == 0.0

    def test_product_coherent_gives_poisson_products(self):
        betas = (0.7, 1.1)
        state = coherent_state(betas, modes=2)
        idx = MultiIndex.of((1, 2))
        expected = math.prod(
            math.exp(-abs(b) ** 2) * abs(b) ** (2 * m) / math.factorial(m)
            for b, m in zip(betas, idx.to_ints())
        )
        assert joint_counts(state, idx) == pytest.approx(expected, rel=1e-12)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for modes in (1, 2, 3):
            for s in (0.2, 1.0, 4.0):
                amps = cat_amplitudes(s, modes, rng)
                idx = MultiIndex.of(tuple(int(rng.integers(0, 3)) for _ in range(modes)))
                for parity in ("even", "odd"):
                    state = make_cat(amps, parity)
                    got = idx.factorial() * joint_counts(state, idx)
                    want = closed_form_counts(amps, parity, idx)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_single_mode_reduction_matches_photo_distribution(self):
        eta, s = 0.5, 1.2
        state = make_cat(math.sqrt(s), "odd")
        dist = photo_distribution(state, DetectorConfig.photoelectric(eta), n_max=30)
        for m in range(5):
            got = joint_counts(state, MultiIndex.of((m,)), eta)
            assert got == pytest.approx(dist.prob(m), rel=1e-11, abs=1e-15)


class TestTotalPhotonNumber:
    def test_closed_form(self):
        for modes in MODE_COUNTS:
            for s in (0.1, 1.0, 5.0):
                amps = cat_amplitudes(s, modes)
                even = mean_total_photons(make_cat(amps, "even"))
                odd = mean_total_photons(make_cat(amps, "odd"))
                assert even == pytest.approx(s * math.tanh(s), rel=1e-12)
                assert odd == pytest.approx(s / math.tanh(s), rel=1e-12)

    def test_odd_cat_lower_bound(self):
        for s in np.logspace(-6, 1, 12):
            odd = mean_total_photons(make_cat(math.sqrt(s), "odd"))
            assert odd >= 1.0
        tiny = mean_total_photons(make_cat(math.sqrt(1e-6), "odd"))
        assert tiny == pytest.approx(1.0, abs=1e-5)

    def test_single_mode_reduction_matches_factorial_moment(self):
        eta, s = 0.7, 1.5
        state = make_cat(math.sqrt(s), "even")
        cfg = DetectorConfig.photoelectric(eta)
        assert mean_total_photons(state, eta) == pytest.approx(
            factorial_moment(state, cfg, 1), rel=1e-12
        )


class TestModePermutationSymmetry:
    def test_outputs_invariant_under_permutation(self):
        rng = np.random.default_rng(12)
        amps = cat_amplitudes(1.7, 3, rng)
        idx = MultiIndex.of((2, 0, 1))
        perm = (2, 0, 1)
        amps_p = tuple(amps[j] for j in perm)
        idx_p = MultiIndex.of(tuple(idx.to_ints()[j] for j in perm))
        for parity in ("even", "odd"):
            a = joint_moment(make_cat(amps, parity), idx, 0.8)
            b = joint_moment(make_cat(amps_p, parity), idx_p, 0.8)
            assert a == pytest.approx(b, rel=1e-12)
            ca = joint_counts(make_cat(amps, parity), idx)
            cb = joint_counts(make_cat(amps_p, parity), idx_p)
            assert ca == pytest.approx(cb, rel=1e-12, abs=1e-16)


class TestRatioCriterion:
    def test_case_ii_closed_form(self):
        for modes in MODE_COUNTS:
            s = 1.0
            amps = cat_amplitudes(s, modes)
            n = MultiIndex.of((0,) * modes)
            m = MultiIndex.of((1,) + (0,) * (modes - 1))
            odd = ratio_criterion(make_cat(amps, "odd"), n, m)
            even = ratio_criterion(make_cat(amps, "even"), n, m)
            assert odd.case == even.case == "ii"
            assert odd.ratio == pytest.approx(1 / math.tanh(s) ** 2, rel=1e-12)
            assert even.ratio == pytest.approx(math.tanh(s) ** 2, rel=1e-12)
            assert odd.verdict == NONCLASSICAL
            assert even.verdict == NO_VIOLATION

    def test_case_iii_closed_form(self):
        s = 0.8
        n = MultiIndex.of(("1/2", 0))
        m = MultiIndex.of(("3/2", 0))
        amps = cat_amplitudes(s, 2)
        even = ratio_criterion(make_cat(amps, "even"), n, m)
        odd = ratio_criterion(make_cat(amps, "odd"), n, m)
        assert even.case == odd.case == "iii"
        assert even.ratio == pytest.approx(1 / math.tanh(s) ** 2, rel=1e-12)
        assert odd.ratio == pytest.approx(math.tanh(s) ** 2, rel=1e-12)
        assert even.verdict == NONCLASSICAL

    def test_cases_i_and_iv_are_trivial(self):
        s = 1.3
        amps = cat_amplitudes(s, 2)
        case_i = (MultiIndex.of((0, 0)), MultiIndex.of((2, 0)))
        case_iv = (MultiIndex.of(("1/2", 0)), MultiIndex.of(("5/2", 0)))
        for n, m, label in (*[(*case_i, "i")], *[(*case_iv, "iv")]):
            for parity in ("even", "odd"):
                result = ratio_criterion(make_cat(amps, parity), n, m)
                assert result.case == label
                assert result.ratio == pytest.approx(1.0, abs=1e-13)
                assert result.verdict == NO_VIOLATION

    def test_efficiency_cancels(self):
        state = make_cat(cat_amplitudes(0.9, 2), "odd")
        n = MultiIndex.of((0, 0))
        m = MultiIndex.of((1, 0))
        r1 = ratio_criterion(state, n, m, eta=1.0)
        r2 = ratio_criterion(state, n, m, eta=0.35)
        assert r1.ratio == pytest.approx(r2.ratio, rel=1e-12)

    def test_macroscopic_limit(self):
        amps = cat_amplitudes(20.0, 2)
        n_ii = MultiIndex.of((0, 0))
        m_ii = MultiIndex.of((1, 0))
        odd = ratio_criterion(make_cat(amps, "odd"), n_ii, m_ii)
        assert odd.ratio == pytest.approx(1.0, abs=1e-3)

    def test_mixed_classes_rejected(self):
        state = make_cat(cat_amplitudes(1.0, 2), "even")
        with pytest.raises(ValueError):
            ratio_criterion(state, MultiIndex.of((0, 0)), MultiIndex.of(("1/2", 0)))

    @pytest.mark.parametrize("modes", MODE_COUNTS)
    def test_stack_matches_each_point(self, modes):
        # fig6's order of calls: the mean photon number, then every case, on
        # one stack of both labels whose factors are memoized between them
        grid = (0.3, 1.0, 4.0)
        cats = StateInput("cat", parity="both", modes=modes)
        zeros = (0,) * (modes - 1)
        pairs = [((0,), (2,)), ((0,), (1,)), (("1/2",), ("3/2",)), (("1/2",), ("5/2",))]
        labels, stack = cats.stack(grid)
        states = [[dict(cats.build(alpha2))[label] for alpha2 in grid] for label in labels]
        mean = mean_total_photons(stack)
        assert mean.tolist() == [[mean_total_photons(state) for state in row] for row in states]
        for n_raw, m_raw in pairs:
            n, m = MultiIndex.of(n_raw + zeros), MultiIndex.of(m_raw + zeros)
            got = ratio_criterion(stack, n, m)
            points = [[ratio_criterion(state, n, m) for state in row] for row in states]
            assert got.ratio.tolist() == [[p.ratio for p in row] for row in points]
            assert got.verdict.tolist() == [[p.verdict for p in row] for row in points]


class TestRatioResult:
    def test_nan_ratios_have_no_verdict(self):
        # inf / inf, as from moments beyond the float range, was no_violation
        numer = np.array([[math.inf, 4.0], [0.0, 1.0]])
        denom = np.array([[math.inf, 2.0], [0.0, 1.0]])
        for divergent in (False, True):
            with np.errstate(invalid="ignore"):
                result = multimode._ratio_result(numer, denom, "iii", divergent)
            assert np.isnan(result.ratio[0, 0]) and np.isnan(result.ratio[1, 0])
            assert result.ratio[:, 1].tolist() == [2.0, 1.0]
            assert result.verdict.tolist() == [[INDETERMINATE, NONCLASSICAL],
                                               [INDETERMINATE, NO_VIOLATION]]


class TestCountRatioCriterion:
    def test_divergent_at_unit_efficiency(self):
        state = make_cat(cat_amplitudes(1.0, 2), "odd")
        n = MultiIndex.of((0, 0))
        m = MultiIndex.of((1, 0))
        result = count_ratio_criterion(state, n, m, eta=1.0)
        assert math.isinf(result.ratio)
        assert result.verdict == DIVERGENT

    def test_indeterminate_when_numerator_vanishes_too(self):
        # odd cat with an even total: every parity-forbidden coincidence
        # vanishes identically, leaving a formal 0/0
        state = make_cat(cat_amplitudes(1.0, 2), "odd")
        n = MultiIndex.of((0, 0))
        m = MultiIndex.of((2, 0))
        result = count_ratio_criterion(state, n, m, eta=1.0)
        assert math.isnan(result.ratio)
        assert result.verdict == INDETERMINATE

    def test_odd_cat_violates_at_half_efficiency(self):
        state = make_cat(cat_amplitudes(1.0, 2), "odd")
        result = count_ratio_criterion(
            state, MultiIndex.of((0, 0)), MultiIndex.of((1, 0)), eta=0.5
        )
        assert result.ratio > 1.0
        assert result.verdict == NONCLASSICAL

    def test_even_cat_half_indices_violate(self):
        state = make_cat(cat_amplitudes(1.0, 2), "even")
        result = count_ratio_criterion(
            state, MultiIndex.of(("1/2", 0)), MultiIndex.of(("3/2", 0)), eta=0.5
        )
        assert result.ratio > 1.0

    def test_coherent_products_stay_classical(self):
        state = coherent_state((0.8, 1.2), modes=2)
        for n_raw, m_raw in (((0, 0), (1, 0)), ((1, 0), (0, 1))):
            result = count_ratio_criterion(
                state, MultiIndex.of(n_raw), MultiIndex.of(m_raw), eta=0.5
            )
            assert result.ratio <= 1.0 + 1e-10


    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_stack_matches_each_point(self, eta):
        grid = (0.5, 1.0, 2.0)
        cats = StateInput("cat", parity="both", modes=2)
        pairs = [((0, 0), (1, 0)), ((0, 0), (2, 0)), (("1/2", 0), ("3/2", 0)),
                 ((1, 0), (0, 1))]
        verdicts = set()
        labels, stack = cats.stack(grid)
        states = [[dict(cats.build(alpha2))[label] for alpha2 in grid] for label in labels]
        for n_raw, m_raw in pairs:
            n, m = MultiIndex.of(n_raw), MultiIndex.of(m_raw)
            got = count_ratio_criterion(stack, n, m, eta)
            points = [[count_ratio_criterion(state, n, m, eta) for state in row]
                      for row in states]
            assert got.case == points[0][0].case
            assert np.array_equal(got.ratio, [[p.ratio for p in row] for row in points],
                                  equal_nan=True)
            assert got.verdict.tolist() == [[p.verdict for p in row] for row in points]
            verdicts.update(p.verdict for row in points for p in row)
        if eta == 1.0:
            # parity-forbidden coincidences make denominators vanish
            assert {DIVERGENT, INDETERMINATE} <= verdicts


class TestMultimodeMatrices:
    def test_pattern_enumeration(self):
        patterns = list(mode_class_patterns(2))
        assert patterns == [
            ("integer", "integer"),
            ("half", "integer"),
            ("integer", "half"),
            ("half", "half"),
        ]

    def test_coherent_products_are_psd_for_all_patterns(self):
        state = coherent_state((0.9, 0.6), modes=2)
        example_sets = {
            ("integer", "integer"): ((0, 0), (1, 0), (0, 1)),
            ("half", "integer"): (("1/2", 0), ("3/2", 0), ("1/2", 1)),
            ("integer", "half"): ((0, "1/2"), (1, "1/2")),
            ("half", "half"): (("1/2", "1/2"), ("3/2", "1/2")),
        }
        for pattern in mode_class_patterns(2):
            elements = example_sets[pattern]
            for kind in ("moments", "counts"):
                report = multimode_matrices(state, elements, eta=0.7, kind=kind)
                assert report.min_eig >= -report.tolerance

    def test_odd_cat_integer_pair_detects(self):
        state = make_cat(cat_amplitudes(1.0, 2), "odd")
        report = multimode_matrices(state, ((0, 0), (1, 0)), kind="moments")
        assert report.minors[-1] < 0
        assert report.nonclassical

    def test_mixed_class_set_rejected(self):
        state = make_cat(cat_amplitudes(1.0, 2), "even")
        with pytest.raises(ValueError):
            multimode_matrices(state, ((0, 0), ("1/2", 0)))

    def test_mode_mismatch_rejected(self):
        state = make_cat(1.0, "even")
        with pytest.raises(ValueError):
            multimode_matrices(state, ((0, 0), (1, 0)))

    @pytest.mark.parametrize("kind", ["moments", "counts"])
    def test_oversized_set_rejected_before_evaluation(self, kind, monkeypatch):
        calls = []
        monkeypatch.setattr(multimode, "joint_moment", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(multimode, "joint_counts", lambda *a, **k: calls.append(a))
        state = coherent_state((0.9, 0.6), modes=2)
        elements = [(k, 0) for k in range(MAX_DIM + 1)]
        with pytest.raises(ValueError, match=f"dimension {MAX_DIM + 1}.*dimension {MAX_DIM}"):
            multimode_matrices(state, elements, kind=kind)
        assert calls == []

    @pytest.mark.parametrize("kind", ["moments", "counts"])
    @pytest.mark.parametrize("elements, message", [
        (((0, 0), ("1/2", 0)), "does not sum to whole integers"),
        (((0, 0), (1, 0, 0)), "must share a width"),
        (((0, 0), (-1, 0)), "negative index"),
        ((), "is empty"),
    ])
    def test_invalid_set_rejected_before_evaluation(self, elements, message, kind,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(multimode, "joint_moment", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(multimode, "joint_counts", lambda *a, **k: calls.append(a))
        state = coherent_state((0.9, 0.6), modes=2)
        with pytest.raises(ValueError, match=message):
            multimode_matrices(state, elements, kind=kind)
        assert calls == []

    @pytest.mark.parametrize("kind", ["moments", "counts"])
    def test_stack_rejected_before_evaluation(self, kind, monkeypatch):
        calls = []
        monkeypatch.setattr(multimode, "joint_moment", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(multimode, "joint_counts", lambda *a, **k: calls.append(a))
        _, stack = StateInput("cat", parity="odd", modes=2).stack((0.5, 1.0))
        with pytest.raises(ValueError, match="takes one state"):
            multimode_matrices(stack, ((0, 0), (1, 0)), kind=kind)
        assert calls == []

    def test_set_at_dimension_cap_evaluates(self):
        state = coherent_state((0.3, 0.2), modes=2)
        elements = [(k, 0) for k in range(MAX_DIM)]
        report = multimode_matrices(state, elements + elements[:3], kind="moments")
        assert report.matrix.dim == MAX_DIM


MULTIMODE_SETS = (
    ((0, 0), (1, 0), (0, 1)),
    (("1/2", 0), ("3/2", 0), ("1/2", 1)),
    (("1/2", "1/2"), ("3/2", "1/2"), ("1/2", "3/2"), ("3/2", "3/2")),
)


def multimode_states():
    for alpha in (0.3, 0.9, 1.7):
        yield make_cat(alpha, "even", 2)
        yield make_cat(alpha, "odd", 2)
        yield coherent_state((alpha, 0.5 * alpha), 2)


class TestMultimodeAssembly:
    @pytest.mark.parametrize("kind", ["moments", "counts"])
    def test_matches_the_per_entry_build(self, kind):
        for state in multimode_states():
            for elements in MULTIMODE_SETS:
                got = multimode_matrices(state, elements, eta=0.8, kind=kind)
                want = loop_multimode_matrices(state, elements, 0.8, kind)
                # repr tells -0.0 from 0.0
                assert repr(got.matrix.entries.tolist()) == repr(want.matrix.entries.tolist())
                assert repr(got.min_eig) == repr(want.min_eig)
                assert repr(got.minors) == repr(want.minors)
                assert (got.labels, got.source) == (want.labels, want.source)

    @pytest.mark.parametrize("kind, evaluator", [
        ("moments", "joint_moment"), ("counts", "joint_counts"),
    ])
    def test_each_pair_sum_evaluated_once(self, kind, evaluator, monkeypatch):
        calls = {"joint_moment": [], "joint_counts": []}
        for name, log in calls.items():
            original = getattr(multimode, name)
            monkeypatch.setattr(multimode, name,
                                lambda state, index, eta=1.0, f=original, log=log:
                                log.append(index) or f(state, index, eta))
        elements = MULTIMODE_SETS[2]
        multimode_matrices(make_cat(1.0, "odd", 2), elements, kind=kind)
        labels = [MultiIndex.of(e) for e in elements]
        sums = {a + b for a in labels for b in labels}
        # 10 entries share 9 pair sums: (3/2,1/2)+(1/2,3/2) = (1/2,1/2)+(3/2,3/2)
        assert len(sums) == 9
        assert sorted(calls[evaluator]) == sorted(sums)
        assert sum(len(log) for log in calls.values()) == len(sums)
