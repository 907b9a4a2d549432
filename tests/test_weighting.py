import math
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcarbon.errors import ComputationError
from fleetcarbon.telemetry import INTERVAL_SECONDS, BucketScheme, Cell
from fleetcarbon.weighting import (
    Observation,
    balanced_comparison,
    propensity_scores,
    weighted_average,
    weights,
)

# One machine-interval as telemetry reports it: generation, duty cycle,
# machine power (W), and the interval's FLOPs.
Row = namedtuple("Row", "generation duty_cycle power_w flops")


def obs(gen, duty, power=1000.0, flops=3 * 10**15):
    return Row(gen, duty, power, flops)


def observations(rows):
    """The rows as inputs of the inverse-propensity-weighting reference."""
    return [Observation(r.generation, r.duty_cycle, r.power_w, r.flops / INTERVAL_SECONDS) for r in rows]


def cells(rows, scheme):
    """The rows folded into (generation, bucket) cells, as ingest folds them."""
    out = {}
    for r in rows:
        out.setdefault((r.generation, scheme.bucket_of(r.duty_cycle)), Cell()).add(r.power_w, r.duty_cycle, r.flops)
    return out


def compare(rows, scheme, baseline, **kwargs):
    return balanced_comparison(cells(rows, scheme), baseline=baseline, **kwargs)


def ipw_reference(cohort, scheme, generation, metric):
    """Inverse-propensity weighted mean of `metric` over one generation."""
    cohort = observations(cohort)
    scores = propensity_scores(cohort, scheme)
    group = [o for o in cohort if o.generation == generation]
    return weighted_average([metric(o) for o in group], weights(group, scores))


REFERENCE_METRICS = {
    "duty_cycle": lambda o: o.duty_cycle,
    "power_w": lambda o: o.power_w,
    "flops_per_s": lambda o: o.flops_per_s,
}


# observations whose duty cycles land in known buckets (0.05 -> bucket 0, ...)
def bucket_midpoint(bucket, n=10):
    return (bucket + 0.5) / n


cohort_strategy = st.lists(
    st.builds(
        obs,
        gen=st.sampled_from(["old", "new"]),
        duty=st.floats(0.0, 1.0, allow_nan=False),
        power=st.floats(100.0, 5000.0),
        flops=st.integers(3 * 10**14, 3 * 10**17),
    ),
    min_size=2,
    max_size=200,
).filter(lambda c: len({o.generation for o in c}) == 2)


class TestBucketScheme:
    def test_right_closed_intervals(self):
        scheme = BucketScheme(10)
        assert scheme.bucket_of(0.0) == 0  # zero stays in the first level
        assert scheme.bucket_of(0.1) == 0
        assert scheme.bucket_of(0.1000001) == 1
        assert scheme.bucket_of(0.3) == 2
        assert scheme.bucket_of(1.0) == 9

    @pytest.mark.parametrize("n", [0, 2**53 + 1, 10**400])
    def test_bucket_count_below_one_or_not_held_exactly_by_a_float_refused(self, n):
        with pytest.raises(ValueError, match="must be >= 1 and held exactly by a float"):
            BucketScheme(n)

    @given(st.floats(0.0, 1.0, allow_nan=False), st.integers(1, 50))
    def test_every_duty_lands_in_a_valid_bucket(self, duty, n):
        scheme = BucketScheme(n)
        b = scheme.bucket_of(duty)
        assert 0 <= b < n
        lo, hi = b / n, (b + 1) / n
        assert lo <= duty * (1 + 1e-12) and duty <= hi * (1 + 1e-12)


class TestPropensityScores:
    def test_thirty_seventy_example(self):
        cohort = [obs("v4", bucket_midpoint(3)) for _ in range(30)]
        cohort += [obs("v5p", bucket_midpoint(3)) for _ in range(70)]
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        assert scores.score(3, "v4") == Fraction(3, 10)
        assert scores.score(3, "v5p") == Fraction(7, 10)

    def test_single_generation_scores_one(self):
        cohort = [obs("only", bucket_midpoint(b)) for b in (0, 4, 9) for _ in range(3)]
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        for b in (0, 4, 9):
            assert scores.score(b, "only") == 1

    def test_uniform_fifty_fifty(self):
        cohort = []
        for b in range(10):
            cohort += [obs("a", bucket_midpoint(b)), obs("b", bucket_midpoint(b))]
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        for b in range(10):
            assert scores.score(b, "a") == Fraction(1, 2)
            assert scores.score(b, "b") == Fraction(1, 2)

    def test_shares_sum_to_one_per_bucket(self):
        cohort = [obs("a", 0.31), obs("b", 0.32), obs("b", 0.33), obs("c", 0.35)]
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        total = sum(scores.score(3, g) for g in ("a", "b", "c"))
        assert total == 1

    def test_empty_cohort_is_error(self):
        with pytest.raises(ComputationError, match="empty cohort"):
            propensity_scores([], BucketScheme(10))


class TestWeights:
    def test_inverse_of_scores(self):
        cohort = [obs("v4", bucket_midpoint(3)) for _ in range(30)]
        cohort += [obs("v5p", bucket_midpoint(3)) for _ in range(70)]
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        w = weights(observations(cohort), scores)
        assert w[0] == Fraction(10, 3)  # ~3.3
        assert w[-1] == Fraction(10, 7)  # ~1.4
        assert float(w[0]) == pytest.approx(3.3, abs=0.04)
        assert float(w[-1]) == pytest.approx(1.4, abs=0.03)

    def test_score_one_gives_weight_one(self):
        cohort = [obs("only", 0.5)]
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        assert weights(observations(cohort), scores) == [1]

    @given(cohort_strategy)
    def test_all_weights_strictly_positive(self, cohort):
        scores = propensity_scores(observations(cohort), BucketScheme(10))
        assert all(w > 0 for w in weights(observations(cohort), scores))

    @given(cohort_strategy)
    @settings(max_examples=50)
    def test_weighted_bucket_mass_equals_pooled_mass_exactly(self, cohort):
        scheme = BucketScheme(10)
        scores = propensity_scores(observations(cohort), scheme)
        w = weights(observations(cohort), scores)
        for gen in scores.generations():
            mass: dict[int, Fraction] = {}
            for o, wi in zip(cohort, w):
                if o.generation == gen:
                    b = scheme.bucket_of(o.duty_cycle)
                    mass[b] = mass.get(b, Fraction(0)) + wi
            for b, m in mass.items():
                assert m == scores.bucket_totals[b]  # exact rational identity


class TestWeightedAverage:
    def test_unit_weights_reduce_to_mean(self):
        values = [3.0, 5.0, 10.0]
        assert weighted_average(values, [1, 1, 1]) == pytest.approx(6.0)

    def test_two_point_example(self):
        assert weighted_average([10.0, 2.0], [3, 1]) == 8.0

    def test_empty_selection_is_error(self):
        with pytest.raises(ComputationError, match="empty selection"):
            weighted_average([], [])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.lists(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)), min_size=50, max_size=50),
    )
    def test_result_within_value_range(self, values, ws):
        ws = ws[: len(values)]
        result = weighted_average(values, ws)
        assert min(values) - 1e-6 <= result <= max(values) + 1e-6

    @given(cohort_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_permutation_invariance(self, cohort, rng):
        scheme = BucketScheme(10)
        cohort = observations(cohort)
        scores = propensity_scores(cohort, scheme)
        gen = cohort[0].generation
        group = [o for o in cohort if o.generation == gen]
        shuffled = list(group)
        rng.shuffle(shuffled)
        a = weighted_average([o.duty_cycle for o in group], weights(group, scores))
        b = weighted_average([o.duty_cycle for o in shuffled], weights(shuffled, scores))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


class TestBalancedComparison:
    def test_matches_ipw_reference(self):
        # the stratified estimator must equal inverse-propensity weighting
        cohort = []
        for b, (n_old, n_new) in enumerate([(5, 2), (3, 3), (1, 7), (4, 4)]):
            cohort += [obs("old", bucket_midpoint(b), power=1000 + 13 * b) for _ in range(n_old)]
            cohort += [obs("new", bucket_midpoint(b), power=900 + 7 * b) for _ in range(n_new)]
        scheme = BucketScheme(10)
        comparison = compare(cohort, scheme, "old")
        for gen in ("old", "new"):
            reference = ipw_reference(cohort, scheme, gen, REFERENCE_METRICS["power_w"])
            assert comparison.per_generation[gen].weighted["power_w"] == pytest.approx(
                reference, rel=1e-12
            )

    def test_identical_distributions_leave_metrics_unweighted(self):
        cohort = []
        for b in (1, 4, 7):
            for _ in range(4):
                cohort.append(obs("old", bucket_midpoint(b), power=1100.0, flops=6 * 10**15))
                cohort.append(obs("new", bucket_midpoint(b), power=700.0, flops=12 * 10**15))
        comparison = compare(cohort, BucketScheme(10), "old")
        for gen in ("old", "new"):
            group = [o for o in cohort if o.generation == gen]
            plain_power = math.fsum(o.power_w for o in group) / len(group)
            plain_duty = math.fsum(o.duty_cycle for o in group) / len(group)
            gm = comparison.per_generation[gen]
            assert gm.weighted["power_w"] == pytest.approx(plain_power, rel=1e-12)
            assert gm.weighted["duty_cycle"] == pytest.approx(plain_duty, rel=1e-12)

    def test_weighted_duty_cycles_equal_on_midpoint_cohorts(self):
        # different bucket distributions, but per-bucket means coincide
        cohort = [obs("old", bucket_midpoint(b)) for b in (0, 0, 0, 5, 9)]
        cohort += [obs("new", bucket_midpoint(b)) for b in (0, 5, 5, 9, 9, 9)]
        comparison = compare(cohort, BucketScheme(10), "old")
        d_old = comparison.per_generation["old"].weighted["duty_cycle"]
        d_new = comparison.per_generation["new"].weighted["duty_cycle"]
        assert d_old == pytest.approx(d_new, rel=1e-12)

    def test_no_overlap_flagged_not_reweighted(self):
        cohort = [obs("old", 0.15) for _ in range(5)] + [obs("new", 0.95) for _ in range(5)]
        comparison = compare(cohort, BucketScheme(10), "old")
        assert comparison.per_generation["new"].no_overlap
        assert comparison.per_generation["new"].ratios["power_w"] is None
        assert any("no overlap" in w for w in comparison.warnings)

    def test_missing_bucket_warning(self):
        cohort = [obs("old", 0.15), obs("old", 0.55), obs("new", 0.55)]
        comparison = compare(cohort, BucketScheme(10), "old")
        assert any("bucket 1" in w and "'new'" in w for w in comparison.warnings)

    def test_requires_two_generations(self):
        with pytest.raises(ComputationError, match="two generations"):
            compare([obs("only", 0.5)], BucketScheme(10), "only")

    def test_baseline_must_exist(self):
        cohort = [obs("a", 0.5), obs("b", 0.5)]
        with pytest.raises(ComputationError, match="baseline"):
            compare(cohort, BucketScheme(10), "zzz")

    def test_confounded_cohort_recovers_hardware_ratio(self):
        # the new generation runs hotter only because it is busier; at any
        # matched duty the energy-per-work ratio is the hardware ratio 2.0
        def power_at(duty, active):
            return active * (0.6 + 0.4 * duty)

        cohort = []
        for b, n_old, n_new in [(1, 30, 5), (3, 40, 10), (5, 20, 25), (7, 10, 40), (9, 2, 30)]:
            d = bucket_midpoint(b)
            cohort += [
                obs("old", d, power=power_at(d, 1000.0), flops=round(d * 3e15)) for _ in range(n_old)
            ]
            cohort += [
                obs("new", d, power=power_at(d, 1000.0), flops=round(d * 6e15)) for _ in range(n_new)
            ]
        comparison = compare(cohort, BucketScheme(10), "old")
        ratio = comparison.per_generation["new"].ratios["energy_kwh_per_exaflop"]
        assert ratio == pytest.approx(0.5, rel=1e-9)

    @given(cohort_strategy, st.floats(0.0, 1000.0), st.floats(1.0, 2.0))
    @settings(max_examples=100)
    def test_every_metric_matches_ipw_reference(self, cohort, factor, pue):
        scheme = BucketScheme(10)
        comparison = compare(cohort, scheme, "old", factor_g_per_kwh=factor, pue=pue)
        for gen in ("old", "new"):
            want = {
                name: ipw_reference(cohort, scheme, gen, metric)
                for name, metric in REFERENCE_METRICS.items()
            }
            energy = want["power_w"] / want["flops_per_s"] * 1e18 / 3.6e6 * pue
            want["energy_kwh_per_exaflop"] = energy
            want["carbon_g_per_exaflop"] = energy * factor
            got = comparison.per_generation[gen].weighted
            assert sorted(got) == sorted(want)
            for name, value in want.items():
                # abs only matters for subnormal results (tiny duty cycles or
                # factors), where no float carries 12 significant digits
                assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-300), name
