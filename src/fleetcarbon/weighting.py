"""Duty-cycle balancing across hardware generations.

Newer generations tend to run at higher utilization, and higher duty
cycles mean better energy per FLOP, so raw cross-generation comparisons
conflate hardware gains with usage patterns. This module removes that
confounding by stratifying on duty-cycle levels: take each generation's
mean within every duty bucket it populates, and combine those means
weighted by the bucket's pooled size over all generations.

`balanced_comparison` reads the strata straight from the telemetry
ledger: `ingest` has already folded every complete row into a
(platform, duty-bucket) `Cell` holding its count and exact sums, so the
comparison touches one cell per stratum and no row. Energy and carbon per
ExaFLOP follow from the balanced power and FLOP rate through `cci`'s
formulas. `propensity_scores`, `weights` and `weighted_average` give the
same estimate from per-row `Observation`s by inverse-propensity weighting
(IPW): each observation weighted by the inverse of its generation's share
of its bucket. They are kept as the independent reference the tests
compare against. Scores and weights are exact rationals (counts over
counts), which makes the reweighted per-bucket mass identities hold
exactly, not just within float tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .cci import kwh_per_exaflop, operational_cci
from .errors import ComputationError
from .telemetry import INTERVAL_SECONDS, BucketScheme, Cell


@dataclass(frozen=True)
class Observation:
    """One machine-interval: which generation, how busy, its power and FLOP rate."""

    generation: str
    duty_cycle: float
    power_w: float
    flops_per_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle {self.duty_cycle} outside [0, 1]")
        if not (math.isfinite(self.power_w) and math.isfinite(self.flops_per_s)):
            raise ValueError("power_w and flops_per_s must be finite")


@dataclass(frozen=True)
class PropensityScores:
    """Per (bucket, generation) share of the bucket's observations."""

    scheme: BucketScheme
    bucket_totals: dict[int, int]
    counts: dict[tuple[int, str], int]

    def score(self, bucket: int, generation: str) -> Fraction:
        count = self.counts.get((bucket, generation), 0)
        if count == 0:
            raise ComputationError(
                f"generation {generation!r} has no observations in bucket {bucket}"
            )
        return Fraction(count, self.bucket_totals[bucket])

    def generations(self) -> tuple[str, ...]:
        return tuple(sorted({gen for (_, gen) in self.counts}))

    def missing_pairs(self) -> tuple[tuple[int, str], ...]:
        """(bucket, generation) pairs where a populated bucket lacks a generation."""
        gens = self.generations()
        return tuple(
            (bucket, gen)
            for bucket in sorted(self.bucket_totals)
            for gen in gens
            if (bucket, gen) not in self.counts
        )


@dataclass(frozen=True)
class GenerationMetrics:
    generation: str
    observations: int
    weighted: dict[str, float]
    ratios: dict[str, float | None]  # vs the baseline generation
    no_overlap: bool = False


@dataclass(frozen=True)
class BalancedComparison:
    baseline: str
    scheme: BucketScheme
    per_generation: dict[str, GenerationMetrics]
    warnings: tuple[str, ...] = ()


def propensity_scores(cohort: list[Observation], scheme: BucketScheme) -> PropensityScores:
    """Count bucket shares per generation.

    Within each populated bucket the shares over generations sum to one;
    empty buckets simply carry no scores.
    """
    if not cohort:
        raise ComputationError("empty cohort")
    bucket_totals: dict[int, int] = {}
    counts: dict[tuple[int, str], int] = {}
    for obs in cohort:
        b = scheme.bucket_of(obs.duty_cycle)
        bucket_totals[b] = bucket_totals.get(b, 0) + 1
        key = (b, obs.generation)
        counts[key] = counts.get(key, 0) + 1
    return PropensityScores(scheme=scheme, bucket_totals=bucket_totals, counts=counts)


def weights(cohort: list[Observation], scores: PropensityScores) -> list[Fraction]:
    """Inverse-propensity weight for each observation, in cohort order.

    An observation's own presence guarantees its (bucket, generation)
    count is positive, so every weight is finite and strictly positive.
    """
    scheme = scores.scheme
    return [
        1 / scores.score(scheme.bucket_of(obs.duty_cycle), obs.generation) for obs in cohort
    ]


def weighted_average(values: list[float], obs_weights: list[Fraction | float]) -> float:
    """Plain weighted mean: sum(w*v) / sum(w)."""
    if len(values) != len(obs_weights):
        raise ValueError("values and weights differ in length")
    if not values:
        raise ComputationError("empty selection")
    total_weight = math.fsum(float(w) for w in obs_weights)
    if total_weight <= 0:
        raise ComputationError("weights sum to zero")
    return math.fsum(float(w) * v for w, v in zip(obs_weights, values)) / total_weight


# Per-cell means of the three balanced metrics.
_CELL_MEANS = (
    ("duty_cycle", lambda cell: math.fsum(cell.duty) / cell.count),
    ("power_w", lambda cell: math.fsum(cell.power) / cell.count),
    ("flops_per_s", lambda cell: cell.flops / INTERVAL_SECONDS / cell.count),
)


def balanced_comparison(
    cohort: Mapping[tuple[str, int], Cell],
    scheme: BucketScheme,
    baseline: str,
    factor_g_per_kwh: float = 0.0,
    pue: float = 1.0,
) -> BalancedComparison:
    """Duty-balanced per-generation metrics plus ratios against a baseline.

    `cohort` maps (generation, bucket under `scheme`) to the cell of that
    generation's rows in that bucket. Each metric is the stratified mean
    sum(pooled_b * mean_b) / sum(pooled_b) over the buckets b the
    generation populates: pooled_b counts the bucket's rows over all
    generations, mean_b is the generation's mean within the bucket.
    Generations sharing no populated bucket with the baseline violate
    positivity; they are flagged "no overlap" and their ratios withheld
    rather than extrapolated. Buckets missing a generation are reported as
    warnings.
    """
    counts = {(b, gen): cell.count for (gen, b), cell in cohort.items()}
    bucket_totals: dict[int, int] = {}
    for (b, _), count in counts.items():
        bucket_totals[b] = bucket_totals.get(b, 0) + count
    scores = PropensityScores(scheme, bucket_totals, counts)
    generations = scores.generations()
    if len(generations) < 2:
        raise ComputationError("balanced comparison needs at least two generations")
    if baseline not in generations:
        raise ComputationError(f"baseline generation {baseline!r} not present in cohort")

    warnings = [
        f"bucket {bucket} has no {gen!r} observations (positivity violation)"
        for bucket, gen in scores.missing_pairs()
    ]

    buckets_of = {gen: {b for (b, g) in scores.counts if g == gen} for gen in generations}
    weighted: dict[str, dict[str, float]] = {}
    for gen in generations:
        strata = [(scores.bucket_totals[b], cohort[gen, b]) for b in buckets_of[gen]]
        mass = sum(pooled for pooled, _ in strata)
        metrics = {
            name: math.fsum(pooled * mean(cell) for pooled, cell in strata) / mass
            for name, mean in _CELL_MEANS
        }
        if metrics["flops_per_s"] > 0:
            energy_per_ef = kwh_per_exaflop(metrics["power_w"], metrics["flops_per_s"], pue)
            metrics["energy_kwh_per_exaflop"] = energy_per_ef
            metrics["carbon_g_per_exaflop"] = operational_cci(energy_per_ef, factor_g_per_kwh)
        weighted[gen] = metrics

    base_metrics = weighted[baseline]
    per_generation: dict[str, GenerationMetrics] = {}
    for gen in generations:
        overlap = gen == baseline or bool(buckets_of[gen] & buckets_of[baseline])
        if not overlap:
            warnings.append(f"generation {gen!r} shares no duty-cycle bucket with {baseline!r}: no overlap")
        ratios: dict[str, float | None] = {}
        for key, value in weighted[gen].items():
            base_value = base_metrics.get(key)
            if overlap and base_value:
                ratios[key] = value / base_value
            else:
                ratios[key] = None
        per_generation[gen] = GenerationMetrics(
            generation=gen,
            observations=sum(scores.counts[b, gen] for b in buckets_of[gen]),
            weighted=weighted[gen],
            ratios=ratios,
            no_overlap=not overlap,
        )
    return BalancedComparison(
        baseline=baseline,
        scheme=scheme,
        per_generation=per_generation,
        warnings=tuple(warnings),
    )
