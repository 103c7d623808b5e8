"""Goodness-of-fit helpers for comparing sampled laws against exact ones."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence


@dataclass(frozen=True)
class StatReport:
    """Outcome of one statistical check."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    sample_size: int
    dof: int

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: statistic {self.statistic:.4f} vs threshold "
            f"{self.threshold:.4f} (dof {self.dof}, n {self.sample_size}) "
            f"[{verdict}]"
        )


def _check_nonnegative(law: Mapping, what: str) -> None:
    for key, prob in law.items():
        if Fraction(prob) < 0:
            raise ValueError(f"{what} probability of {key!r} is negative: {prob}")


def _check_support(extra: list) -> None:
    if extra:
        raise ValueError(f"observed outcomes outside the expected support: {extra[:5]}")


def tv_distance(p: Mapping, q: Mapping) -> float:
    """Total variation distance between two laws on a shared countable space.

    Raises ValueError, naming the cell, on a negative probability.
    """
    _check_nonnegative(p, "first law's")
    _check_nonnegative(q, "second law's")
    keys = set(p) | set(q)
    total = Fraction(0)
    for k in keys:
        total += abs(Fraction(p.get(k, 0)) - Fraction(q.get(k, 0)))
    return float(total) / 2.0


def empirical_law(samples: Sequence) -> dict:
    """Observed frequencies as exact fractions of the sample size."""
    counts: dict = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    n = len(samples)
    return {k: Fraction(v, n) for k, v in counts.items()}


def chi_square(
    observed: Mapping,
    expected: Mapping,
    significance: float = 0.01,
    name: str = "chi-square",
) -> StatReport:
    """Pearson goodness-of-fit with low-expectation cells pooled.

    `observed` maps outcomes to counts; `expected` maps the same outcomes to
    nonnegative probabilities summing to one.  Outcomes are sorted by
    ascending expected probability and merged greedily until every pooled
    cell expects at least five counts; the statistic is compared against the
    upper `significance` quantile of the chi-square law with (cells - 1)
    degrees of freedom.  Observed outcomes missing from `expected`, and
    positive counts on outcomes of expected probability 0, are rejected,
    since any mass outside the support already falsifies the law; so is a
    negative expected probability.  The quantile inverts the closed-form
    chi-square tail for integer dof by bisection, in the standard library
    alone.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie strictly between 0 and 1, not {significance}")
    _check_support([k for k in observed if k not in expected])
    _check_nonnegative(expected, "expected")
    total_prob = sum(Fraction(v) for v in expected.values())
    if abs(total_prob - 1) > Fraction(1, 10**12):
        raise ValueError(f"expected probabilities sum to {float(total_prob)}, not 1")
    for key, count in observed.items():
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"observed count of {key!r} is not a non-negative integer: {count!r}")
    _check_support([k for k, count in observed.items() if count and not Fraction(expected[k])])
    n = sum(observed.values())
    if n <= 0:
        raise ValueError("need at least one observation")

    cells = sorted(expected.items(), key=lambda kv: (Fraction(kv[1]), repr(kv[0])))
    pooled: list[tuple[float, int]] = []
    acc_p = Fraction(0)
    acc_o = 0
    for key, prob in cells:
        acc_p += Fraction(prob)
        acc_o += observed.get(key, 0)
        if acc_p * n >= 5:
            pooled.append((float(acc_p), acc_o))
            acc_p = Fraction(0)
            acc_o = 0
    if acc_p > 0 or acc_o > 0:
        if pooled:
            last_p, last_o = pooled.pop()
            pooled.append((last_p + float(acc_p), last_o + acc_o))
        else:
            pooled.append((float(acc_p), acc_o))
    if len(pooled) < 2:
        raise ValueError("too few cells after pooling; need a larger sample")

    statistic = sum((o - n * p) ** 2 / (n * p) for p, o in pooled)
    dof = len(pooled) - 1
    threshold = _chi2_upper_quantile(significance, dof)
    return StatReport(
        name=name,
        statistic=float(statistic),
        threshold=threshold,
        passed=statistic <= threshold,
        sample_size=n,
        dof=dof,
    )


def _chi2_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer `dof` (Abramowitz-Stegun 26.4.4/5).

    With h = x/2 the tail is the sum of h**j * exp(-h) / Gamma(j + 1) over
    j = 0, 1, ... (even dof) or j = 1/2, 3/2, ... (odd dof, plus erfc(sqrt h))
    up to dof/2 - 1; each term is formed in log space, so at large dof neither
    h**j nor Gamma(j + 1) overflows and exp(-h) does not underflow alone.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    half = 0.5 if dof % 2 else 0.0
    terms = [
        math.exp((half + i) * log_h - h - math.lgamma(half + i + 1.0))
        for i in range(dof // 2)
    ]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)


def _chi2_upper_quantile(significance: float, dof: int) -> float:
    """The x with P(X > x) = significance: bracket by doubling, then bisect."""
    lo, hi = 0.0, float(dof)
    while _chi2_tail(hi, dof) > significance:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _chi2_tail(mid, dof) > significance:
            lo = mid
        else:
            hi = mid
