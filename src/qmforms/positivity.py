"""Coefficient-sign analytics for the level-2 difference constructions.

Everything here is exact: sign scans walk stored rational coefficients,
density counts are integer counts, and the two closed-form inequality
facts behind the doubling check are verified in rational arithmetic with
explicit rational upper bounds replacing the irrational constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .extremal import form_by_label, x_w2
from .forms import sigma_table
from .qseries import FourierSeries

__all__ = [
    "DensityReport",
    "PositivityReport",
    "RatioReport",
    "PREDICTED_DENSITY",
    "check_complete_positivity",
    "ratio_infimum",
    "sign_pattern",
    "x122_doubling_check",
]

FormLike = Union[str, FourierSeries]

# Natural densities of {n : a_n > 0} on record for the difference
# constructions.  These are attached to density reports for comparison,
# never asserted.  Note: the recorded value for P2 is 3/4, but the exact
# coefficient of P2 at n = 2^k * m (k >= 1, m odd) is -2^k * sigma_1(m),
# so its true pattern is "positive iff n is odd" and the measured density
# converges to 1/2.  sign_pattern always reports the measurement.
PREDICTED_DENSITY: dict[str, Fraction] = {
    "P1": Fraction(1, 2),
    "P2": Fraction(3, 4),
    "P3": Fraction(1, 2),
    "P4": Fraction(1, 2),
    "X42Delta": Fraction(1, 2),
}


@dataclass(frozen=True)
class PositivityReport:
    """Result of an exact sign scan of one series up to a cutoff."""

    label: str
    order: Fraction
    first_negative: tuple[Fraction, Fraction] | None
    completely_positive_up_to_order: bool

    def to_json_dict(self) -> dict:
        first = self.first_negative
        return {
            "label": self.label,
            "order": str(self.order),
            "first_negative": None if first is None else [str(first[0]), str(first[1])],
            "completely_positive_up_to_order": self.completely_positive_up_to_order,
        }


@dataclass(frozen=True)
class DensityReport:
    """Exact count of positive coefficients a_n for 1 <= n <= n_limit."""

    label: str
    n_limit: int
    count_positive: int
    density: Fraction
    predicted: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "n_limit": self.n_limit,
            "count_positive": self.count_positive,
            "density": str(self.density),
            "predicted": None if self.predicted is None else str(self.predicted),
        }


@dataclass(frozen=True)
class RatioReport:
    """Minimum of a_{dilate*n}/a_n over n <= bound with a_n > 0.

    Positions n <= bound where a_n <= 0 cannot be used as denominators;
    they are listed under ``violations`` and skipped by the minimum.
    """

    label: str
    dilate: int
    bound: int
    min_ratio: Fraction | None
    argmin: int | None
    violations: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "dilate": self.dilate,
            "bound": self.bound,
            "min_ratio": None if self.min_ratio is None else str(self.min_ratio),
            "argmin": self.argmin,
            "violations": list(self.violations),
        }


def _resolve(form: FormLike, order: int) -> tuple[str, FourierSeries]:
    if isinstance(form, FourierSeries):
        return "<series>", form
    return form, form_by_label(form, order)


def check_complete_positivity(form: FormLike, order: int = 2000) -> PositivityReport:
    """Scan all stored coefficients with exponent <= order for a negative one.

    ``form`` is a label or a series.  A label is built exactly to the
    requested order; a supplied series must already store that far.
    """
    label, series = _resolve(form, order)
    through = Fraction(order)
    if through > series.order:
        raise ValueError(
            f"series stores only up to order {series.order}, cannot scan to {through}"
        )
    first: tuple[Fraction, Fraction] | None = None
    g = series.grain
    top = math.floor(through * g)  # last index with exponent <= through
    # the common denominator is positive, so numerators carry the signs
    for k, c in enumerate(series.nums[: max(top + 1, 0)]):
        if c < 0:
            first = (Fraction(k, g), Fraction(c, series.den))
            break
    return PositivityReport(label, through, first, first is None)


def sign_pattern(form: FormLike, n_limit: int) -> DensityReport:
    """Count n in 1..n_limit with a_n > 0 and attach any recorded density."""
    label, series = _resolve(form, n_limit)
    if series.order < n_limit:
        raise ValueError(
            f"series stores only up to order {series.order}, need {n_limit}"
        )
    # the common denominator is positive, so numerators carry the signs
    nums, g = series.nums, series.grain
    count = sum(1 for n in range(1, n_limit + 1) if nums[n * g] > 0)
    return DensityReport(
        label, n_limit, count, Fraction(count, n_limit), PREDICTED_DENSITY.get(label)
    )


def ratio_infimum(form: FormLike, n_dilate: int, bound: int) -> RatioReport:
    """Exact minimum of a_{n_dilate * n} / a_n over 1 <= n <= bound."""
    if n_dilate < 1 or bound < 1:
        raise ValueError("n_dilate and bound must be positive")
    label, series = _resolve(form, n_dilate * bound)
    if series.order < n_dilate * bound:
        raise ValueError(
            f"series stores only up to order {series.order}, "
            f"need {n_dilate * bound}"
        )
    violations: list[int] = []
    argmin: int | None = None
    # the common denominator cancels from every ratio; the minimum num/den (den > 0) is kept as ints
    nums, g = series.nums, series.grain
    for n in range(1, bound + 1):
        a_n = nums[n * g]
        if a_n <= 0:
            violations.append(n)
        elif argmin is None or nums[n_dilate * n * g] * den < num * a_n:
            num, den, argmin = nums[n_dilate * n * g], a_n, n
    min_ratio = None if argmin is None else Fraction(num, den)
    return RatioReport(label, n_dilate, bound, min_ratio, argmin, tuple(violations))


# ---------------------------------------------------------------------------
# the weight-12 depth-2 doubling check and its two closed-form facts
# ---------------------------------------------------------------------------


def _odd_range_gap_positive(m_max: int = 99) -> bool:
    """Exact check that 2520/3 m^9 - 18224/21 sigma_0(m) m^{11/2} + 12/7 m^{10}
    is positive for odd 3 <= m <= m_max.

    The irrational m^{11/2} is handled by squaring: with
    A = 2520/3 m^9 + 12/7 m^10 and C = 18224/21 sigma_0(m), positivity is
    equivalent to A^2 > C^2 m^11 since both sides are positive.
    """
    s0 = sigma_table(m_max, 0)
    for m in range(3, m_max + 1, 2):
        a = Fraction(2520, 3) * m**9 + Fraction(12, 7) * m**10
        c = Fraction(18224, 21) * s0[m]
        if not a * a > c * c * m**11:
            return False
    return True


# Rational upper bounds for the square roots appearing below.  Upper bounds
# are the conservative direction because every occurrence is subtracted.
#   665857^2 = 2 * 470832^2 + 1   so sqrt(2) <= 665857/470832
#   11586^2 = 134235396 > 2^11 * 2^16 = 134217728   so 2^(11/2) <= 11586/256
_SQRT2_UPPER = Fraction(665857, 470832)
_TWO_POW_11_HALF_UPPER = Fraction(11586, 256)
_TWO_POW_13_HALF_UPPER = Fraction(11586, 128)


def _dyadic_range_gap_positive(k_max: int = 50) -> bool:
    """Exact check that
    2560/3 2^{9k} - 40/3 2^{2k}
        - 17/21 ((2^{11/2} + 1048) k + (2^{13/2} + 1048)) 2^{11k/2}
    is positive for 1 <= k <= k_max, with each irrational power replaced by
    a rational upper bound (sound since those terms are subtracted).
    """
    for k in range(1, k_max + 1):
        e = 11 * k
        half_pow = Fraction(2 ** (e // 2))
        if e % 2:
            half_pow *= _SQRT2_UPPER
        lower = (
            Fraction(2560, 3) * 2 ** (9 * k)
            - Fraction(40, 3) * 2 ** (2 * k)
            - Fraction(17, 21)
            * ((_TWO_POW_11_HALF_UPPER + 1048) * k + (_TWO_POW_13_HALF_UPPER + 1048))
            * half_pow
        )
        if not lower > 0:
            return False
    return True


def x122_doubling_check(bound: int = 500, *, factor: int = 2**10) -> dict:
    """Verify c_{2n} >= factor * c_n for 2 <= n <= bound, where c_n are the
    coefficients of the weight-12 depth-2 maximal-vanishing form, plus the
    two exact range facts that extend the conclusion beyond the scan.

    Returns {ok, witness, doubling_ok, odd_range_ok, dyadic_range_ok};
    witness is the first n violating the doubling inequality, or None.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    # the common denominator is positive, so it cancels from each comparison
    c = x_w2(12, 2 * bound).nums
    witness = None
    for n in range(2, bound + 1):
        if c[2 * n] < factor * c[n]:
            witness = n
            break
    odd_ok = _odd_range_gap_positive()
    dyadic_ok = _dyadic_range_gap_positive()
    return {
        "ok": witness is None and odd_ok and dyadic_ok,
        "witness": witness,
        "doubling_ok": witness is None,
        "odd_range_ok": odd_ok,
        "dyadic_range_ok": dyadic_ok,
    }
