"""Coefficient-sign analytics for the level-2 difference constructions.

Everything here is exact: sign scans walk stored rational coefficients,
density counts are integer counts, and the two closed-form inequality
facts behind the doubling check are verified in rational arithmetic with
explicit rational upper bounds replacing the irrational constants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .extremal import form_by_label, x_w2
from .forms import sigma_table

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


def _json(value):
    """A report field as JSON: a Fraction as its string, a tuple as a list (its members likewise), else as is."""
    if isinstance(value, Fraction):
        return str(value)
    return [_json(item) for item in value] if isinstance(value, tuple) else value


def _to_json_dict(report) -> dict:
    """Every field of a report by name, by the one rule of ``_json``."""
    return {name: _json(value) for name, value in zip(report._fields, report)}


class PositivityReport(NamedTuple):
    """Result of an exact sign scan of one series up to a cutoff."""

    label: str
    order: Fraction
    first_negative: tuple[Fraction, Fraction] | None
    completely_positive_up_to_order: bool
    to_json_dict = _to_json_dict


class DensityReport(NamedTuple):
    """Exact count of positive coefficients a_n for 1 <= n <= n_limit."""

    label: str
    n_limit: int
    count_positive: int
    density: Fraction
    predicted: Fraction | None
    to_json_dict = _to_json_dict


class RatioReport(NamedTuple):
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
    to_json_dict = _to_json_dict


def _require_ints(**values) -> None:
    """Refuse, before any build, a value that is not an ``int`` (a ``bool`` included): a float would be
    scanned to another extent than the one the report states."""
    for name, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {value!r}")


def check_complete_positivity(label: str, order: int = 2000) -> PositivityReport:
    """Scan the labelled form's coefficients, built to ``order`` (an int >= 0, checked first), for a negative one."""
    _require_ints(order=order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    series, first = form_by_label(label, order), None
    # the common denominator is positive, so numerators carry the signs
    for k, c in enumerate(series.nums):
        if c < 0:
            first = (Fraction(k, series.grain), Fraction(c, series.den))
            break
    return PositivityReport(label, Fraction(order), first, first is None)


def sign_pattern(label: str, n_limit: int) -> DensityReport:
    """Count n in 1..n_limit (an int >= 1, checked first) with a_n > 0 and attach any recorded density."""
    _require_ints(n_limit=n_limit)
    if n_limit < 1:
        raise ValueError(f"n_limit must be >= 1, got {n_limit}")
    series = form_by_label(label, n_limit)
    # the common denominator is positive, so numerators carry the signs
    nums, g = series.nums, series.grain
    count = sum(1 for n in range(1, n_limit + 1) if nums[n * g] > 0)
    return DensityReport(
        label, n_limit, count, Fraction(count, n_limit), PREDICTED_DENSITY.get(label)
    )


def ratio_infimum(label: str, n_dilate: int, bound: int) -> RatioReport:
    """Exact minimum of a_{n_dilate * n} / a_n over 1 <= n <= bound (both ints >= 1, checked first)."""
    _require_ints(n_dilate=n_dilate, bound=bound)
    if n_dilate < 1 or bound < 1:
        raise ValueError("n_dilate and bound must be positive")
    series = form_by_label(label, n_dilate * bound)
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
