"""Shared display helpers.

All report rendering is positional (never scientific notation) so that
small tail probabilities read like "0.0000057" and proportions like
"0.187".  ``half_up`` is the one rounding rule behind the "1 in N"
figures and the dilution table (``format_per_roster_spot``): exact, half
up, whole numbers from a threshold up and tenths below it.  A number that
is not a float is taken as its nearest double, after its range check.

The command line imports this module, with ``errors``, before it parses
its arguments, so it imports nothing else of the package.
"""

from __future__ import annotations

import sys

from .errors import DomainError


def format_probability(value: float, significant: int = 3) -> str:
    """Positional rendering with exactly ``significant`` figures, subnormals included."""
    if significant < 1:
        raise DomainError(f"significant figures must be >= 1, got {significant}")
    if value != value or not abs(value) <= sys.float_info.max:
        raise DomainError(f"value must be finite, got {value!r}")
    value = float(value)
    if value == 0:
        return "0"
    # one correctly rounded step, carry included; then move the point
    mantissa, _, exponent = f"{abs(value):.{significant - 1}e}".partition("e")
    digits = mantissa.replace(".", "")
    sign = "-" if value < 0 else ""
    point = int(exponent) + 1  # figures before the decimal point
    if point >= significant:
        return sign + digits + "0" * (point - significant)
    if point <= 0:
        digits, point = "0" * (1 - point) + digits, 1
    return f"{sign}{digits[:point]}.{digits[point:]}"


def format_proportion(value: float) -> str:
    """Population shares display with three digits after the point."""
    if value != value or not abs(value) <= sys.float_info.max:
        raise DomainError(f"value must be finite, got {value!r}")
    return f"{float(value):.3f}"


def half_up(num: int, den: int, whole_from: int) -> str:
    """``num / den`` (positive integers) rounded half up in exact integer
    arithmetic: to a whole number when it is ``whole_from`` or more, to
    tenths below that, where a ".0" is dropped.
    """
    # floor(x + 1/2) rounds x half up
    if num >= whole_from * den:
        return str((2 * num + den) // (2 * den))
    whole, tenth = divmod((20 * num + den) // (2 * den), 10)
    return str(whole) if tenth == 0 else f"{whole}.{tenth}"


def format_per_roster_spot(value: float) -> str:
    """Display rule: the double's exact value rounded half up, to tenths
    below 100 with a trailing ".0" dropped, to a whole number from 100 up.
    """
    if not 0 < value <= sys.float_info.max:
        raise DomainError(f"per-roster-spot value must be positive and finite, got {value!r}")
    return half_up(*float(value).as_integer_ratio(), 100)
