"""Answer values: runtime values, numeric coercion of agent text, and display rules.

Values are plain Python data: float for numbers, str for text, bool for
booleans, list for lists.  Numbers are always finite; any operation that
would produce NaN or an infinity raises instead.  A Python bool is an int,
never a float, so a float check alone tells numbers from booleans.
"""

from __future__ import annotations

import math
import re
from typing import Union

__all__ = ["Value", "coerce_numeric", "stringify", "is_number"]

Value = Union[float, str, bool, list]


def is_number(value: Value) -> bool:
    return isinstance(value, float)


# Optional sign, then digits with an optional fractional part.  There is no
# exponent form: chart labels and agent replies do not use one.
_NUMERIC_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")


def coerce_numeric(raw: str) -> Value:
    """Interprets agent text as a Number when it looks like one.

    Trims whitespace, strips one trailing percent sign (keeping the
    magnitude, so "45%" becomes 45.0), and removes thousands separators.
    Anything that still fails to parse is returned untouched as Text.
    """
    text = raw.strip()
    candidate = text
    if candidate.endswith("%"):
        candidate = candidate[:-1].strip()
    candidate = candidate.replace(",", "")
    if _NUMERIC_RE.fullmatch(candidate):
        value = float(candidate)
        if math.isfinite(value):
            return value
    return text


def stringify(value: Value) -> str:
    """Renders a value the way answers are reported.

    Numbers keep at most six fractional digits with trailing zeros trimmed
    and integers printed without a decimal point; booleans render as
    "Yes"/"No"; lists are comma separated.
    """
    if isinstance(value, bool):
        return "Yes" if value else "No"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        text = f"{value:.6f}".rstrip("0").rstrip(".")
        return "0" if text in ("", "-", "-0") else text
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ", ".join(stringify(item) for item in value)
    raise TypeError(f"not a runtime value: {value!r}")
