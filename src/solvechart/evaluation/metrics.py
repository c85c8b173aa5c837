"""Answer comparison with a relaxed numeric tolerance.

Both sides pass through agent text's numeric coercion first, so "45%", "45",
and "45.0" all compare as the number 45. Numeric pairs match within a
relative tolerance of the gold value; a gold of exactly zero admits no slack
(relative error is undefined there). Comma-separated answers are treated as
lists and compared element by element. Everything else falls back to
case-insensitive trimmed string equality.
"""

from __future__ import annotations

import math

from ..values import coerce_numeric, is_number

DEFAULT_TOLERANCE = 0.05


def relaxed_match(prediction: str, gold: str, tolerance: float = DEFAULT_TOLERANCE) -> bool:
    """Return True when `prediction` counts as correct against `gold`."""
    if not 0 <= tolerance < math.inf:
        raise ValueError("tolerance must be a finite number of at least 0")
    pred_value = coerce_numeric(prediction)
    gold_value = coerce_numeric(gold)
    if is_number(pred_value) and is_number(gold_value):
        if gold_value == 0.0:
            return pred_value == 0.0
        return abs(pred_value - gold_value) <= tolerance * abs(gold_value)
    if isinstance(pred_value, str) and isinstance(gold_value, str):
        if "," in pred_value or "," in gold_value:
            pred_parts = [part.strip() for part in pred_value.split(",")]
            gold_parts = [part.strip() for part in gold_value.split(",")]
            if len(pred_parts) != len(gold_parts):
                return False
            return all(
                relaxed_match(p, g, tolerance) for p, g in zip(pred_parts, gold_parts)
            )
        return pred_value.strip().casefold() == gold_value.strip().casefold()
    return False
