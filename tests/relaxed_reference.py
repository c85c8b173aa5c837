"""Reference relaxed accuracy, as ChartQA states it.

ChartQA (Masry et al., arXiv:2203.10244) scores a numeric answer as correct
within 5% relative error of the gold and any other answer by exact match.
This transcribes that sentence and nothing more: a numeric answer is a
decimal numeral (an optional sign, then decimal digits with at most one
point), read exactly as a fraction; "within 5%" is |prediction - gold| <=
|gold| / 20; and every other pair compares as strings, exactly.  It shares
no code with `solvechart.evaluation.metrics` and serves only as the oracle
that `relaxed_match` is checked against, outside the cases where
relaxed_match goes beyond the rule on purpose.
"""

from __future__ import annotations

from fractions import Fraction

TOLERANCE = Fraction(1, 20)


def numeral_value(text: str) -> Fraction | None:
    """The exact value of a decimal numeral, or None for any other text."""
    sign = -1 if text[:1] == "-" else 1
    body = text[1:] if text[:1] in ("+", "-") else text
    whole, _, fraction = body.partition(".")
    if not whole + fraction or not all(char.isdecimal() for char in whole + fraction):
        return None
    scale = 10 ** len(fraction)
    return sign * Fraction(int(whole or "0") * scale + int(fraction or "0"), scale)


def relaxed_correct(prediction: str, gold: str) -> bool:
    """ChartQA's relaxed accuracy for one answer pair; relative error is undefined at a gold of 0, which raises."""
    pred_value, gold_value = numeral_value(prediction), numeral_value(gold)
    if pred_value is None or gold_value is None:
        return prediction == gold
    if gold_value == 0:
        raise ZeroDivisionError("relative error is undefined for a gold of 0")
    return abs(pred_value - gold_value) <= TOLERANCE * abs(gold_value)
