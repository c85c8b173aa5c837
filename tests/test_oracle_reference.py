"""The template oracle against its reference (tests/oracle_reference.py).

On every valid table and every question both must agree on the answer, or
on the error class, kind and message.  Tables are drawn from a small name
vocabulary so that ties, nested names ("Total" beside "Total Sales"), names
holding " in " or " and ", and empty series come up often.
"""

from __future__ import annotations

from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from solvechart.agents import oracle
from solvechart.agents.oracle import oracle_answer
from solvechart.agents.table import ChartTable, Series, normalize_question

# Some names differ from their normalized form by case and punctuation ("U.S." is "u s"). No pool may hold
# two names with one normalized form: a table refuses them, so drawing both would fail the strategy.
# The oracle normalizes only names whose casefolded text holds a word of the slot, so the pools also hold
# names where that test is easy to get wrong: one that casefolding lengthens ("Straße" is "strasse"),
# punctuation inside a word ("18-29" is "18 29"), letters outside ASCII ("São Paulo" is "s o paulo"), and a
# name that is a substring of another name's word ("Sale" in "Sales").
SERIES_NAMES = ["Total", "Total Sales", "Sales", "Salt and Pepper", "Made in USA", "A", "In", "And", "Apples",
                "U.S.", "St. Louis", "Sales (EUR)", "Sale", "Straße", "São Paulo", "18-29"]
CATEGORIES = ["Jan", "Feb", "2012", "Jan 2012", "Made in USA", "North and South", "Total", "Q1", "and",
              "Q1 '12", "U.S.", "St. Louis", "Mar-Apr", "18-29", "Straße", "São Paulo", "Sale"]
# Other ways a user may type a name; some reach it, some only share a word with it.
SPELLINGS = {
    "Straße": ["Straße", "strasse", "STRASSE", "Strase"],
    "São Paulo": ["São Paulo", "s o paulo", "Sao Paulo", "SÃO PAULO"],
    "18-29": ["18-29", "18 29", "1829", "18"],
}
VALUES = [0.0, -0.0, 1.0, 2.0, -1.0, 0.5, 150.0]
PREFIXES = ["", "What is the ", "what's the ", "What was ", "the ", "whats "]
EXTREME_WORDS = ["highest", "lowest", "maximum", "minimum", "max", "min"]


def outcome(answer, table: ChartTable, question: str) -> tuple:
    try:
        return ("answer", answer(table, question))
    except Exception as err:  # noqa: BLE001  (the error itself is what is compared)
        return ("error", type(err), getattr(err, "kind", None), str(err))


def assert_agrees(table: ChartTable, question: str) -> None:
    assert outcome(oracle_answer, table, question) == outcome(oracle_reference.oracle_answer, table, question)


def table_of(*series: tuple[str, list[tuple[str, float]]]) -> ChartTable:
    return ChartTable("t", "x", "y", tuple(
        Series(name, tuple(category for category, _ in points), tuple(value for _, value in points))
        for name, points in series
    ))


@st.composite
def tables(draw) -> ChartTable:
    names = draw(st.lists(st.sampled_from(SERIES_NAMES), max_size=4, unique=True))
    series = []
    for name in names:
        categories = draw(st.lists(st.sampled_from(CATEGORIES), max_size=5, unique=True))
        values = st.one_of(st.sampled_from(VALUES), st.floats(-1e6, 1e6, allow_nan=False))
        series.append((name, [(category, draw(values)) for category in categories]))
    return table_of(*series)


def styled(draw, text: str) -> str:
    """The text as a user might type it: any case, with trailing punctuation."""
    case = draw(st.sampled_from([str, str.upper, str.lower, str.title]))
    return case(text) + draw(st.sampled_from(["", "?", "!?", " ."]))


def name(draw, in_table: Sequence[str], vocabulary: list[str]) -> str:
    """Mostly a name the table holds, sometimes one it may not, in any of its spellings."""
    drawn = draw(st.sampled_from(in_table or vocabulary) if draw(st.integers(0, 3)) else st.sampled_from(vocabulary))
    return draw(st.sampled_from(SPELLINGS.get(drawn, [drawn])))


def cell_text(draw, table: ChartTable) -> str:
    series = name(draw, table.series_names, SERIES_NAMES + ["Oranges"])
    category = name(draw, table.categories, CATEGORIES + ["Mar"])
    return draw(st.sampled_from([f"{series} in {category}", category, series]))


@st.composite
def questions(draw, table: ChartTable) -> str:
    prefix = draw(st.sampled_from(PREFIXES))
    template = draw(st.sampled_from(["value", "extreme", "arg", "sum", "diff", "junk"]))
    if template == "value":
        text = f"{prefix}value of {cell_text(draw, table)}"
    elif template == "extreme":
        word = draw(st.sampled_from(EXTREME_WORDS))
        text = f"{prefix}{word} value of {name(draw, table.series_names, SERIES_NAMES + ['Oranges'])}"
    elif template == "arg":
        subject = draw(st.sampled_from(["series", "year", "category", "month"]))
        text = f"Which {subject} has the {draw(st.sampled_from(['highest', 'lowest']))} value"
    elif template in ("sum", "diff"):
        operation = "sum of" if template == "sum" else draw(st.sampled_from(["difference of", "difference between"]))
        text = f"{prefix}{operation} {cell_text(draw, table)} and {cell_text(draw, table)}"
    else:
        text = draw(st.text(alphabet="abcin ?", max_size=20))
    return styled(draw, text)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_oracle_matches_reference(data):
    table = data.draw(tables())
    for question in data.draw(st.lists(questions(table), min_size=1, max_size=8)):
        assert_agrees(table, question)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_categories_match_the_reference_walk(data):
    """Series share labels in different orders; the table's labels keep first-seen order."""
    pool = data.draw(st.lists(st.sampled_from(CATEGORIES), min_size=1, unique=True))
    series = []
    for name in data.draw(st.lists(st.sampled_from(SERIES_NAMES), max_size=5, unique=True)):
        labels = data.draw(st.permutations(pool))[:data.draw(st.integers(0, len(pool)))]
        series.append((name, [(label, float(index)) for index, label in enumerate(labels)]))
    table = table_of(*series)
    assert list(table.categories) == oracle_reference.categories(table)


TIES = table_of(("A", [("Jan", 2.0), ("Feb", 1.0), ("Mar", 2.0)]), ("Sales", [("Jan", 2.0), ("Feb", 1.0)]))
SIGNED_ZEROS = table_of(("A", [("Jan", -1.0), ("Feb", -0.0), ("Mar", 0.0)]), ("Sales", [("Jan", 0.0), ("Q1", -0.0)]))
NESTED = table_of(
    ("Total", [("Jan", 5.0)]),
    ("Total Sales", [("Jan", 9.0), ("Made in USA", 3.0)]),
    ("Salt and Pepper", [("North and South", 4.0), ("Jan", -2.5)]),
    ("Empty", []),
)
# Ragged: each series lacks a label another one holds, and names carry case and punctuation.
# Equal-length names that both match one slot: the first in table order wins.
EQUAL_FORMS = table_of(("Sales", [("Feb", 3.0), ("Jan", 1.0)]), ("Total", [("Jan", 2.0)]))
ONE_SERIES = table_of(("Sales", [("Made in USA", 7.0), ("Jan", 1.0)]))
RAGGED = table_of(("U.S.", [("Q1 '12", 4.0), ("Jan", 1.0)]), ("St. Louis", [("Mar-Apr", 2.0), ("Q1 '12", -3.0)]))
# Names whose casefolded text and normalized form differ, and one name inside another's word.
WORDS = table_of(
    ("Sale", [("18-29", 1.0), ("Straße", 2.0)]),
    ("Sales", [("São Paulo", 3.0), ("18-29", 4.0)]),
    ("Straße", [("Sale", 5.0), ("São Paulo", 6.0)]),
)
# Names holding " in " and " and ", so that both split loops of a two-cell question run more than once.
SPLIT_NAMES = table_of(
    ("Total", [("Jan", 5.0)]),
    ("Total Sales", [("Jan", 9.0), ("Made in USA", 3.0)]),
    ("Salt and Pepper", [("North and South", 4.0), ("Jan", -2.5)]),
    ("Made in USA", [("Jan", 1.0), ("Made in USA", 2.0)]),
)
# Slots of more words than the oracle tests name by name: each resolves through a long run of words.
LONG_SLOTS = [
    "What is the value of one two three four five six seven Made in USA in Made in USA?",
    "What is the sum of a b c d e f g h i Total Sales in Made in USA and Total in Jan?",
]


@pytest.mark.parametrize(
    "table, question",
    [
        (TIES, "Which series has the highest value?"),
        (TIES, "which month has the highest value"),
        (TIES, "Which series has the lowest value?"),
        (TIES, "which month has the lowest value"),
        (TIES, "What is the maximum value of A?"),
        (TIES, "What is the min value of Sales?"),
        (NESTED, "What is the value of Total Sales in Jan?"),
        (NESTED, "What is the value of Total in Jan?"),
        (NESTED, "value of Total Sales in Made in USA"),
        (NESTED, "What is the sum of Salt and Pepper in North and South and Total in Jan?"),
        (NESTED, "What is the difference between Total Sales in Jan and Salt and Pepper in Jan?"),
        (NESTED, "What is the difference of Total in Made in USA and Total Sales in Jan?"),
        (NESTED, "What is the sum of Total in Jan?"),
        (NESTED, "What is the highest value of Empty?"),
        (NESTED, "What is the value of Empty in Jan?"),
        (NESTED, "Which category has the lowest value?"),
        (table_of(("Empty", [])), "Which series has the highest value?"),
        (table_of(), "What is the value of Jan?"),
        (NESTED, "compare the trends"),
        (SIGNED_ZEROS, "which month has the highest value"),
        (SIGNED_ZEROS, "Which series has the highest value?"),
        (SIGNED_ZEROS, "What is the maximum value of A?"),
        (SIGNED_ZEROS, "What is the min value of Sales?"),
        (RAGGED, "What is the value of U.S. in Mar-Apr?"),
        (RAGGED, "What is the value of St. Louis in Jan?"),
        (RAGGED, "What is the sum of U.S. in Q1 '12 and St. Louis in Jan?"),
        (RAGGED, "What is the difference between u.s. in q1 '12 and st louis in Q1-12?"),
        (RAGGED, "What is the highest value of ST. LOUIS?"),
        (EQUAL_FORMS, "What is the maximum value of Total Sales?"),
        (EQUAL_FORMS, "What is the value of Sales in Jan Feb?"),
        # The first " and " split leaves "salt" alone, which names no cell; the second resolves both.
        (NESTED, "What is the sum of Salt and Pepper in Jan and Total in Jan?"),
        # "pepper in made" names no series, so no split can resolve and no category part is read.
        (NESTED, "What is the value of Pepper in Made in USA?"),
        # "made" names no series; the one series' category fallback reads the whole slot.
        (ONE_SERIES, "What is the value of Made in USA?"),
        (WORDS, "What is the value of strasse in Sale?"),
        (WORDS, "What is the value of Sale in 18-29?"),
        (WORDS, "What is the value of SALES in 18 29?"),
        (WORDS, "What is the value of Sales in s o paulo?"),
        (WORDS, "What is the value of Straße in Sao Paulo?"),
        (WORDS, "What is the highest value of STRASSE?"),
        (WORDS, "What is the difference between Sale in Straße and Straße in Sale?"),
        (ONE_SERIES, "What is the value of a b c d e f g h i Made in USA?"),
        *((SPLIT_NAMES, question) for question in LONG_SLOTS),
    ],
)
def test_oracle_matches_reference_on_named_cases(table, question):
    assert_agrees(table, question)


@pytest.mark.parametrize(
    "table, question",
    [
        (SPLIT_NAMES, "What is the value of Made in USA in Made in USA?"),
        (SPLIT_NAMES, "What is the value of Pepper in Made in USA?"),
        (SPLIT_NAMES, "What is the highest value of Salt and Pepper?"),
        (SPLIT_NAMES, "Which category has the lowest value?"),
        (SPLIT_NAMES, "What is the sum of Salt and Pepper in North and South and Made in USA in Made in USA?"),
        (SPLIT_NAMES, "What is the difference between Total Sales in Made in USA and Salt and Pepper in Jan?"),
        (SPLIT_NAMES, "What is the sum of Salt and Pepper in North and Oranges in Jan?"),
        (ONE_SERIES, "What is the difference of Made in USA and Jan?"),
        (SPLIT_NAMES, "compare the trends"),
        (WORDS, "What is the value of strasse in Sale?"),
        (WORDS, "What is the difference between Sale in Straße and Straße in Sale?"),
        (WORDS, "What is the value of Sales in Sao Paulo?"),
        *((SPLIT_NAMES, question) for question in LONG_SLOTS),
    ],
)
def test_a_question_normalizes_each_name_at_most_once(monkeypatch, table, question):
    """One call for the question, then at most one per series name and one per distinct category label.

    A slot of at most oracle._CHECKED_WORDS words normalizes only names whose casefolded text holds one of
    its words.
    """
    calls, parts = [], []

    def counting(text: str) -> str:
        calls.append(text)
        if parts and parts[-1].count(" ") < oracle._CHECKED_WORDS:
            assert any(word in text.casefold() for word in parts[-1].split(" ")), (text, parts[-1])
        return normalize_question(text)

    def resolving(part: str, *names):
        parts.append(part)
        return resolve_name(part, *names)

    resolve_name = oracle._resolve_name
    monkeypatch.setattr(oracle, "normalize_question", counting)
    monkeypatch.setattr(oracle, "_resolve_name", resolving)
    assert outcome(oracle_answer, table, question) == outcome(oracle_reference.oracle_answer, table, question)
    assert len(calls) <= 1 + len(table.series) + len(table.categories)


@pytest.mark.parametrize("extra", [0, 1])
def test_a_slot_past_the_word_bound_normalizes_every_name_it_reads(monkeypatch, extra):
    """Past the bound the oracle skips the per-word test, whose cost grows with the slot's words."""
    calls = []

    def counting(text: str) -> str:
        calls.append(text)
        return normalize_question(text)

    words = " ".join(f"w{index}" for index in range(oracle._CHECKED_WORDS - 1 + extra))
    monkeypatch.setattr(oracle, "normalize_question", counting)
    assert_agrees(NESTED, f"What is the highest value of {words} Total?")
    assert calls[1:] == (list(NESTED.series_names) if extra else ["Total", "Total Sales"])


# Names that casefold expands, or whose letters and digits lie outside ASCII.
NAMED_TEXTS = ["Straße", "ﬁnal", "İstanbul", "ǅ", "１２", "٣٤", "ΣΑΣ", " A--B ", "", "!!"]


def assert_name_rule(text: str) -> None:
    form = normalize_question(text)
    assert form == oracle_reference.normalize_question(text)
    assert normalize_question(form) == form
    assert set(form) <= set("abcdefghijklmnopqrstuvwxyz0123456789 ")
    assert form == form.strip() and "  " not in form


@settings(max_examples=1000, deadline=None)
@given(st.text())
def test_name_rule_matches_reference(text):
    assert_name_rule(text)


@pytest.mark.parametrize("text", NAMED_TEXTS)
def test_name_rule_matches_reference_on_named_cases(text):
    assert_name_rule(text)
