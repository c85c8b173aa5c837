"""Seeded inputs for the solvechart benchmark.

`generate(workload, seed)` returns every input file of one workload as a
mapping from relative path to bytes; the same seed gives the same bytes.
Nothing here imports solvechart: gold answers come from this module's own
arithmetic over the generated cells, so they are independent of the code
under test.

Names avoid the words the oracle's templates split on ("in", "and", "of",
"value", ...), and every name is distinct after case folding, so each
generated question has exactly one answer.

Run `python3 perfbench/gen.py --self-check` to confirm that two generations
from one seed are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys

WORKLOADS = ("eval-programs", "eval-lookup", "eval-live", "align")

# Every eval dataset is the size of ChartQA's test split (Masry et al.,
# 2022: 1,250 human-written plus 1,250 augmented questions), the dataset a
# user of `solvechart eval` runs.  The worker walks it in passes, each one
# `solvechart eval` run over the whole dataset.
CHARTQA_TEST_QUESTIONS = 2500
PROGRAM_ITEMS = LIVE_ITEMS = LOOKUP_ITEMS = CHARTQA_TEST_QUESTIONS
SELF_CHECK_SEEDS = (0, 1, 2)

ALIGN_ROWS, ALIGN_COLS, ALIGN_DIM = 24, 24, 64

# Mixes as exact counts per block (see Stream), so every seed, and every run
# long enough to span a few blocks, sees the same shares.
PROGRAM_SHAPES = (("compare", 5), ("ratio", 3), ("average", 4), ("percent", 3), ("ask", 5))
REPLY_STYLES = (("fenced", 2), ("fenced_lang", 1), ("unfenced", 1))
LIVE_FIRST_REPLY = (("unusable", 1), ("usable", 4))
LOOKUP_TEMPLATES = (("value_of", 4), ("extreme", 1), ("arg_extreme", 1), ("sum", 1), ("diff", 1))
# eval-lookup tables: series, categories, category kind, questions per block.
# By latency, ops fall into bands by table and template.  These weights put
# the median inside the 25x100 value_of band (ops 29% to 59% by latency) and
# the 90th percentile in the middle of the 50x200 value_of band (85% to 95%),
# not at an edge between bands, where a percentile would jump between runs.
LOOKUP_TABLES = ((10, 50, "year", 1), (25, 100, "month", 12), (40, 150, "quarter", 3), (50, 200, "year", 4))

_QUALIFIERS = ("Net", "Gross", "Total", "Domestic", "Foreign", "Urban", "Rural", "Public",
               "Private", "Online", "Retail", "Wholesale", "Northern", "Southern", "Coastal")
_NOUNS = ("Revenue", "Sales", "Exports", "Imports", "Users", "Visitors", "Students",
          "Orders", "Output", "Spending", "Savings", "Traffic", "Profit", "Rainfall")
_PLAIN_SERIES = ("Apples", "Oranges", "Republican", "Democrat", "Coal", "Solar Power",
                 "Wind Power", "Natural Gas", "Nuclear", "Hydro", "Smart Phones", "Laptops",
                 "Tablet Devices", "Game Consoles", "Cable Television", "Streaming Services")
_PLACES = ("North East", "South West", "Midlands", "Highlands", "Coastal Belt", "River Valley",
           "Capital Region", "Lake District", "Outer Islands", "Central Plains", "Border Towns",
           "Harbour City", "Old Town", "New Town", "Airport Zone", "University Quarter",
           "Market Square", "Eastern Suburbs", "Western Suburbs", "Industrial Park",
           "Tech Corridor", "Mountain Pass", "Desert Edge", "Forest Hills", "Green Valley")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_PROSE = ("Sure, here is the program.",
          "Let me break the question into lookups.",
          "The question needs arithmetic over chart values, so:",
          "Here is one way to compute it.")

_SERIES_POOL = tuple(f"{q} {n}" for q in _QUALIFIERS for n in _NOUNS) + _NOUNS + _PLAIN_SERIES


class Stream:
    """Draws names in shuffled blocks that hold each name exactly `count` times."""

    def __init__(self, rng: random.Random, counts: tuple[tuple[str, int], ...]) -> None:
        self.rng, self.counts, self.queue = rng, counts, []

    def next(self) -> str:
        if not self.queue:
            self.queue = [name for name, count in self.counts for _ in range(count)]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def fmt_number(value: float) -> str:
    """Renders a number the way an answer agent reports it: at most six
    fractional digits, integers without a decimal point."""
    if value == int(value):
        return str(int(value))
    return f"{value:.6f}".rstrip("0").rstrip(".")


def same_answer(prediction: str | None, gold: str) -> bool:
    """The benchmark's own answer check: numbers match to 1e-6 relative
    (answers carry six decimals), text exactly up to case."""
    if prediction is None:
        return False
    try:
        got, want = float(prediction), float(gold)
    except ValueError:
        return prediction.strip().casefold() == gold.strip().casefold()
    return abs(got - want) <= 1e-6 * max(1.0, abs(want))


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _categories(rng: random.Random, count: int, kind: str) -> list[str]:
    if kind == "year" or (kind == "place" and count > len(_PLACES)):
        start = rng.randint(1800, 2024 - count)
        return [str(start + i) for i in range(count)]
    if kind == "month":
        year = rng.randint(1990, 2020)
        return [f"{_MONTHS[i % 12]} {year + i // 12}" for i in range(count)]
    if kind == "quarter":
        year = rng.randint(1950, 2020 - count // 4)
        return [f"Q{i % 4 + 1} {year + i // 4}" for i in range(count)]
    return rng.sample(_PLACES, count)


def make_table(rng: random.Random, chart_id: str, n_series: int, n_categories: int, kind: str | None = None) -> dict:
    """A chart table document with distinct positive values."""
    categories = _categories(rng, n_categories, kind or rng.choice(("year", "month", "quarter", "place")))
    names = rng.sample(_SERIES_POOL, n_series)
    # Some charts hold whole numbers, the rest two decimals; the range leaves
    # room for every cell to differ, so no question meets a tie.
    top = max(rng.choice((10, 100, 1000)), 20 * n_series * n_categories)
    whole = rng.random() < 0.3
    seen: set[float] = set()
    series = []
    for name in names:
        points = []
        for category in categories:
            while True:
                if whole:
                    value = float(1 + int(rng.random() * top))
                else:
                    value = (100 + int(rng.random() * 100 * top)) / 100
                if value not in seen:
                    break
            seen.add(value)
            points.append({"category": category, "value": value})
        series.append({"name": name, "points": points})
    return {"title": f"Chart {chart_id}", "x_label": "Category", "y_label": "Value", "series": series}


class Chart:
    """A generated table with its cells indexed for question generation."""

    def __init__(self, table: dict) -> None:
        self.table = table
        self.names = [s["name"] for s in table["series"]]
        self.cats = [p["category"] for p in table["series"][0]["points"]]
        self.cells = {(s["name"], p["category"]): p["value"] for s in table["series"] for p in s["points"]}
        self.extremes = {which: _overall_extreme(table, which) for which in ("highest", "lowest")}


def _overall_extreme(table: dict, which: str) -> tuple[str, str]:
    """(series, category) of the overall extreme, first in table order on ties."""
    best = None
    for s in table["series"]:
        for p in s["points"]:
            v = p["value"]
            if best is None or (v > best[2] if which == "highest" else v < best[2]):
                best = (s["name"], p["category"], v)
    return best[0], best[1]


def lookup_question(rng: random.Random, chart: Chart, template: str) -> tuple[str, str]:
    """One question the oracle's templates answer directly, with its gold."""
    cells, names, cats = chart.cells, chart.names, chart.cats
    which = rng.choice(("highest", "lowest"))
    if template == "value_of":
        s, c = rng.choice(names), rng.choice(cats)
        return f"What is the value of {s} in {c}?", fmt_number(cells[s, c])
    if template == "extreme":
        s = rng.choice(names)
        values = [cells[s, c] for c in cats]
        return f"What is the {which} value of {s}?", fmt_number(max(values) if which == "highest" else min(values))
    if template == "arg_extreme":
        subject = rng.choice(("series", "category"))
        series, category = chart.extremes[which]
        return f"Which {subject} has the {which} value?", series if subject == "series" else category
    (s1, c1), (s2, c2) = (rng.choice(names), rng.choice(cats)), (rng.choice(names), rng.choice(cats))
    while (s1, c1) == (s2, c2):
        s2, c2 = rng.choice(names), rng.choice(cats)
    if template == "sum":
        return f"What is the sum of {s1} in {c1} and {s2} in {c2}?", fmt_number(cells[s1, c1] + cells[s2, c2])
    return (f"What is the difference between {s1} in {c1} and {s2} in {c2}?",
            fmt_number(cells[s1, c1] - cells[s2, c2]))


def _substep(series: str, category: str) -> str:
    return f"what is the value of {series} in {category}"


def program_question(rng: random.Random, chart: Chart, shape: str, ask: Stream) -> tuple[str, str, str, dict[str, str]]:
    """(question, program, gold, agent replies) for one paper-shaped program.

    The agent replies map every question the program sends to an agent to
    the answer an oracle over the chart gives.
    """
    cells, names, cats = chart.cells, chart.names, chart.cats
    if shape == "ask":
        question, gold = lookup_question(rng, chart, ask.next())
        return question, f'answer = ASK("{question}")', gold, {question: gold}

    def lookups(pairs):
        lines, variables, replies = [], [], {}
        for s, c in pairs:
            var = f"{_slug(s)}_{_slug(c)}"
            lines.append(f'{var} = SUBSTEP("{_substep(s, c)}")')
            variables.append(var)
            replies[_substep(s, c)] = fmt_number(cells[s, c])
        return lines, variables, replies

    if shape == "compare":
        if len(names) > 1:
            a, b = rng.sample(names, 2)
            c = rng.choice(cats)
            pairs, labels = [(a, c), (b, c)], (a, b)
            question = f"Which is higher in {c}, {a} or {b}?"
            diff_var = f"difference_in_{_slug(c)}"
        else:
            a = names[0]
            c1, c2 = rng.sample(cats, 2)
            pairs, labels = [(a, c1), (a, c2)], (c1, c2)
            question = f"Was {a} higher in {c1} or in {c2}?"
            diff_var = "difference"
        lines, (va, vb), replies = lookups(pairs)
        lines += [f"{diff_var} = {va} - {vb}", f"if {diff_var} > 0:", f'    answer = "{labels[0]}"',
                  "else:", f'    answer = "{labels[1]}"']
        gold = labels[0] if cells[pairs[0]] - cells[pairs[1]] > 0 else labels[1]
        return question, "\n".join(lines), gold, replies
    if shape == "ratio":
        a, b = rng.choice(names), rng.choice(names)
        c1, c2 = rng.sample(cats, 2)
        lines, (va, vb), replies = lookups([(a, c1), (b, c2)])
        lines.append(f"answer = {va} / {vb}")
        question = f"What is the ratio of {a} in {c1} to {b} in {c2}?"
        return question, "\n".join(lines), repr(cells[a, c1] / cells[b, c2]), replies
    if shape == "average":
        a = rng.choice(names)
        chosen = rng.sample(cats, min(len(cats), rng.choice((3, 4))))
        lines, variables, replies = lookups([(a, c) for c in chosen])
        lines.append(f"answer = ({' + '.join(variables)}) / {len(variables)}")
        total = 0.0
        for c in chosen:
            total = total + cells[a, c]
        question = f"What is the average of {a} across {', '.join(chosen[:-1])} and {chosen[-1]}?"
        return question, "\n".join(lines), repr(total / len(chosen)), replies
    a = rng.choice(names)
    c1, c2 = rng.sample(cats, 2)
    lines, (v1, v2), replies = lookups([(a, c1), (a, c2)])
    lines.append(f"answer = ({v2} - {v1}) / {v1} * 100")
    question = f"What is the percent change of {a} from {c1} to {c2}?"
    return question, "\n".join(lines), repr((cells[a, c2] - cells[a, c1]) / cells[a, c1] * 100), replies


def styled_reply(rng: random.Random, program: str, style: str) -> str:
    if style == "fenced":
        return f"```\n{program}\n```"
    if style == "fenced_lang":
        return f"```python\n{program}\n```"
    prose = rng.sample(_PROSE, rng.randint(1, 3))
    return "\n".join(prose) + "\n" + program


def unusable_reply(rng: random.Random, program: str) -> str:
    """A first reply the generator must reject: no program at all, or a
    program that never assigns `answer`."""
    if rng.random() < 0.5:
        return "I cannot read that chart clearly enough to write a program."
    return "```\n" + program.replace("answer = ", "result = ") + "\n```"


def _dumps(document) -> bytes:
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def _jsonl(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode("utf-8")


def _small_chart_items(rng: random.Random, total: int, live: bool) -> dict[str, bytes]:
    files: dict[str, bytes] = {}
    dataset, cassette = [], []
    model_replies: dict[str, dict] = {}
    agent_replies: dict[str, dict[str, str]] = {}
    shapes, styles = Stream(rng, PROGRAM_SHAPES), Stream(rng, REPLY_STYLES)
    asks, firsts = Stream(rng, LOOKUP_TEMPLATES), Stream(rng, LIVE_FIRST_REPLY)
    number = 0
    while len(dataset) < total:
        chart_id = f"c{number:05d}"
        number += 1
        chart = Chart(make_table(rng, chart_id, rng.randint(1, 6), rng.randint(3, 24)))
        files[f"tables/{chart_id}.json"] = _dumps(chart.table)
        asked: set[str] = set()
        for _ in range(rng.randint(1, 3)):
            question, program, gold, replies = program_question(rng, chart, shapes.next(), asks)
            if question in asked:
                continue
            asked.add(question)
            reply = styled_reply(rng, program, styles.next())
            dataset.append({"id": f"{chart_id}-q{len(asked)}", "question": question, "gold": gold,
                            "chart_id": chart_id, "table_path": f"tables/{chart_id}.json"})
            if live:
                first = [unusable_reply(rng, program)] if firsts.next() == "unusable" else []
                # Keyed by question alone, as the model sees no chart id; equal
                # questions always carry equal programs.
                model_replies.setdefault(question, {"replies": first + [reply]})
                agent_replies.setdefault(chart_id, {}).update(replies)
            else:
                cassette.append({"chart_id": chart_id, "question": question, "answer": reply})
    files["dataset.jsonl"] = _jsonl(dataset[:total])
    if live:
        files["stub_model.json"] = _dumps(model_replies)
        files["stub_agent.json"] = _dumps(agent_replies)
    else:
        files["llm_cassette.json"] = _dumps(cassette)
    return files


def _lookup_items(rng: random.Random) -> dict[str, bytes]:
    files: dict[str, bytes] = {}
    charts, templates = {}, {}
    for index, (n_series, n_categories, kind, _weight) in enumerate(LOOKUP_TABLES):
        chart_id = f"t{index}"
        charts[chart_id] = Chart(make_table(rng, chart_id, n_series, n_categories, kind))
        templates[chart_id] = Stream(rng, LOOKUP_TEMPLATES)
        files[f"tables/{chart_id}.json"] = _dumps(charts[chart_id].table)
    tables = Stream(rng, tuple((f"t{i}", spec[3]) for i, spec in enumerate(LOOKUP_TABLES)))
    dataset = []
    for number in range(LOOKUP_ITEMS):
        chart_id = tables.next()
        question, gold = lookup_question(rng, charts[chart_id], templates[chart_id].next())
        dataset.append({"id": f"q{number:05d}", "question": question, "gold": gold,
                        "chart_id": chart_id, "table_path": f"tables/{chart_id}.json"})
    files["dataset.jsonl"] = _jsonl(dataset)
    return files


def generate(workload: str, seed: int) -> dict[str, bytes]:
    """Every input file of `workload` for `seed`, as relative path -> bytes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "eval-programs":
        return _small_chart_items(rng, PROGRAM_ITEMS, live=False)
    if workload == "eval-live":
        return _small_chart_items(rng, LIVE_ITEMS, live=True)
    if workload == "eval-lookup":
        return _lookup_items(rng)
    if workload == "align":
        spec = {"rows": ALIGN_ROWS, "cols": ALIGN_COLS, "dim": ALIGN_DIM,
                "param_seed": rng.randrange(2**31), "grid_seed_base": rng.randrange(2**31)}
        return {"align.json": _dumps(spec)}
    raise ValueError(f"unknown workload {workload!r}")


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.encode() + b"\0" + files[path] + b"\0")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--self-check", action="store_true",
                        help="generate every workload twice per seed and compare the bytes")
    args = parser.parse_args()
    if not args.self_check:
        parser.error("nothing to do; pass --self-check")
    ok = True
    for workload in WORKLOADS:
        for seed in SELF_CHECK_SEEDS:
            first, second = digest(generate(workload, seed)), digest(generate(workload, seed))
            other = digest(generate(workload, seed + 1))
            same = first == second and first != other
            ok &= same
            print(f"{workload} seed {seed}: {'ok' if same else 'MISMATCH'} {first[:16]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
