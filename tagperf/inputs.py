"""Seeded input generators: the same seed always gives the same inputs.

The program under test only ever sees what these return — a request
stream for ``serve-zipf`` and a statement stream for ``sql-mix`` —
never the seed or the generator's choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

# ---------------------------------------------------------------------------
# serve-zipf: a request stream over the 80 TAG-Bench questions
# ---------------------------------------------------------------------------

#: Surface edits a repeat may carry.  The first three leave the
#: canonical form unchanged (an exact or coalesced hit); the last adds
#: content words, so only the near-match path (or a fresh dispatch)
#: can serve it.
EDITS = ("lowercase", "punctuation", "stopword_filler", "content_filler")

#: Zipf exponent of the repeat draw over recently asked questions.
ZIPF_S = 1.0
#: Share of the repeats that carry a surface edit.
EDITED_SHARE = 0.5


@dataclass(frozen=True)
class Request:
    text: str
    #: Index of the TAG-Bench question this request asks (or edits).
    question: int


def _edit(question: str, kind: str, rng: random.Random) -> str:
    if kind == "lowercase":
        return question.lower()
    if kind == "punctuation":
        stem = question.rstrip("?.! ")
        return stem + rng.choice(("!", " ??", "...", " ?!"))
    if kind == "stopword_filler":
        return rng.choice(("So, ", "And ", "So what: ")) + question
    return question.rstrip() + rng.choice(
        (" Quick question.", " Thanks!", " Please answer briefly.")
    )


def serve_stream(
    questions: list[str],
    domains: list[str],
    seed: int,
    waves: int,
    wave_size: int,
) -> list[Request]:
    """Every question once plus as many Zipf-drawn repeats, in waves.

    Each wave introduces the same number of new questions, spread over
    the domains in proportion, and fills the rest of the wave with
    repeats of the last two waves' questions (this wave's included, so
    in-wave duplicates coalesce, and the previous wave's hit the cache).
    ``EDITED_SHARE`` of the repeats carry a surface edit, the four
    kinds in equal numbers; a first occurrence is always verbatim.
    """
    count = len(questions)
    fresh = count // waves
    if fresh * waves != count or not 0 < fresh < wave_size:
        raise ValueError("waves must split the questions evenly")
    rng = random.Random(f"serve-zipf/{seed}")
    # Proportional interleave: a question's key is its (shuffled) rank
    # inside its domain as a fraction of the domain's size.
    members: dict[str, list[int]] = {}
    for question, domain in enumerate(domains):
        members.setdefault(domain, []).append(question)
    keyed = []
    for group in members.values():
        rng.shuffle(group)
        keyed += [
            ((rank + 0.5) / len(group), rng.random(), question)
            for rank, question in enumerate(group)
        ]
    order = [question for *_, question in sorted(keyed)]
    repeats = wave_size - fresh
    edits = [EDITS[n % len(EDITS)] for n in range(int(waves * repeats * EDITED_SHARE))]
    rng.shuffle(edits)
    stream: list[Request] = []
    seen: set[int] = set()
    for wave in range(waves):
        # Recently asked questions are the popular ones: Zipf over the
        # last two waves' questions, in a seeded popularity order.
        recent = order[max(0, wave - 1) * fresh : (wave + 1) * fresh]
        rng.shuffle(recent)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(recent))]
        items = order[wave * fresh : (wave + 1) * fresh] + rng.choices(
            recent, weights=weights, k=repeats
        )
        rng.shuffle(items)
        later = []
        for position, question in enumerate(items):
            if question in seen:
                later.append(position)
            seen.add(question)
        edited = set(rng.sample(later, int(len(later) * EDITED_SHARE)))
        for position, question in enumerate(items):
            text = questions[question]
            if position in edited:
                text = _edit(text, edits.pop(), rng)
            stream.append(Request(text=text, question=question))
    return stream


# ---------------------------------------------------------------------------
# sql-mix: a statement stream over the generated domains
# ---------------------------------------------------------------------------

_ADJECTIVES = (
    "friendly", "technical", "sarcastic", "helpful", "famous", "historic",
    "modern", "rural", "urban", "coastal", "competitive", "innovative",
    "polite", "angry", "curious", "formal", "playful", "serious", "vague",
    "detailed", "elegant", "ambitious", "cautious", "generous", "humble",
    "loyal", "nervous", "optimistic", "patient", "quirky", "reliable",
    "stubborn",
)
_NOUNS = (
    "remark", "place", "person", "name", "title", "team", "institution",
    "topic", "brand", "landmark", "question",
)

#: Text columns the LM-UDF statements judge: (domain, table, key
#: column, text column, draw weight).
UDF_COLUMNS = (
    ("codebase_community", "comments", "Id", "Text", 3),
    ("codebase_community", "posts", "Id", "Title", 2),
    ("codebase_community", "users", "Id", "DisplayName", 1),
    ("formula_1", "drivers", "driverId", "surname", 2),
    ("formula_1", "circuits", "circuitId", "name", 1),
    ("european_football_2", "Player", "player_api_id", "player_name", 3),
    ("european_football_2", "Team", "team_api_id", "team_long_name", 2),
    ("california_schools", "schools", "CDSCode", "School", 3),
)

#: The UDF memo's default capacity (``repro.db.UDFMemoCache``).
UDF_MEMO_CAPACITY = 4096
#: Share of a pass's statements that are LM-UDF SELECTs.
UDF_SHARE = 0.35
#: Share of each column's UDF statements that repeat an earlier
#: (task, column) pair.
UDF_REPEAT_SHARE = 0.25


@dataclass(frozen=True)
class Statement:
    domain: str
    sql: str
    #: ``select``, ``udf_select`` or ``write``.
    kind: str


@dataclass
class SQLStream:
    statements: list[Statement]
    #: Distinct (task, column) pairs the UDF statements judge.
    udf_pairs: list[tuple[str, tuple]]
    #: Table -> (smallest, largest) row count the writes allow.
    write_band: dict[str, tuple[int, int]]


#: Draw weights of the seven relational SELECT templates.
RELATIONAL_WEIGHTS = (4, 4, 2, 2, 3, 2, 3)


def _relational(
    rng: random.Random, template: int, data: dict[str, Any]
) -> Statement:
    years = data["years"]
    if template == 0:
        sql = (
            "SELECT driverId, COUNT(*) AS finishes, SUM(points) AS pts "
            f"FROM results WHERE position <= {rng.randint(1, 10)} "
            f"AND grid >= {rng.randint(1, 8)} GROUP BY driverId "
            f"HAVING COUNT(*) >= {rng.randint(1, 20)} "
            f"ORDER BY pts DESC, driverId LIMIT {rng.randint(3, 15)}"
        )
        return Statement("formula_1", sql, "select")
    if template == 1:
        sql = (
            "SELECT d.surname, SUM(r.points) AS pts, MAX(r.laps) AS laps "
            "FROM results r JOIN drivers d ON r.driverId = d.driverId "
            f"WHERE r.grid <= {rng.randint(3, 20)} GROUP BY d.surname "
            f"HAVING SUM(r.points) > {rng.randint(0, 400)} "
            f"ORDER BY pts DESC, d.surname LIMIT {rng.randint(3, 10)}"
        )
        return Statement("formula_1", sql, "select")
    if template == 2:
        first = rng.randint(years[0], years[-1] - 3)
        sql = (
            "SELECT c.country, COUNT(*) AS races, MIN(ra.year) AS first "
            "FROM races ra JOIN circuits c ON ra.circuitId = c.circuitId "
            f"WHERE ra.year BETWEEN {first} AND {first + rng.randint(3, 10)} "
            "GROUP BY c.country ORDER BY races DESC, c.country "
            f"LIMIT {rng.randint(3, 10)}"
        )
        return Statement("formula_1", sql, "select")
    if template == 3:
        sql = (
            "SELECT resultId, raceId, driverId, points FROM results "
            f"WHERE laps > {rng.randint(30, 70)} "
            f"ORDER BY points DESC, resultId LIMIT {rng.randint(5, 25)}"
        )
        return Statement("formula_1", sql, "select")
    if template == 4:
        sql = (
            "SELECT g.Country, c.Segment, COUNT(*) AS n, "
            "SUM(t.Amount) AS spent, MAX(t.Price) AS top_price "
            "FROM transactions_1k t "
            "JOIN gasstations g ON t.GasStationID = g.GasStationID "
            "JOIN customers c ON t.CustomerID = c.CustomerID "
            f"WHERE t.Price > {rng.randint(0, 60)} "
            "GROUP BY g.Country, c.Segment "
            f"HAVING COUNT(*) >= {rng.randint(1, 10)} "
            "ORDER BY spent DESC, g.Country, c.Segment "
            f"LIMIT {rng.randint(3, 12)}"
        )
        return Statement("debit_card_specializing", sql, "select")
    if template == 5:
        sql = (
            "SELECT c.Currency, c.Segment, COUNT(*) AS n, "
            "MIN(t.Price) AS low, MAX(t.Price) AS high "
            "FROM transactions_1k t "
            "JOIN customers c ON t.CustomerID = c.CustomerID "
            f"WHERE t.Date >= '2012-{rng.randint(1, 12):02d}-01' "
            "GROUP BY c.Currency, c.Segment "
            "ORDER BY c.Currency, c.Segment"
        )
        return Statement("debit_card_specializing", sql, "select")
    sql = (
        "SELECT CustomerID, COUNT(*) AS n, SUM(Amount) AS spent "
        f"FROM transactions_1k WHERE ProductID <= {rng.randint(2, 30)} "
        "GROUP BY CustomerID "
        f"HAVING SUM(Amount) > {rng.randint(0, 200)} "
        f"ORDER BY spent DESC, CustomerID LIMIT {rng.randint(3, 15)}"
    )
    return Statement("debit_card_specializing", sql, "select")


def _udf(
    rng: random.Random, template: int, task: str, column: tuple
) -> Statement:
    domain, table, key, text, _ = column
    if template == 0:
        sql = (
            f"SELECT {key}, {text} FROM {table} "
            f"WHERE LLM('{task}', {text}) = 'yes' "
            f"ORDER BY {key} LIMIT {rng.randint(5, 20)}"
        )
    elif template == 1 or table != "comments":
        sql = (
            f"SELECT COUNT(*) AS n FROM {table} "
            f"WHERE LLM('{task}', {text}) = 'yes'"
        )
    else:
        sql = (
            "SELECT u.DisplayName, COUNT(*) AS n FROM comments c "
            "JOIN users u ON c.UserId = u.Id "
            f"WHERE LLM('{task}', c.Text) = 'yes' "
            "GROUP BY u.DisplayName ORDER BY n DESC, u.DisplayName LIMIT 5"
        )
    return Statement(domain, sql, "udf_select")


def _write_pair(
    rng: random.Random, kind: int, pair: int, data: dict[str, Any]
) -> tuple[Statement, Statement, str, int]:
    """A write and the later write that undoes it exactly.

    Returns (forward, reverse, table, rows the pair adds while open).
    Updates add and subtract a whole number from columns whose values
    are exact in binary floating point, so the table returns to its
    starting bytes.
    """
    first_id = 1_000_000 + 100 * pair
    rows = rng.randint(2, 6)
    if kind == 0:
        values = ", ".join(
            f"({first_id + n}, {rng.choice(data['race_ids'])}, "
            f"{rng.choice(data['driver_ids'])}, {rng.randint(1, 20)}, "
            f"{rng.randint(1, 20)}, {float(rng.randint(0, 25))}, "
            f"{rng.randint(20, 70)})"
            for n in range(rows)
        )
        forward = f"INSERT INTO results VALUES {values}"
        reverse = (
            f"DELETE FROM results WHERE resultId >= {first_id} "
            f"AND resultId < {first_id + rows}"
        )
        return (
            Statement("formula_1", forward, "write"),
            Statement("formula_1", reverse, "write"),
            "results",
            rows,
        )
    if kind == 1:
        delta = rng.randint(1, 5)
        race = rng.choice(data["race_ids"])
        template = "UPDATE results SET points = points {op} {delta} WHERE raceId = {race}"
        return (
            Statement("formula_1", template.format(op="+", delta=delta, race=race), "write"),
            Statement("formula_1", template.format(op="-", delta=delta, race=race), "write"),
            "results",
            0,
        )
    if kind == 2:
        values = ", ".join(
            f"({first_id + n}, '2012-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}', '12:00:00', "
            f"{rng.choice(data['customer_ids'])}, {rng.randint(100000, 999999)}, "
            f"{rng.choice(data['station_ids'])}, {rng.randint(1, 30)}, "
            f"{rng.randint(1, 90)}, {rng.randint(100, 9000) / 100})"
            for n in range(rows)
        )
        forward = f"INSERT INTO transactions_1k VALUES {values}"
        reverse = (
            f"DELETE FROM transactions_1k WHERE TransactionID >= {first_id} "
            f"AND TransactionID < {first_id + rows}"
        )
        return (
            Statement("debit_card_specializing", forward, "write"),
            Statement("debit_card_specializing", reverse, "write"),
            "transactions_1k",
            rows,
        )
    delta = rng.randint(1, 9)
    customer = rng.choice(data["customer_ids"])
    template = (
        "UPDATE transactions_1k SET Amount = Amount {op} {delta} "
        "WHERE CustomerID = {customer}"
    )
    return (
        Statement("debit_card_specializing", template.format(op="+", delta=delta, customer=customer), "write"),
        Statement("debit_card_specializing", template.format(op="-", delta=delta, customer=customer), "write"),
        "transactions_1k",
        0,
    )


def _apportion(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` by ``weights`` (largest remainder), summing exactly."""
    shares = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(weights)), key=lambda n: counts[n] - shares[n]
    )
    for n in by_remainder[: total - sum(counts)]:
        counts[n] += 1
    return counts


def sql_stream(
    datasets: dict[str, Any],
    seed: int,
    length: int,
    write_pairs: int,
) -> SQLStream:
    """One pass of statements: relational, LM-UDF and paired writes.

    Template, column and write-kind counts are fixed shares of the pass;
    the seed draws parameters, tasks and order.  A quarter of each
    column's UDF statements repeat an earlier (task, column) pair a few
    UDF statements later, close enough that the memo still holds it.
    Each write is undone later in the same pass, so every pass starts
    from the same table contents and gives the same results.
    """
    rng = random.Random(f"sql-mix/{seed}")
    f1 = datasets["formula_1"].db
    debit = datasets["debit_card_specializing"].db
    data = {
        "years": sorted({row[1] for row in f1.table("races").rows}),
        "race_ids": [row[0] for row in f1.table("races").rows],
        "driver_ids": [row[0] for row in f1.table("drivers").rows],
        "customer_ids": [row[0] for row in debit.table("customers").rows],
        "station_ids": [row[0] for row in debit.table("gasstations").rows],
    }
    tasks = [f"a {adjective} {noun}" for adjective in _ADJECTIVES for noun in _NOUNS]
    rng.shuffle(tasks)

    udf_count = round(length * UDF_SHARE)
    relational_count = length - udf_count - 2 * write_pairs
    reads: list[Statement] = []
    for template, count in enumerate(
        _apportion(relational_count, list(RELATIONAL_WEIGHTS))
    ):
        reads += [_relational(rng, template, data) for _ in range(count)]
    originals: list[tuple[str, tuple]] = []
    repeats: list[tuple[str, tuple]] = []
    per_column = _apportion(udf_count, [column[4] for column in UDF_COLUMNS])
    for column, count in zip(UDF_COLUMNS, per_column):
        again = round(count * UDF_REPEAT_SHARE)
        mine = [(tasks.pop(), column) for _ in range(count - again)]
        originals += mine
        repeats += [rng.choice(mine) for _ in range(again)]
    rng.shuffle(originals)
    udfs: list[tuple[str, tuple]] = list(originals)
    for pair in repeats:
        at = udfs.index(pair) + rng.randint(1, 6)
        udfs.insert(min(at, len(udfs)), pair)
    # UDF statements keep their relative order; relational ones fill in.
    slots = sorted(rng.sample(range(len(reads) + len(udfs)), len(udfs)))
    statements: list[Statement] = []
    shapes = iter(range(len(udfs)))
    pending = iter(udfs)
    rng.shuffle(reads)
    relational = iter(reads)
    for position in range(len(reads) + len(udfs)):
        if slots and position == slots[0]:
            slots.pop(0)
            task, column = next(pending)
            statements.append(_udf(rng, next(shapes) % 3, task, column))
        else:
            statements.append(next(relational))

    band = {
        "results": [len(f1.table("results").rows)] * 2,
        "transactions_1k": [len(debit.table("transactions_1k").rows)] * 2,
    }
    for pair in range(write_pairs):
        forward, reverse, table, rows = _write_pair(rng, pair % 4, pair, data)
        start = rng.randrange(len(statements) + 1)
        statements.insert(start, forward)
        end = rng.randrange(start + 1, len(statements) + 1)
        statements.insert(end, reverse)
        # Pairs may overlap, so the band's top adds every pair's rows.
        band[table][1] += rows
    return SQLStream(
        statements=statements,
        udf_pairs=originals,
        write_band={table: (low, high) for table, (low, high) in band.items()},
    )


def udf_working_set(datasets: dict[str, Any], stream: SQLStream) -> int:
    """Distinct (task, value) pairs the stream's UDF statements judge."""
    judged: set[tuple[str, object]] = set()
    for task, (domain, table, _, text, _) in stream.udf_pairs:
        source = datasets[domain].db.table(table)
        where = source.schema.column_names.index(text)
        judged.update((task, row[where]) for row in source.rows)
    return len(judged)
