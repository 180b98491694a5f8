"""Differential test: ``repro.db`` against stdlib ``sqlite3``.

SQLite is the engine the paper's TAG pipelines run on, so on the SQL
subset ``repro.db`` accepts, both engines must return the same rows —
same values *and* same Python types.  One small schema with NULLs,
negative numbers, fractional reals and duplicate keys is loaded
identically into both engines, and every query in ``QUERIES`` is run on
each.  Queries with an ORDER BY use a total order and are compared as
lists; the rest are compared as multisets.

The few intended deviations are listed in ``TestIntendedDeviations``;
each pins ``repro.db``'s own output and checks that SQLite still
differs, so a deviation that disappears is noticed.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from repro.db import Database
from repro.errors import PlanningError

DDL = (
    "CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept INTEGER, "
    "salary REAL, bonus INTEGER)",
    "CREATE TABLE dept (id INTEGER, title TEXT)",
)

EMP = [
    (1, "ann", 10, 1500.5, 3),
    (2, "bob", 10, -20.25, None),
    (3, "cy", 20, 300.0, -7),
    (4, None, None, None, 7),
    (5, "dee", 20, 300.0, -7),
    (6, "Eve", 30, 42.75, 0),
    (7, "bob", None, -1.5, 12),
    (8, "fay", 10, 0.0, -3),
]

#: ``id`` is not unique here: dept 20 has two titles, so joins fan out.
DEPT = [(10, "eng"), (20, "ops"), (20, "ops2"), (40, "hr"), (None, "nobody")]

QUERIES = [
    # scans, filters, NULL handling
    "SELECT id, name, dept, salary, bonus FROM emp ORDER BY id",
    "SELECT name, dept FROM emp WHERE dept >= 10",
    "SELECT id FROM emp WHERE bonus < 0 ORDER BY id",
    "SELECT id FROM emp WHERE dept IS NULL ORDER BY id",
    "SELECT id FROM emp WHERE dept IS NOT NULL AND salary > 0 ORDER BY id",
    "SELECT id FROM emp WHERE bonus > 0 OR dept IS NULL ORDER BY id",
    "SELECT id FROM emp WHERE NOT (bonus > 0) ORDER BY id",
    "SELECT id FROM emp WHERE salary BETWEEN -5 AND 300 ORDER BY id",
    "SELECT id FROM emp WHERE bonus NOT BETWEEN -7 AND 0 ORDER BY id",
    "SELECT id FROM emp WHERE dept IN (10, 30) ORDER BY id",
    "SELECT id FROM emp WHERE dept NOT IN (10, 30) ORDER BY id",
    "SELECT id FROM emp WHERE bonus IN (-7, NULL) ORDER BY id",
    "SELECT id FROM emp WHERE bonus NOT IN (-7, NULL) ORDER BY id",
    "SELECT id FROM emp WHERE name LIKE 'b%' ORDER BY id",
    "SELECT id FROM emp WHERE name LIKE '_e_' ORDER BY id",
    "SELECT id FROM emp WHERE name LIKE 'EVE' ORDER BY id",
    "SELECT id FROM emp WHERE name NOT LIKE '%e%' ORDER BY id",
    "SELECT id FROM emp WHERE name > 'bob' ORDER BY id",
    "SELECT id FROM emp WHERE salary > bonus ORDER BY id",
    # ordering, NULLs first ascending / last descending, LIMIT/OFFSET
    "SELECT id, salary FROM emp ORDER BY salary, id",
    "SELECT id, salary FROM emp ORDER BY salary DESC, id",
    "SELECT id, bonus FROM emp ORDER BY bonus DESC, id DESC",
    "SELECT id FROM emp ORDER BY bonus DESC, id LIMIT 3",
    "SELECT id FROM emp ORDER BY id LIMIT 3 OFFSET 2",
    "SELECT id, bonus FROM emp WHERE bonus IS NOT NULL "
    "ORDER BY ABS(bonus), id",
    "SELECT DISTINCT dept FROM emp ORDER BY dept",
    "SELECT DISTINCT name FROM emp ORDER BY name DESC",
    "SELECT DISTINCT dept, bonus FROM emp ORDER BY dept, bonus",
    # aggregates and grouping
    "SELECT COUNT(*), SUM(bonus), AVG(bonus), TOTAL(bonus) FROM emp",
    "SELECT SUM(salary), TOTAL(salary), MIN(name), MAX(name) FROM emp",
    "SELECT COUNT(*), SUM(bonus), TOTAL(bonus) FROM emp WHERE id > 100",
    "SELECT COUNT(DISTINCT dept) FROM emp",
    "SELECT dept, COUNT(*), COUNT(bonus), SUM(bonus), MIN(salary), "
    "MAX(salary) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT dept, AVG(salary), TOTAL(bonus) FROM emp GROUP BY dept "
    "ORDER BY dept",
    "SELECT dept, SUM(salary) FROM emp GROUP BY dept HAVING COUNT(*) > 1 "
    "ORDER BY dept",
    "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING SUM(bonus) < 0 "
    "ORDER BY dept",
    "SELECT dept, MAX(bonus) FROM emp WHERE bonus IS NOT NULL "
    "GROUP BY dept ORDER BY MAX(bonus) DESC, dept",
    "SELECT name, COUNT(*) AS c FROM emp GROUP BY name ORDER BY c DESC, name",
    "SELECT dept, GROUP_CONCAT(name) FROM emp WHERE dept = 10 GROUP BY dept",
    # joins over duplicate and NULL keys
    "SELECT e.id, d.title FROM emp e JOIN dept d ON e.dept = d.id "
    "ORDER BY e.id, d.title",
    "SELECT e.id, d.title FROM emp e LEFT JOIN dept d ON e.dept = d.id "
    "ORDER BY e.id, d.title",
    "SELECT d.title, COUNT(e.id) FROM dept d LEFT JOIN emp e "
    "ON e.dept = d.id GROUP BY d.title ORDER BY d.title",
    "SELECT e.name, d.title FROM emp e JOIN dept d ON e.dept = d.id "
    "WHERE d.title LIKE '%s%'",
    # uncorrelated subqueries
    "SELECT id FROM emp WHERE dept IN "
    "(SELECT id FROM dept WHERE title LIKE 'o%') ORDER BY id",
    "SELECT id FROM emp WHERE dept NOT IN "
    "(SELECT id FROM dept WHERE id IS NOT NULL) ORDER BY id",
    "SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE id = 40) "
    "ORDER BY id",
    "SELECT id FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE id = 99)",
    "SELECT id, (SELECT MAX(bonus) FROM emp) FROM emp ORDER BY id",
    "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)",
    "SELECT x.dept, x.n FROM (SELECT dept, COUNT(*) AS n FROM emp "
    "GROUP BY dept) x ORDER BY x.dept",
    # scalar expressions and functions
    "SELECT id, CASE WHEN bonus > 0 THEN 'pos' WHEN bonus < 0 THEN 'neg' "
    "ELSE 'zero' END FROM emp ORDER BY id",
    "SELECT id, CASE dept WHEN 10 THEN 'ten' WHEN 20 THEN 'twenty' END "
    "FROM emp ORDER BY id",
    "SELECT id, COALESCE(name, 'anon'), IFNULL(dept, -1), "
    "NULLIF(bonus, -7) FROM emp ORDER BY id",
    "SELECT id, UPPER(name), LOWER(name), LENGTH(name), name || '-' || dept "
    "FROM emp ORDER BY id",
    "SELECT id, ABS(bonus), ABS(salary), ROUND(salary), ROUND(salary, 1) "
    "FROM emp ORDER BY id",
    "SELECT id, bonus + 1, bonus - dept, bonus * 2, salary * 2, -bonus "
    "FROM emp ORDER BY id",
    "SELECT 7.0 / 2, 6 / 3, 1 / 0, 1 + 2 * 3, (1 + 2) * 3, 10 - 2 - 3",
    "SELECT SUBSTR('hello', 2), SUBSTR('hello', 2, 3), SUBSTR('hello', -3), "
    "SUBSTR('hello', 0), SUBSTR('hello', 0, 2), SUBSTR('hello', -7, 4), "
    "SUBSTR('hello', 3, -2), SUBSTR('hello', 5, -9), SUBSTR('hello', 9)",
    "SELECT id, SUBSTR(name, 2), SUBSTR(name, 1, 2) FROM emp ORDER BY id",
    # `%`: the dividend's sign, REAL operands cast to INTEGER first
    "SELECT 7 % 3, -7 % 3, 7 % -3, -7 % -3",
    "SELECT 7.9 % 2, -7.5 % 2, 7 % 2.5, 7.0 % 3, 0.5 % 5, 1e300 % 7",
    "SELECT 5 % 0, 5 % 0.5, 5 % 0.0, NULL % 2",
    "SELECT id, bonus % 3, bonus % -3, salary % 7 FROM emp ORDER BY id",
    # CAST: truncation, int64 saturation, longest numeric text prefix
    "SELECT CAST(1.5 AS INTEGER), CAST(-2.25 AS INTEGER), "
    "CAST(-0.5 AS INTEGER), CAST(1e300 AS INTEGER), CAST(-1e300 AS INTEGER)",
    "SELECT CAST('12abc' AS INTEGER), CAST(' 12abc' AS INTEGER), "
    "CAST('1e3' AS INTEGER), CAST('-3.7' AS INTEGER), CAST('  +5' AS INTEGER)",
    "SELECT CAST('abc' AS INTEGER), CAST('' AS INTEGER), "
    "CAST('99999999999999999999' AS INTEGER)",
    "SELECT CAST('1.9x' AS REAL), CAST('abc' AS REAL), CAST('.5' AS REAL), "
    "CAST('1e+' AS REAL), CAST('-0' AS REAL), CAST(12 AS REAL)",
    "SELECT id, CAST(salary AS INTEGER), CAST(bonus AS REAL), "
    "CAST(bonus AS TEXT), CAST(name AS INTEGER), CAST(salary AS TEXT) "
    "FROM emp ORDER BY id",
    "SELECT id, CAST(bonus AS INTEGER) % 4 FROM emp ORDER BY id",
    # ROUND: half away from zero on the decimal rendering, digit count
    # clamped to [0, 30] and truncated
    "SELECT ROUND(1.005, 2), ROUND(2.675, 2), ROUND(-1.005, 2), "
    "ROUND(0.125, 2), ROUND(123.455, 2), ROUND(0.285, 2), ROUND(2.5), "
    "ROUND(-2.5)",
    "SELECT ROUND(15.5, -1), ROUND(1.25, 1.7), ROUND(-0.001, 2), "
    "ROUND(-0.4), ROUND(1e300, 2), ROUND(7, 2), ROUND(0.49999999999999994)",
    "SELECT id, ROUND(salary / 7, 2), ROUND(bonus, 1) FROM emp ORDER BY id",
    # a FROM subquery needs no alias
    "SELECT COUNT(*) FROM (SELECT dept FROM emp WHERE bonus > 0)",
    "SELECT dept, n FROM (SELECT dept, COUNT(*) AS n FROM emp "
    "GROUP BY dept) WHERE n > 1 ORDER BY dept",
    "SELECT COUNT(*) FROM (SELECT id FROM emp) JOIN dept ON dept.id = 10",
]


def _load() -> tuple[Database, sqlite3.Connection]:
    ours = Database()
    theirs = sqlite3.connect(":memory:")
    for ddl in DDL:
        ours.execute(ddl)
        theirs.execute(ddl)
    ours.insert("emp", EMP)
    ours.insert("dept", DEPT)
    theirs.executemany("INSERT INTO emp VALUES (?, ?, ?, ?, ?)", EMP)
    theirs.executemany("INSERT INTO dept VALUES (?, ?)", DEPT)
    return ours, theirs


@pytest.fixture(scope="module")
def engines():
    ours, theirs = _load()
    yield ours, theirs
    theirs.close()


def typed(rows) -> list[tuple]:
    """Rows with each value paired with its type: ``1``, ``1.0`` and
    ``True`` all compare equal in Python, but not here."""
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "noopt"])
@pytest.mark.parametrize("sql", QUERIES)
def test_matches_sqlite(engines, sql, optimize):
    ours, theirs = engines
    got = typed(ours.execute(sql, optimize=optimize).rows)
    expected = typed(theirs.execute(sql).fetchall())
    if "ORDER BY" in sql:
        assert got == expected
    else:
        assert Counter(got) == Counter(expected)


class TestIntendedDeviations:
    """Documented, deliberate differences from SQLite."""

    def test_integer_division_is_exact(self, engines):
        # An INTEGER quotient stays an int only when it is exact;
        # SQLite truncates (7 / 2 = 3).
        ours, theirs = engines
        sql = "SELECT 7 / 2, -7 / 2, 6 / 3"
        assert ours.execute(sql).rows == [(3.5, -3.5, 2)]
        assert theirs.execute(sql).fetchall() == [(3, -3, 2)]

    def test_correlated_subquery_is_rejected(self, engines):
        # Subqueries are planned once, uncorrelated; a reference to the
        # outer query is a planning error rather than a nested loop.
        ours, theirs = engines
        sql = (
            "SELECT e.id FROM emp e WHERE EXISTS "
            "(SELECT 1 FROM dept d WHERE d.id = e.dept) ORDER BY e.id"
        )
        with pytest.raises(PlanningError, match="unknown column e.dept"):
            ours.execute(sql)
        assert theirs.execute(sql).fetchall() == [(1,), (2,), (3,), (5,), (8,)]

    def test_predicates_yield_booleans(self, engines):
        # repro.db has a BOOLEAN type, so a predicate in the SELECT list
        # is True/False; SQLite has none and returns 1/0.
        ours, theirs = engines
        sql = "SELECT bonus > 0, name IS NULL FROM emp WHERE id = 4"
        assert typed(ours.execute(sql).rows) == [
            (("bool", True), ("bool", True))
        ]
        assert typed(theirs.execute(sql).fetchall()) == [
            (("int", 1), ("int", 1))
        ]
