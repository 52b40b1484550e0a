"""Batch-kernel vs row-interpreter differential harness.

The engine runs every plan node as a batch kernel and every expression as
a closure from one compiler (`repro.sqlengine.columnar`).  It must be
*observably identical* to the row interpreter and tree-walking evaluator
kept test-only in ``tests/row_engine_reference.py``: the same rows, in
the same order, under the same column names, from the same optimizer plan
— and when a statement errors, the same error.  This suite proves it two
ways:

* **corpus sweep** — every SELECT in the five domains' gold files (the
  corpus, wild, dialogue and ambiguous records) runs through the engine
  and the reference over one shared database, comparing results and
  EXPLAIN;
* **hypothesis sweep** — generated SELECTs over a NULL-heavy two-table
  schema: filters in all compiled shapes (comparisons, BETWEEN, IN,
  LIKE, IS NULL, AND/OR/NOT), arithmetic that can raise, inner/left
  joins, aggregates and grouping, ORDER BY/LIMIT, correlated EXISTS,
  scalar and IN subqueries with outer references two levels deep, and
  UPDATE statements on two clones of the schema.  Hypothesis shrinks any
  mismatch to a minimal failing statement.

The optimizer's semi-join rewrite is checked a second way: the gold
SELECTs and the generated joins run on the engine as shipped and on the
same engine with the rewrite pass replaced by the identity, which must
answer alike.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import ALL_DOMAINS, load_bundle
from repro.evaluation.goldsets import load_gold_records
from repro.sqlengine import Database, Engine, columnar, executor, optimizer, parse_sql
from repro.sqlengine.planner import SemiJoinNode
from tests.row_engine_reference import RowEngine


def _outcome(engine: Engine, sql: str):
    """Result triple or error pair, for both-raise-or-both-succeed checks."""
    try:
        result = engine.execute(sql)
    except Exception as exc:  # noqa: BLE001 - parity covers every error
        return ("error", type(exc).__name__, str(exc))
    return ("ok", tuple(result.columns), tuple(result.rows))


def assert_identical(reference: RowEngine, engine: Engine, sql: str) -> None:
    expected = _outcome(reference, sql)
    actual = _outcome(engine, sql)
    assert expected == actual, f"{sql!r}:\n row: {expected}\n batch: {actual}"
    if expected[0] == "ok":
        assert reference.explain(sql) == engine.explain(sql), sql


def _without_semi_joins(database: Database, sql: str) -> tuple:
    """``sql``'s outcome on a fresh engine whose semi-join pass is the
    identity, so every join it plans stays a hash join."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_semi_joins", lambda plan, database, above: plan)
        engine = Engine(database)
        outcome = _outcome(engine, sql)
        assert "SemiJoin" not in engine.explain(sql)
    return outcome


def _plan_nodes(plan):
    """Every node of ``plan``, parents first."""
    if plan is None:
        return
    yield plan
    for child in ("left", "right", "child"):
        if hasattr(plan, child):
            yield from _plan_nodes(getattr(plan, child))


# ==========================================================================
# Corpus sweep: every gold SELECT of every domain, both engines
# ==========================================================================


def _gold_selects(domain: str) -> list[str]:
    out = [item.gold_sql for item in load_gold_records(domain)]
    return [sql for sql in out if sql.lstrip().upper().startswith("SELECT")]


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_corpus_gold_sql_identical_across_paths(domain, monkeypatch):
    bundle = load_bundle(domain)
    reference = RowEngine(bundle.database)
    engine = Engine(bundle.database)
    plans = []
    real_plan_for = engine._plan_for

    def plan_for(*args, **kwargs):
        plans.append(real_plan_for(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(engine, "_plan_for", plan_for)
    selects = _gold_selects(domain)
    assert selects, f"domain {domain} contributed no SELECTs"
    for sql in selects:
        assert_identical(reference, engine, sql)
    # One executor: every node of every plan the engine ran, subquery
    # plans included, has a kernel.
    assert plans
    for plan in plans:
        for node in _plan_nodes(plan):
            assert hasattr(node, "_kernel"), node.describe()


#: The fewest gold SELECTs per domain whose plan must hold a semi-join
#: (64, 21, 18, 23 and 20 do when this was written): a join that only
#: filters is the usual shape of a question with a join path.
_GOLD_SEMI_JOINS = {
    "fleet": 60,
    "geography": 18,
    "company": 15,
    "saas": 20,
    "events": 18,
}


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_semi_joins_change_no_gold_answer(domain):
    database = load_bundle(domain).database
    engine = Engine(database)
    fired = 0
    for sql in _gold_selects(domain):
        expected = _without_semi_joins(database, sql)
        assert _outcome(engine, sql) == expected, sql
        if expected[0] == "ok" and "SemiJoin" in engine.explain(sql):
            fired += 1
    assert fired >= _GOLD_SEMI_JOINS[domain]


def test_corpus_sweep_is_substantial():
    total = sum(len(_gold_selects(d)) for d in ALL_DOMAINS)
    assert total >= 200, f"only {total} corpus SELECTs — corpora shrank?"


# ==========================================================================
# Hypothesis sweep: generated queries over a NULL-heavy schema
# ==========================================================================


def _build_db() -> Database:
    """The NULL-heavy schema every sweep and pin below runs on."""
    db = Database()
    setup = Engine(db)
    setup.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, a INT, b FLOAT, s TEXT, flag BOOL)"
    )
    setup.execute(
        "CREATE TABLE u (id INT PRIMARY KEY, t_id INT REFERENCES t(id), "
        "v TEXT, n INT)"
    )
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    # NULL-heavy on purpose: every nullable column is NULL for ~1 in 3
    # rows, so three-valued logic differences cannot hide.
    for i in range(60):
        a = "NULL" if i % 3 == 0 else str((i * 7) % 20 - 5)
        b = "NULL" if i % 5 == 1 else f"{(i % 11) * 1.5 - 3}"
        s = "NULL" if i % 4 == 2 else f"'{words[i % len(words)]} {i % 9}'"
        flag = "NULL" if i % 7 == 3 else ("TRUE" if i % 2 else "FALSE")
        setup.execute(f"INSERT INTO t VALUES ({i}, {a}, {b}, {s}, {flag})")
    for i in range(80):
        t_id = "NULL" if i % 6 == 4 else str((i * 3) % 60)
        v = "NULL" if i % 3 == 1 else f"'{words[(i * 2) % len(words)]}'"
        n = "NULL" if i % 4 == 0 else str(i % 12 - 2)
        setup.execute(f"INSERT INTO u VALUES ({i}, {t_id}, {v}, {n})")
    # Two tiny tables whose pinned answers are written out by hand below:
    # an INT key against a FLOAT key holding integral floats, NULL keys on
    # both sides, and one row more in q so statistics pick p as the build
    # side whether it is written left or right.
    setup.execute("CREATE TABLE p (id INT PRIMARY KEY, k INT, tag TEXT)")
    setup.execute("CREATE TABLE q (id INT PRIMARY KEY, k FLOAT, note TEXT)")
    setup.execute(
        "INSERT INTO p VALUES (1, 1, 'one'), (2, 2, 'two'), (3, NULL, 'none'), "
        "(4, 3, 'three'), (5, 1, 'uno')"
    )
    setup.execute(
        "INSERT INTO q VALUES (10, 1.0, 'a'), (11, 2.5, 'b'), (12, NULL, 'c'), "
        "(13, 3.0, 'd'), (14, 1.0, 'e'), (15, NULL, 'f')"
    )
    # p's schema with no rows: the pinned errors that only a row raises.
    setup.execute("CREATE TABLE e (id INT PRIMARY KEY, k INT, tag TEXT)")
    return db


@pytest.fixture(scope="module")
def engines():
    db = _build_db()
    return RowEngine(db), Engine(db)


_NUM_COLS = ["t.id", "t.a", "t.b", "u.n"]
_TEXT_COLS = ["t.s", "u.v"]
_WORDS = ["alpha", "beta", "gamma", "delta", "zeta", "omega"]

_num_literal = st.one_of(
    st.integers(-6, 20),
    st.sampled_from([0.0, 1.5, -3.0, 7.5]),
)
_text_literal = st.sampled_from([f"'{w}'" for w in _WORDS] + ["'alpha 3'", "'%'", "''"])


@st.composite
def _comparison(draw, cols):
    column = draw(st.sampled_from(cols))
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    if column in _TEXT_COLS:
        rhs = draw(_text_literal)
    else:
        rhs = str(draw(_num_literal))
    if draw(st.booleans()):
        return f"{rhs} {op} {column}"  # literal-OP-column flip coverage
    return f"{column} {op} {rhs}"


@st.composite
def _atom(draw, cols):
    kind = draw(
        st.sampled_from(
            ["cmp", "cmp", "cmp", "null", "between", "inlist", "like", "arith"]
        )
    )
    if kind == "cmp":
        return draw(_comparison(cols))
    column = draw(st.sampled_from(cols))
    if kind == "null":
        negated = draw(st.booleans())
        return f"{column} IS {'NOT ' if negated else ''}NULL"
    if kind == "between":
        low = draw(st.integers(-6, 10))
        span = draw(st.integers(0, 8))
        target = draw(st.sampled_from([c for c in cols if c not in _TEXT_COLS]))
        negated = draw(st.booleans())
        return f"{target} {'NOT ' if negated else ''}BETWEEN {low} AND {low + span}"
    if kind == "inlist":
        if column in _TEXT_COLS:
            items = draw(st.lists(_text_literal, min_size=1, max_size=4))
        else:
            values = draw(st.lists(_num_literal, min_size=1, max_size=4))
            items = [str(v) for v in values]
            if draw(st.booleans()):
                items.append("NULL")  # three-valued IN semantics
        negated = draw(st.booleans())
        return f"{column} {'NOT ' if negated else ''}IN ({', '.join(items)})"
    if kind == "like":
        target = draw(st.sampled_from([c for c in cols if c in _TEXT_COLS] or cols))
        patterns = ["'al%'", "'%a'", "'%et%'", "'alpha _'", "'%'"]
        pattern = draw(st.sampled_from(patterns))
        negated = draw(st.booleans())
        return f"{target} {'NOT ' if negated else ''}LIKE {pattern}"
    # arith: expressions that can divide by zero — error parity coverage
    target = draw(st.sampled_from([c for c in cols if c not in _TEXT_COLS]))
    op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
    rhs = draw(st.integers(0, 4))  # 0 divisor included deliberately
    return f"({target} {op} {rhs}) > {draw(st.integers(-4, 12))}"


@st.composite
def _predicate(draw, cols, max_depth=2):
    if max_depth == 0 or draw(st.integers(0, 2)) == 0:
        atom = draw(_atom(cols))
        if draw(st.integers(0, 5)) == 0:
            return f"NOT ({atom})"
        return atom
    left = draw(_predicate(cols, max_depth=max_depth - 1))
    right = draw(_predicate(cols, max_depth=max_depth - 1))
    connective = draw(st.sampled_from(["AND", "OR"]))
    return f"({left} {connective} {right})"


_differential_settings = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@_differential_settings
@given(data=st.data())
def test_hypothesis_single_table(engines, data):
    cols = ["t.id", "t.a", "t.b", "t.s", "t.flag"]
    where = data.draw(_predicate(cols))
    items = data.draw(
        st.sampled_from(
            ["*", "t.id, t.a", "t.s, t.b", "t.id, t.a + t.b", "t.id, upper(t.s)"]
        )
    )
    distinct = "DISTINCT " if data.draw(st.booleans()) else ""
    orders = ["", " ORDER BY t.id", " ORDER BY t.a DESC, t.id"]
    order = data.draw(st.sampled_from(orders))
    limit = data.draw(st.sampled_from(["", " LIMIT 7"]))
    sql = f"SELECT {distinct}{items} FROM t WHERE {where}{order}{limit}"
    assert_identical(*engines, sql)


def test_hypothesis_joins(engines):
    """Generated t-u joins match the reference, and match the engine
    without semi-joins.  Some project only u, whose join to t's primary
    key then only filters; some only t, whose join to u does not."""
    fired = []

    @settings(_differential_settings, max_examples=300)
    @given(data=st.data())
    def sweep(data):
        cols = ["t.id", "t.a", "t.s", "u.v", "u.n"]
        kind = data.draw(st.sampled_from(["JOIN", "JOIN", "LEFT JOIN"]))
        extras = ["", "", " AND u.n > 2", " AND t.a < u.n"]
        extra = data.draw(st.sampled_from(extras))
        where = data.draw(_predicate(cols, max_depth=1))
        both = ["t.id, u.id", "t.s, u.v", "t.id, u.n, t.a", "*"]
        only_u = ["u.id, u.n", "u.v", "u.n, u.v"]
        only_t = ["t.id, t.a", "t.s"]
        side = data.draw(st.sampled_from([both, only_u, only_t]))
        items = data.draw(st.sampled_from(side))
        orders = ["", " ORDER BY t.id, u.id"]
        if side is only_u:
            orders = ["", " ORDER BY u.id", " ORDER BY u.n DESC, u.id"]
        order = data.draw(st.sampled_from(orders))
        sql = (
            f"SELECT {items} FROM t {kind} u ON u.t_id = t.id{extra} "
            f"WHERE {where}{order}"
        )
        assert_identical(*engines, sql)
        engine = engines[1]
        assert _outcome(engine, sql) == _without_semi_joins(engine.database, sql)
        fired.append("SemiJoin" in engine.explain(sql))

    sweep()
    # An INNER join with no residual, u-only items and a WHERE that sinks
    # into the scans: 40 of the 300 statements have all four.
    assert sum(fired) >= len(fired) // 10, (sum(fired), len(fired))


@_differential_settings
@given(data=st.data())
def test_hypothesis_aggregates_and_subqueries(engines, data):
    shape = data.draw(st.sampled_from(["agg", "group", "subquery", "scalar_sub"]))
    where = data.draw(_predicate(["t.id", "t.a", "t.b", "t.s"], max_depth=1))
    if shape == "agg":
        aggregates = [
            "COUNT(*)",
            "COUNT(t.a)",
            "SUM(t.a)",
            "AVG(t.b)",
            "MIN(t.s)",
            "MAX(t.a)",
        ]
        agg = data.draw(st.sampled_from(aggregates))
        sql = f"SELECT {agg} FROM t WHERE {where}"
    elif shape == "group":
        having = data.draw(st.sampled_from(["", " HAVING COUNT(*) > 2"]))
        sql = (
            f"SELECT t.flag, COUNT(*), SUM(t.a) FROM t WHERE {where} "
            f"GROUP BY t.flag{having} ORDER BY 2 DESC, 1"
        )
    elif shape == "subquery":
        negated = "NOT " if data.draw(st.booleans()) else ""
        sql = (
            f"SELECT t.id FROM t WHERE t.id {negated}IN "
            f"(SELECT u.t_id FROM u WHERE u.n > 3) AND {where} ORDER BY t.id"
        )
    else:
        sql = (
            f"SELECT t.id, (SELECT MAX(u.n) FROM u WHERE u.t_id = t.id) "
            f"FROM t WHERE {where} ORDER BY t.id LIMIT 10"
        )
    assert_identical(*engines, sql)


#: FROM clauses of the top query.  The joins make ``id`` (with u) or every
#: t column (with t2) ambiguous at the top only, so a subquery reaching for
#: one of those names finds it ambiguous in the outer scope.
_OUTER_SOURCES = ["t", "t JOIN u ON u.t_id = t.id", "t JOIN t AS t2 ON t2.id = t.a"]

#: FROM clauses of a subquery, with the numeric columns it selects and
#: compares.  Depth 2 nests only the small tables, so a statement stays
#: cheap for the row engine.
_INNER_SOURCES = {
    "u": ["u.n", "u.t_id", "u.id"],
    "q": ["q.k", "q.id"],
    "p": ["p.k", "p.id"],
    "q JOIN p ON p.k = q.k": ["q.k", "p.id", "q.id"],
}

#: Names a subquery may reach for: qualified and bare, found locally, one
#: or two levels out, ambiguous somewhere on the way, or nowhere.  A bare
#: name held by several enclosing levels (``n``, ``k``, ``id``) reads the
#: innermost.
_REACH = [
    "t.a",
    "t.id",
    "t.b",
    "u.n",
    "u.t_id",
    "t2.a",
    "p.k",
    "q.k",
    "a",
    "b",
    "n",
    "k",
    "id",
    "tag",
    "nosuch",
]


@st.composite
def _correlated(draw, depth=1):
    """A subquery predicate whose WHERE compares an inner column with a
    name from :data:`_REACH`; at depth 1 it may hold a depth-2 one."""
    choices = sorted(_INNER_SOURCES) if depth == 1 else ["p", "q"]
    source = draw(st.sampled_from(choices))
    column = draw(st.sampled_from(_INNER_SOURCES[source]))
    ref = draw(st.sampled_from(_REACH))
    op = draw(st.sampled_from(["=", "<", ">=", "!="]))
    where = f"{column} {op} {ref}"
    if depth == 1 and draw(st.booleans()):
        connective = draw(st.sampled_from(["AND", "OR"]))
        where = f"({where}) {connective} {draw(_correlated(depth=2))}"
    kind = draw(st.sampled_from(["exists", "scalar", "in"]))
    negated = "NOT " if draw(st.booleans()) else ""
    if kind == "exists":
        return f"{negated}EXISTS (SELECT {column} FROM {source} WHERE {where})"
    if kind == "scalar":
        aggregate = draw(st.sampled_from(["MAX", "MIN", "COUNT", "SUM"]))
        argument = draw(st.sampled_from([column, ref]))  # an outer one, too
        rhs = draw(st.sampled_from(["t.a", "2", ref]))
        return (
            f"(SELECT {aggregate}({argument}) FROM {source} WHERE {where}) "
            f"{op} {rhs}"
        )
    operand = draw(st.sampled_from(["t.id", "t.a", ref]))
    return f"{operand} {negated}IN (SELECT {column} FROM {source} WHERE {where})"


@_differential_settings
@given(data=st.data())
def test_hypothesis_correlated_subqueries(engines, data):
    source = data.draw(st.sampled_from(_OUTER_SOURCES))
    predicate = data.draw(_correlated())
    placement = data.draw(st.sampled_from(["where", "item", "having"]))
    if placement == "where":
        sql = (
            f"SELECT t.id, t.a FROM {source} WHERE t.id < 20 AND {predicate} "
            "ORDER BY t.id"
        )
    elif placement == "item":
        sql = f"SELECT t.id, {predicate} FROM {source} WHERE t.id < 20 ORDER BY t.id"
    else:
        # Grouped: the subquery's outer references read each group's
        # first row.
        sql = (
            f"SELECT t.flag, COUNT(*) FROM {source} WHERE t.id < 20 "
            f"GROUP BY t.flag HAVING {predicate}"
        )
    assert_identical(*engines, sql)


@pytest.fixture(scope="module")
def clones():
    """Two databases built alike, one per engine, so a write runs on each."""
    return RowEngine(_build_db()), Engine(_build_db())


_SET_ITEMS = [
    "a = t.a + 1",
    "a = t.a * t.id - 3",
    "a = t.id / t.a",  # a zero or NULL divisor on some rows
    "a = t.id % (t.a + 5)",
    "a = -t.a",
    "b = t.b * 2",
    "b = t.a / 4",
    "b = t.b + t.a",  # reads a, which an earlier SET item may write
    "s = upper(t.s)",
    "s = t.s + '!'",
    "a = t.s + 1",  # raises on the first matched row with a text s
    "a = (SELECT MAX(u.n) FROM u WHERE u.t_id = t.id)",  # correlated
    "a = nosuch + 1",  # raises only if a row matches
]


def _update_on_clones(clones, sql: str, probe: str = "SELECT * FROM t"):
    """Run an UPDATE on both clones inside a rolled-back transaction: both
    must report the same count and leave the same table (``probe``'s
    rows), or raise the same error and leave the table untouched."""
    before = clones[1].execute(probe).rows
    outcomes = []
    for engine in clones:
        engine.execute("BEGIN")
        try:
            outcomes.append((_outcome(engine, sql), engine.execute(probe).rows))
        finally:
            engine.execute("ROLLBACK")
    assert outcomes[0] == outcomes[1], sql
    if outcomes[0][0][0] == "error":
        assert outcomes[0][1] == before, sql
    for engine in clones:
        assert engine.execute(probe).rows == before
    return outcomes[0]


@_differential_settings
@given(data=st.data())
def test_hypothesis_update_set(clones, data):
    items = data.draw(
        st.lists(
            st.sampled_from(_SET_ITEMS),
            min_size=1,
            max_size=3,
            unique_by=lambda item: item.split(" = ")[0],  # one SET per column
        )
    )
    where = data.draw(_predicate(["t.id", "t.a", "t.b", "t.s", "t.flag"]))
    _update_on_clones(clones, f"UPDATE t SET {', '.join(items)} WHERE {where}")


#: UPDATEs whose rows 0-7 of t afterwards are written out: every SET
#: expression reads the row as it was before the statement.
UPDATE_PINS = {
    "UPDATE t SET a = t.a + 1, b = t.a WHERE t.id < 4": (
        (0, None, None),
        (1, 3, 2.0),
        (2, 10, 9.0),
        (3, None, None),
        (4, 3, 3.0),
        (5, 10, 4.5),
        (6, None, None),
        (7, 4, 7.5),
    ),
    "UPDATE t SET b = t.a / 4, a = t.id WHERE t.id BETWEEN 4 AND 7": (
        (0, None, -3.0),
        (1, 2, None),
        (2, 9, 0.0),
        (3, None, 1.5),
        (4, 4, 0.75),
        (5, 5, 2.5),
        (6, 6, None),
        (7, 7, 1.0),
    ),
}


@pytest.mark.parametrize("sql", UPDATE_PINS)
def test_update_pinned(clones, sql):
    outcome, rows = _update_on_clones(
        clones, sql, "SELECT id, a, b FROM t WHERE id < 8"
    )
    assert outcome == ("ok", ("rows_affected",), ((4,),))
    assert tuple(rows) == UPDATE_PINS[sql]


# ==========================================================================
# Targeted parity pins (shapes the sweeps could sample past)
# ==========================================================================


PINNED = [
    # Kleene short-circuit: the row evaluator skips the erroring right
    # operand when the left is False, and errors when it is not.
    "SELECT t.id FROM t WHERE t.a > 100 AND t.id / 0 > 1",
    "SELECT t.id FROM t WHERE t.id >= 0 OR t.id / 0 > 1",
    # Type mismatches raise TypeMismatchError on both engines.
    "SELECT t.id FROM t WHERE t.s > 5",
    "SELECT t.id FROM t WHERE t.flag = 'yes'",
    # LIKE on a non-text operand must raise on both engines.
    "SELECT t.id FROM t WHERE t.a LIKE 'a%'",
    # Numeric join keys: 1 = 1.0 bucketing parity.
    "SELECT t.id, u.id FROM t JOIN u ON u.n = t.b ORDER BY t.id, u.id",
    # DISTINCT + ORDER BY ordinal + LIMIT over the batch projection.
    "SELECT DISTINCT t.a FROM t WHERE t.a IS NOT NULL ORDER BY 1 LIMIT 5",
    # Unqualified columns (single-table scope) compile.
    "SELECT id, a FROM t WHERE a BETWEEN 0 AND 9 ORDER BY id",
    # Scalar functions in filters and projections.
    "SELECT t.id, length(t.s) FROM t WHERE lower(t.s) LIKE 'a%' ORDER BY t.id",
    # Empty results keep their column headers.
    "SELECT t.id, t.s FROM t WHERE t.a > 999",
]

#: The set {13, 14, 16, 17}, used by the pins that mix compiled and
#: uncompiled expressions in one node.
_IN_SUB = "q.id IN (SELECT x.id + 12 FROM p AS x WHERE x.k IS NOT NULL)"

#: Pins whose answer is written out, so the two engines cannot drift
#: together: the rows in order, or the error both must raise.
_EXPECTED_PINS = [
    # Hash join without key normalisation: INT 1 meets FLOAT 1.0 because
    # equal numbers hash equal.  Built on p (probe order = q's rows) ...
    (
        "SELECT p.id, q.id FROM p JOIN q ON p.k = q.k",
        ((1, 10), (5, 10), (4, 13), (1, 14), (5, 14)),
    ),
    # ... and built on p from the right (probe order = q's rows again).
    (
        "SELECT q.id, p.id FROM q JOIN p ON q.k = p.k",
        ((10, 1), (10, 5), (13, 4), (14, 1), (14, 5)),
    ),
    # NULL keys never match, not even each other.
    ("SELECT p.id FROM p JOIN q ON p.k = q.k WHERE q.k IS NULL", ()),
    # LEFT JOIN pads unmatched and NULL-keyed rows, with and without a
    # residual.
    (
        "SELECT p.id, q.id, q.note FROM p LEFT JOIN q ON p.k = q.k",
        (
            (1, 10, "a"),
            (1, 14, "e"),
            (2, None, None),
            (3, None, None),
            (4, 13, "d"),
            (5, 10, "a"),
            (5, 14, "e"),
        ),
    ),
    (
        "SELECT p.id, q.id FROM p LEFT JOIN q ON p.k = q.k AND q.id > 10",
        ((1, 14), (2, None), (3, None), (4, 13), (5, 14)),
    ),
    # An aggregate over an outer column inside a correlated subquery: the
    # argument is that run's constant, summed once per inner row.
    (
        "SELECT p.id, (SELECT SUM(p.k) FROM q WHERE q.k = p.k) AS s "
        "FROM p ORDER BY p.id",
        ((1, 2), (2, None), (3, None), (4, 3), (5, 2)),
    ),
    (
        "SELECT SUM(p.tag) FROM p",
        ("error", "ExecutionError", "sum() requires numeric input, got 'one'"),
    ),
    # NULL is a group key like any other; groups come in first-seen order.
    (
        "SELECT p.k, COUNT(*) FROM p GROUP BY p.k",
        ((1, 2), (2, 1), (None, 1), (3, 1)),
    ),
    (
        "SELECT q.k, COUNT(*), MIN(q.note) FROM q GROUP BY q.k ORDER BY 2 DESC, 1",
        ((None, 2, "c"), (1.0, 2, "a"), (2.5, 1, "b"), (3.0, 1, "d")),
    ),
    ("SELECT COUNT(*), AVG(p.k) FROM p WHERE p.id > 99", ((0, None),)),
    # % takes the dividend's sign, on integers and floats alike.
    (
        "SELECT -7 % 3, 7 % -3, -7 % -3, -7.5 % 2, 7.5 % -2, -6.0 % 3",
        ((-1, 1, -1, -1.5, 1.5, 0.0),),
    ),
    ("SELECT p.id % 0 FROM p", ("error", "ExecutionError", "modulo by zero")),
    # Semi-joins.  Built on the kept side (p is smaller than u), the rows
    # come in the filter side's order, as the hash join emitted them: u's
    # rows 1, 2, 3 meet p's k = 1 (twice), 2 and 3.
    (
        "SELECT p.tag FROM p JOIN u ON p.k = u.id",
        (("one",), ("uno",), ("two",), ("three",)),
    ),
    # Built on the filter side, in the kept side's own order.
    (
        "SELECT u.id FROM u JOIN p ON u.n = p.id WHERE u.id < 12",
        ((3,), (5,), (6,), (7,)),
    ),
    # t is joined on its primary key and nothing projects it, but the
    # (never rewritten) LEFT join above reads t.a: t stays.
    (
        "SELECT u.id FROM u JOIN t ON u.t_id = t.id LEFT JOIN p ON t.a = p.id "
        "WHERE u.id < 10 ORDER BY u.id",
        ((0,), (1,), (2,), (3,), (5,), (6,), (7,), (8,), (9,)),
    ),
    # HAVING on an aggregate the select list does not carry.
    ("SELECT p.k FROM p GROUP BY p.k HAVING SUM(p.id) > 3", ((1,), (3,))),
    # Below: nodes mixing expressions compiled once with ones compiled per
    # run.  A hash-join residual holding a subquery, INNER (built on p,
    # probed in q's order) and LEFT (probed in p's order, unmatched rows
    # padded).
    (
        f"SELECT p.id, q.id FROM p JOIN q ON p.k = q.k AND {_IN_SUB}",
        ((4, 13), (1, 14), (5, 14)),
    ),
    (
        f"SELECT p.id, q.id FROM p LEFT JOIN q ON p.k = q.k AND {_IN_SUB}",
        ((1, 14), (2, None), (3, None), (4, 13), (5, 14)),
    ),
    # Nested-loop joins (no equi conjunct): left-major, right-minor order,
    # LEFT rows padded, with a compiled condition and with a subquery in it.
    (
        "SELECT p.id, q.id FROM p JOIN q ON p.k < q.k",
        ((1, 11), (1, 13), (2, 11), (2, 13), (5, 11), (5, 13)),
    ),
    (
        "SELECT p.id, q.id FROM p LEFT JOIN q ON p.k > q.k",
        (
            (1, None),
            (2, 10),
            (2, 14),
            (3, None),
            (4, 10),
            (4, 11),
            (4, 14),
            (5, None),
        ),
    ),
    (
        f"SELECT p.id, q.id FROM p JOIN q ON p.k < q.k AND {_IN_SUB}",
        ((1, 13), (2, 13), (5, 13)),
    ),
    (
        f"SELECT p.id, q.id FROM p LEFT JOIN q ON p.k > q.k AND {_IN_SUB}",
        ((1, None), (2, 14), (3, None), (4, 14), (5, None)),
    ),
    # A compiled scan conjunct beside a subquery conjunct, in both orders
    # (the scan takes the compiled one, a filter the subquery).
    (
        "SELECT p.id FROM p WHERE p.k > 1 AND p.id IN (SELECT q.id - 9 FROM q)",
        ((2,), (4,)),
    ),
    (
        "SELECT p.id FROM p WHERE p.id IN (SELECT q.id - 9 FROM q) AND p.k > 1",
        ((2,), (4,)),
    ),
    # A NULL from an uncompiled predicate rejects the row, as FALSE does.
    ("SELECT p.id FROM p WHERE p.k IN (SELECT q.k FROM q)", ((1,), (4,), (5,))),
    ("SELECT p.id FROM p WHERE p.k NOT IN (SELECT q.k FROM q)", ()),
    # A correlated inner query: its local conjunct runs in the scan, the
    # one with the outer reference in a filter bound once per outer row.
    (
        "SELECT p.id, (SELECT COUNT(*) FROM q WHERE q.k = p.k AND q.id > 10) "
        "FROM p ORDER BY p.id",
        ((1, 1), (2, 0), (3, 0), (4, 1), (5, 1)),
    ),
    (
        "SELECT p.id FROM p WHERE EXISTS "
        "(SELECT q.id FROM q WHERE q.note > 'b' AND q.k = p.k)",
        ((1,), (4,), (5,)),
    ),
    # A correlated subquery beside a plain column: no column-wise zip.
    (
        "SELECT p.tag, (SELECT MIN(q.note) FROM q WHERE q.k = p.k) FROM p",
        (("one", "a"), ("two", None), ("none", None), ("three", "d"), ("uno", "a")),
    ),
    # Aggregate arguments holding a subquery, correlated and not.
    (
        "SELECT p.k, SUM((SELECT COUNT(*) FROM q WHERE q.k = p.k)) FROM p "
        "GROUP BY p.k",
        ((1, 4), (2, 0), (None, 0), (3, 1)),
    ),
    (
        "SELECT COUNT(*), MAX(p.id + (SELECT MIN(q.id) FROM q)) FROM p",
        ((5, 15),),
    ),
    # A subquery predicate raises exactly where the evaluator does.
    (
        "SELECT p.id FROM p WHERE p.k > 1 AND p.id = (SELECT q.id FROM q)",
        ("error", "ExecutionError", "scalar subquery returned more than one row"),
    ),
    # A bare name held by both enclosing levels reads the innermost: k is
    # q.k here, not p.k, so every p row counts the same q rows.
    (
        "SELECT p.id, (SELECT COUNT(*) FROM q WHERE EXISTS "
        "(SELECT u.id FROM u WHERE u.n = k)) FROM p ORDER BY p.id",
        ((1, 3), (2, 3), (3, 3), (4, 3), (5, 3)),
    ),
    # Both levels read at depth 2.
    (
        "SELECT p.id, (SELECT COUNT(*) FROM q WHERE EXISTS "
        "(SELECT u.id FROM u WHERE u.n = p.k + q.k)) FROM p ORDER BY p.id",
        ((1, 1), (2, 3), (3, 0), (4, 2), (5, 1)),
    ),
    # A name ambiguous only in the outer scope raises once a row reaches it.
    (
        "SELECT t.id FROM t JOIN t AS t2 ON t2.id = t.a "
        "WHERE EXISTS (SELECT q.id FROM q WHERE q.k = a)",
        ("error", "UnknownColumnError", "ambiguous column reference 'a'"),
    ),
    (
        "SELECT t.id FROM t JOIN t AS t2 ON t2.id = t.a "
        "WHERE t.id < 0 AND EXISTS (SELECT q.id FROM q WHERE q.k = a)",
        (),
    ),
    # A grouped non-aggregate reads the group's first row, and so does a
    # correlated subquery in a grouped item, HAVING or ORDER BY key.
    (
        "SELECT p.k, p.tag, COUNT(*) FROM p GROUP BY p.k",
        ((1, "one", 2), (2, "two", 1), (None, "none", 1), (3, "three", 1)),
    ),
    (
        "SELECT p.k, (SELECT COUNT(*) FROM q WHERE q.id > p.id + 8) FROM p "
        "GROUP BY p.k",
        ((1, 6), (2, 5), (None, 4), (3, 3)),
    ),
    (
        "SELECT p.k, (SELECT COUNT(*) FROM q WHERE q.k = p.k) FROM p GROUP BY p.k",
        ((1, 2), (2, 0), (None, 0), (3, 1)),
    ),
    (
        "SELECT p.k, COUNT(*) FROM p GROUP BY p.k "
        "HAVING EXISTS (SELECT q.id FROM q WHERE q.k = p.k)",
        ((1, 2), (3, 1)),
    ),
    (
        "SELECT p.k, COUNT(*) FROM p GROUP BY p.k "
        "ORDER BY (SELECT MAX(q.id) FROM q WHERE q.k <= p.k), 1",
        ((None, 1), (1, 2), (2, 1), (3, 1)),
    ),
]

_UNKNOWN_COLUMN = ("error", "UnknownColumnError", "unknown column 'nosuch'")
_AMBIGUOUS = ("error", "UnknownColumnError", "ambiguous column reference 'k'")
_UNKNOWN_FUNCTION = (
    "error",
    "ExecutionError",
    "unknown function 'nosuchfn' (aggregates are only valid in "
    "SELECT/HAVING/ORDER BY of a grouped query)",
)
_STAR = ("error", "ExecutionError", "'*' is only valid in a select list or COUNT(*)")

#: Names, functions and stars that cannot be evaluated raise only when a
#: row reaches them: on the empty table e a statement answers, on p (the
#: same schema, with rows) it raises.  This pins the data-dependent
#: behaviour as it stands; binding names before any row is read will
#: change the empty-table rows on purpose.
_EXPECTED_PINS += [
    ("SELECT nosuch FROM e", ()),
    ("SELECT nosuch FROM p", _UNKNOWN_COLUMN),
    ("SELECT e.id FROM e WHERE nosuch > 1", ()),
    ("SELECT p.id FROM p WHERE nosuch > 1", _UNKNOWN_COLUMN),
    ("SELECT e.id FROM e ORDER BY nosuch", ()),
    ("SELECT p.id FROM p ORDER BY nosuch", _UNKNOWN_COLUMN),
    ("SELECT SUM(nosuch) FROM e", ((None,),)),
    ("SELECT SUM(nosuch) FROM p", _UNKNOWN_COLUMN),
    # A grouped non-aggregate reads the all-NULL row of the empty group.
    ("SELECT nosuch, COUNT(*) FROM e", _UNKNOWN_COLUMN),
    ("SELECT e.id FROM e WHERE EXISTS (SELECT q.id FROM q WHERE q.k = nosuch)", ()),
    (
        "SELECT p.id FROM p WHERE EXISTS (SELECT q.id FROM q WHERE q.k = nosuch)",
        _UNKNOWN_COLUMN,
    ),
    ("SELECT k FROM e JOIN e AS e2 ON e.id = e2.id", ()),
    ("SELECT k FROM p JOIN p AS p2 ON p.id = p2.id", _AMBIGUOUS),
    ("SELECT nosuchfn(e.k) FROM e", ()),
    ("SELECT nosuchfn(p.k) FROM p", _UNKNOWN_FUNCTION),
    ("SELECT e.id FROM e WHERE upper(*) = 'x'", ()),
    ("SELECT p.id FROM p WHERE upper(*) = 'x'", _STAR),
]
EXPECTED: dict[str, tuple] = dict(_EXPECTED_PINS)
PINNED += list(EXPECTED)


def _answer(engine: Engine, sql: str) -> tuple:
    outcome = _outcome(engine, sql)
    return outcome if outcome[0] == "error" else outcome[2]


@pytest.mark.parametrize("sql", PINNED)
def test_pinned_parity(engines, sql):
    assert_identical(*engines, sql)
    if sql in EXPECTED:
        for engine in engines:
            assert _answer(engine, sql) == EXPECTED[sql]


def test_pinned_joins_cover_both_build_sides(engines):
    engine = engines[1]
    assert "build=left" in engine.explain(
        "SELECT p.id, q.id FROM p JOIN q ON p.k = q.k"
    )
    assert "build=right" in engine.explain(
        "SELECT q.id, p.id FROM q JOIN p ON q.k = p.k"
    )
    assert "NestedLoopJoin[LEFT]" in engine.explain(
        "SELECT p.id, q.id FROM p LEFT JOIN q ON p.k > q.k"
    )


def test_pinned_semi_joins_cover_both_orders(engines):
    """The pinned semi-joins fire, in both output orders, and leave the
    join whose dimension an ancestor join reads."""

    def semi_joins(sql):
        plan = engines[1]._plan_for(parse_sql(sql))
        return [node for node in _plan_nodes(plan) if isinstance(node, SemiJoinNode)]

    (kept_order,) = semi_joins(
        "SELECT u.id FROM u JOIN p ON u.n = p.id WHERE u.id < 12"
    )
    assert (kept_order.keep, kept_order.build) == ("left", "right")
    (filter_order,) = semi_joins("SELECT p.tag FROM p JOIN u ON p.k = u.id")
    assert (filter_order.keep, filter_order.build) == ("left", "left")
    assert not semi_joins(
        "SELECT u.id FROM u JOIN t ON u.t_id = t.id LEFT JOIN p ON t.a = p.id "
        "WHERE u.id < 10 ORDER BY u.id"
    )


#: DML WHERE clauses over p and the row ids they match (p's rows sit at
#: positions 0-4 in id order), or the error both engines raise.
DML_WHERE = {
    "p.k > 1 AND p.id IN (SELECT q.id - 9 FROM q)": [1, 3],
    "p.id IN (SELECT q.id - 9 FROM q) AND p.k > 1": [1, 3],
    "p.id = 5 AND p.k IN (SELECT q.k FROM q)": [4],
    "p.k IN (SELECT q.k FROM q WHERE q.k IS NOT NULL)": [0, 3, 4],
    "p.k NOT IN (SELECT q.k FROM q)": [],
    "p.k > 0 AND p.id = (SELECT q.id FROM q)": (
        "ExecutionError",
        "scalar subquery returned more than one row",
    ),
}


@pytest.mark.parametrize("where", DML_WHERE)
def test_dml_where_matches_reference(engines, where):
    predicate = parse_sql(f"DELETE FROM p WHERE {where}").where
    answers = []
    for engine in engines:
        try:
            answers.append(engine._matching_row_ids("p", predicate))
        except Exception as exc:  # noqa: BLE001 - parity covers every error
            answers.append((type(exc).__name__, str(exc)))
    assert answers == [DML_WHERE[where]] * 2


def test_grouping_compiles_once_and_outer_references_bind_once_per_run(
    engines, monkeypatch
):
    """A grouped expression compiles once per statement, not once per
    group; an outer reference is looked up once per run of its subquery,
    not once per inner row."""
    calls = {"group": 0, "outer": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        executor,
        "compile_group_expr",
        counting("group", executor.compile_group_expr),
    )
    monkeypatch.setattr(
        columnar, "_outer_value", counting("outer", columnar._outer_value)
    )
    engine = Engine(engines[1].database)
    rows = engine.execute(
        "SELECT p.k, COUNT(*), SUM(p.id) FROM p GROUP BY p.k "
        "HAVING MAX(p.id) > 0 ORDER BY MIN(p.tag)"
    ).rows
    assert len(rows) == 4
    assert calls == {"group": 5, "outer": 0}  # 3 items, HAVING, 1 ORDER BY key
    calls.update(group=0, outer=0)
    sql = "SELECT p.id, (SELECT COUNT(*) FROM q WHERE q.k = p.k) FROM p"
    assert "Filter((q.k = p.k))" in engine.explain(
        "SELECT COUNT(*) FROM q WHERE q.k = p.k"
    )
    engine.execute(sql)
    # Per outer row (5 of them, over 6 q rows): the inner filter binds p.k
    # once, and the inner COUNT(*) compiles once.
    assert calls == {"group": 5, "outer": 5}


def test_row_engine_shares_no_evaluation_code(monkeypatch):
    """The oracle never reaches the engine's compiler, kernels or group
    emission, on reads, writes and subqueries alike."""
    reference = RowEngine(_build_db())
    reached = []

    def guard(name):
        def trap(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"RowEngine called {name}")

        return trap

    for module, name in [
        (columnar, "compile_expr"),
        (columnar, "compile_group_expr"),
        (columnar, "bind_expr"),
        (columnar, "bind_selector"),
        (columnar, "install_kernels"),
        (executor, "compile_expr"),
        (executor, "compile_group_expr"),
        (executor, "install_kernels"),
    ]:
        monkeypatch.setattr(module, name, guard(name))
    for sql in PINNED:
        _outcome(reference, sql)
    for sql in [
        "UPDATE t SET a = t.a + (SELECT MAX(u.n) FROM u WHERE u.t_id = t.id) "
        "WHERE t.id < 5",
        "INSERT INTO e VALUES ((SELECT MAX(p.id) FROM p) + 1, 2 * 3, 'x')",
        "DELETE FROM e WHERE e.k IN (SELECT p.k FROM p)",
    ]:
        assert _outcome(reference, sql)[0] == "ok", sql
    assert reached == []
