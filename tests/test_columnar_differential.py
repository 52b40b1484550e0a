"""Row-vs-columnar differential harness.

The columnar batch executor (`repro.sqlengine.columnar`) must be
*observably identical* to the row interpreter: the same rows, in the same
order, under the same column names, from the same optimizer plan — and
when a query errors, the same error.  This suite proves it two ways:

* **corpus sweep** — every SELECT in the five domain corpora (t1–t5 gold
  SQL, wild questions and dialogue turns) runs through a row engine and a
  columnar engine over one shared database, comparing results and the
  EXPLAIN plan (modulo the ``columnar=true`` annotations, which are the
  only rendering the two modes may legitimately differ in);
* **hypothesis sweep** — generated SELECTs over a NULL-heavy two-table
  schema: filters in all compiled shapes (comparisons, BETWEEN, IN,
  LIKE, IS NULL, AND/OR/NOT), arithmetic that can raise, inner/left
  joins, aggregates and grouping, ORDER BY/LIMIT, and subqueries that
  force the row-path fallback.  Hypothesis shrinks any mismatch to a
  minimal failing query.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import ALL_DOMAINS, load_bundle
from repro.sqlengine import Database, Engine


def _strip_columnar(plan: str) -> str:
    """EXPLAIN text without the columnar annotations.

    ``columnar=true`` is the *only* EXPLAIN difference the two modes are
    allowed to have; everything else (join order, build side, estimates,
    index hints, residual counts) must match exactly.
    """
    return plan.replace(" [columnar=true]", "").replace(" columnar=true", "")


def _outcome(engine: Engine, sql: str):
    """Result triple or error pair, for both-raise-or-both-succeed checks."""
    try:
        result = engine.execute(sql)
    except Exception as exc:  # noqa: BLE001 - parity covers every error
        return ("error", type(exc).__name__, str(exc))
    return ("ok", tuple(result.columns), tuple(result.rows))


def assert_identical(row_engine: Engine, col_engine: Engine, sql: str) -> None:
    row_out = _outcome(row_engine, sql)
    col_out = _outcome(col_engine, sql)
    assert row_out == col_out, (
        f"row/columnar divergence for {sql!r}:\n row: {row_out}\n col: {col_out}"
    )
    if row_out[0] == "ok":
        row_plan = row_engine.explain(sql)
        col_plan = col_engine.explain(sql)
        assert row_plan == _strip_columnar(col_plan), (
            f"plan divergence for {sql!r}:\n row: {row_plan}\n col: {col_plan}"
        )


# ==========================================================================
# Corpus sweep: every gold SELECT of every domain, both engines
# ==========================================================================


def _bundle_selects(bundle) -> list[str]:
    out: list[str] = []
    for example in bundle.corpus + bundle.wild:
        out.append(example.gold_sql)
    for dialogue in bundle.dialogues:
        out.extend(turn.gold_sql for turn in dialogue)
    return [sql for sql in out if sql.lstrip().upper().startswith("SELECT")]


@pytest.mark.parametrize("domain", ALL_DOMAINS)
def test_corpus_gold_sql_identical_across_paths(domain):
    bundle = load_bundle(domain)
    row_engine = Engine(bundle.database, use_columnar=False)
    col_engine = Engine(bundle.database, use_columnar=True)
    selects = _bundle_selects(bundle)
    assert selects, f"domain {domain} contributed no SELECTs"
    for sql in selects:
        assert_identical(row_engine, col_engine, sql)


def test_corpus_sweep_is_substantial():
    total = sum(len(_bundle_selects(load_bundle(d))) for d in ALL_DOMAINS)
    assert total >= 200, f"only {total} corpus SELECTs — corpora shrank?"


# ==========================================================================
# Hypothesis sweep: generated queries over a NULL-heavy schema
# ==========================================================================


@pytest.fixture(scope="module")
def engines():
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
    return Engine(db, use_columnar=False), Engine(db, use_columnar=True)


_NUM_COLS = ["t.id", "t.a", "t.b", "u.n"]
_TEXT_COLS = ["t.s", "u.v"]
_WORDS = ["alpha", "beta", "gamma", "delta", "zeta", "omega"]

_num_literal = st.one_of(
    st.integers(-6, 20),
    st.sampled_from([0.0, 1.5, -3.0, 7.5]),
)
_text_literal = st.sampled_from(
    [f"'{w}'" for w in _WORDS] + ["'alpha 3'", "'%'", "''"]
)


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
            items = [str(v) for v in draw(st.lists(_num_literal, min_size=1, max_size=4))]
            if draw(st.booleans()):
                items.append("NULL")  # three-valued IN semantics
        negated = draw(st.booleans())
        return f"{column} {'NOT ' if negated else ''}IN ({', '.join(items)})"
    if kind == "like":
        target = draw(st.sampled_from([c for c in cols if c in _TEXT_COLS] or cols))
        pattern = draw(st.sampled_from(["'al%'", "'%a'", "'%et%'", "'alpha _'", "'%'"]))
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
    order = data.draw(st.sampled_from(["", " ORDER BY t.id", " ORDER BY t.a DESC, t.id"]))
    limit = data.draw(st.sampled_from(["", " LIMIT 7"]))
    sql = f"SELECT {distinct}{items} FROM t WHERE {where}{order}{limit}"
    row_engine, col_engine = engines
    assert_identical(row_engine, col_engine, sql)


@_differential_settings
@given(data=st.data())
def test_hypothesis_joins(engines, data):
    cols = ["t.id", "t.a", "t.s", "u.v", "u.n"]
    kind = data.draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
    extra = data.draw(st.sampled_from(["", " AND u.n > 2", " AND t.a < u.n"]))
    where = data.draw(_predicate(cols, max_depth=1))
    items = data.draw(
        st.sampled_from(["t.id, u.id", "t.s, u.v", "t.id, u.n, t.a", "*"])
    )
    order = data.draw(st.sampled_from(["", " ORDER BY t.id, u.id"]))
    sql = (
        f"SELECT {items} FROM t {kind} u ON u.t_id = t.id{extra} "
        f"WHERE {where}{order}"
    )
    row_engine, col_engine = engines
    assert_identical(row_engine, col_engine, sql)


@_differential_settings
@given(data=st.data())
def test_hypothesis_aggregates_and_subqueries(engines, data):
    shape = data.draw(st.sampled_from(["agg", "group", "subquery", "scalar_sub"]))
    where = data.draw(_predicate(["t.id", "t.a", "t.b", "t.s"], max_depth=1))
    row_engine, col_engine = engines
    if shape == "agg":
        agg = data.draw(
            st.sampled_from(
                ["COUNT(*)", "COUNT(t.a)", "SUM(t.a)", "AVG(t.b)", "MIN(t.s)", "MAX(t.a)"]
            )
        )
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
    assert_identical(row_engine, col_engine, sql)


# ==========================================================================
# Targeted parity pins (shapes the sweeps could sample past)
# ==========================================================================


PINNED = [
    # Kleene short-circuit: the row evaluator skips the erroring right
    # operand when the left is False, and errors when it is not.
    "SELECT t.id FROM t WHERE t.a > 100 AND t.id / 0 > 1",
    "SELECT t.id FROM t WHERE t.id >= 0 OR t.id / 0 > 1",
    # Type mismatches surface as NULL comparisons, not errors.
    "SELECT t.id FROM t WHERE t.s > 5",
    "SELECT t.id FROM t WHERE t.flag = 'yes'",
    # LIKE on a non-text operand must raise in both modes.
    "SELECT t.id FROM t WHERE t.a LIKE 'a%'",
    # Numeric join keys: 1 = 1.0 bucketing parity.
    "SELECT t.id, u.id FROM t JOIN u ON u.n = t.b ORDER BY t.id, u.id",
    # DISTINCT + ORDER BY ordinal + LIMIT over the columnar projection.
    "SELECT DISTINCT t.a FROM t WHERE t.a IS NOT NULL ORDER BY 1 LIMIT 5",
    # Unqualified columns (single-table scope) compile; ambiguity falls back.
    "SELECT id, a FROM t WHERE a BETWEEN 0 AND 9 ORDER BY id",
    # Scalar functions in filters and projections.
    "SELECT t.id, length(t.s) FROM t WHERE lower(t.s) LIKE 'a%' ORDER BY t.id",
    # Empty results keep their column headers.
    "SELECT t.id, t.s FROM t WHERE t.a > 999",
]

#: Pins whose answer is written out, so the two engines cannot drift
#: together: the rows in order, or the error both must raise.
EXPECTED: dict[str, tuple] = {
    # Hash join without key normalisation: INT 1 meets FLOAT 1.0 because
    # equal numbers hash equal.  Built on p (probe order = q's rows) ...
    "SELECT p.id, q.id FROM p JOIN q ON p.k = q.k": (
        (1, 10), (5, 10), (4, 13), (1, 14), (5, 14),
    ),
    # ... and built on p from the right (probe order = q's rows again).
    "SELECT q.id, p.id FROM q JOIN p ON q.k = p.k": (
        (10, 1), (10, 5), (13, 4), (14, 1), (14, 5),
    ),
    # NULL keys never match, not even each other.
    "SELECT p.id FROM p JOIN q ON p.k = q.k WHERE q.k IS NULL": (),
    # LEFT JOIN pads unmatched and NULL-keyed rows, with and without a
    # residual.
    "SELECT p.id, q.id, q.note FROM p LEFT JOIN q ON p.k = q.k": (
        (1, 10, "a"), (1, 14, "e"), (2, None, None), (3, None, None),
        (4, 13, "d"), (5, 10, "a"), (5, 14, "e"),
    ),
    "SELECT p.id, q.id FROM p LEFT JOIN q ON p.k = q.k AND q.id > 10": (
        (1, 14), (2, None), (3, None), (4, 13), (5, 14),
    ),
    # An aggregate over an outer column inside a correlated subquery: the
    # argument does not compile, so grouping keeps one Env per row.
    "SELECT p.id, (SELECT SUM(p.k) FROM q WHERE q.k = p.k) AS s "
    "FROM p ORDER BY p.id": ((1, 2), (2, None), (3, None), (4, 3), (5, 2)),
    "SELECT SUM(p.tag) FROM p": (
        "error", "ExecutionError", "sum() requires numeric input, got 'one'",
    ),
    # NULL is a group key like any other; groups come in first-seen order.
    "SELECT p.k, COUNT(*) FROM p GROUP BY p.k": ((1, 2), (2, 1), (None, 1), (3, 1)),
    "SELECT q.k, COUNT(*), MIN(q.note) FROM q GROUP BY q.k ORDER BY 2 DESC, 1": (
        (None, 2, "c"), (1.0, 2, "a"), (2.5, 1, "b"), (3.0, 1, "d"),
    ),
    "SELECT COUNT(*), AVG(p.k) FROM p WHERE p.id > 99": ((0, None),),
    # HAVING on an aggregate the select list does not carry.
    "SELECT p.k FROM p GROUP BY p.k HAVING SUM(p.id) > 3": ((1,), (3,)),
}
PINNED += list(EXPECTED)


def _answer(engine: Engine, sql: str) -> tuple:
    outcome = _outcome(engine, sql)
    return outcome if outcome[0] == "error" else outcome[2]


@pytest.mark.parametrize("sql", PINNED)
def test_pinned_parity(engines, sql):
    row_engine, col_engine = engines
    assert_identical(row_engine, col_engine, sql)
    if sql in EXPECTED:
        assert _answer(col_engine, sql) == EXPECTED[sql]
        assert _answer(row_engine, sql) == EXPECTED[sql]


def test_pinned_joins_cover_both_build_sides(engines):
    _, col_engine = engines
    assert "build=left" in col_engine.explain(
        "SELECT p.id, q.id FROM p JOIN q ON p.k = q.k"
    )
    assert "build=right" in col_engine.explain(
        "SELECT q.id, p.id FROM q JOIN p ON q.k = p.k"
    )


def test_aggregates_group_env_free_unless_an_argument_cannot_compile(
    engines, monkeypatch
):
    """A columnar engine groups raw row tuples; only an aggregate whose
    argument is an outer reference falls back to one Env per row."""
    database = engines[1].database
    engine = Engine(database, use_columnar=True)
    env_path = []
    real = engine._project_groups
    monkeypatch.setattr(
        engine, "_project_groups", lambda *args: env_path.append(args) or real(*args)
    )
    engine.execute("SELECT p.k, COUNT(*), SUM(p.id) FROM p GROUP BY p.k")
    assert env_path == []
    engine.execute(
        "SELECT p.id, (SELECT SUM(p.k) FROM q WHERE q.k = p.k) FROM p ORDER BY p.id"
    )
    assert len(env_path) == 5  # the subquery, once per outer row
