"""Integration tests: SELECT execution over the library fixture database."""

import pytest

from repro.errors import (
    ExecutionError,
    PlanError,
    UnknownColumnError,
    UnknownTableError,
)


class TestProjection:
    def test_select_constant(self, engine):
        assert engine.execute("SELECT 1 + 1").scalar() == 2

    def test_select_star(self, engine):
        rs = engine.execute("SELECT * FROM author")
        assert rs.columns == ["id", "name", "country", "born"]
        assert len(rs) == 4

    def test_select_table_star_in_join(self, engine):
        rs = engine.execute(
            "SELECT b.* FROM book b JOIN author a ON b.author_id = a.id"
        )
        assert rs.columns == ["id", "title", "author_id", "year", "pages", "price"]

    def test_duplicate_column_names_qualified(self, engine):
        rs = engine.execute("SELECT * FROM book b JOIN author a ON b.author_id = a.id")
        assert "b.id" in rs.columns and "a.id" in rs.columns

    def test_alias(self, engine):
        rs = engine.execute("SELECT name AS who FROM author")
        assert rs.columns == ["who"]

    def test_expression_column_name(self, engine):
        rs = engine.execute("SELECT pages + 1 FROM book LIMIT 1")
        assert rs.columns == ["(pages + 1)"]

    def test_scalar_functions(self, engine):
        assert engine.execute(
            "SELECT UPPER(name) FROM author WHERE id = 2"
        ).scalar() == "STANISLAW LEM"
        assert engine.execute(
            "SELECT LENGTH(title) FROM book WHERE id = 3"
        ).scalar() == len("Solaris")


class TestWhere:
    def test_equality(self, engine):
        rs = engine.execute("SELECT title FROM book WHERE year = 1974")
        assert rs.rows == [("The Dispossessed",)]

    def test_comparison(self, engine):
        rs = engine.execute("SELECT COUNT(*) FROM book WHERE pages > 300")
        assert rs.scalar() == 2

    def test_and_or(self, engine):
        rs = engine.execute(
            "SELECT title FROM book WHERE year > 1970 AND pages < 300 OR id = 3"
        )
        titles = set(rs.column("title"))
        assert titles == {"Kindred", "Invisible Cities", "Solaris"}

    def test_not(self, engine):
        rs = engine.execute("SELECT COUNT(*) FROM author WHERE NOT country = 'usa'")
        assert rs.scalar() == 2

    def test_null_never_equal(self, engine):
        rs = engine.execute("SELECT title FROM book WHERE price = NULL")
        assert rs.rows == []

    def test_is_null(self, engine):
        rs = engine.execute("SELECT title FROM book WHERE price IS NULL")
        assert rs.rows == [("The Cyberiad",)]

    def test_is_not_null(self, engine):
        assert len(engine.execute("SELECT * FROM book WHERE price IS NOT NULL")) == 5

    def test_between(self, engine):
        rs = engine.execute("SELECT title FROM book WHERE year BETWEEN 1965 AND 1972")
        assert set(rs.column("title")) == {
            "The Left Hand of Darkness",
            "Invisible Cities",
            "The Cyberiad",
        }

    def test_in_list(self, engine):
        rs = engine.execute("SELECT name FROM author WHERE country IN ('poland', 'italy')")
        assert set(rs.column("name")) == {"Stanislaw Lem", "Italo Calvino"}

    def test_not_in_list(self, engine):
        rs = engine.execute("SELECT name FROM author WHERE id NOT IN (1, 2, 3)")
        assert rs.rows == [("Italo Calvino",)]

    def test_like(self, engine):
        rs = engine.execute("SELECT title FROM book WHERE title LIKE 'The %'")
        assert len(rs) == 3

    def test_like_underscore(self, engine):
        rs = engine.execute("SELECT name FROM author WHERE name LIKE '_talo%'")
        assert rs.rows == [("Italo Calvino",)]

    def test_unknown_column(self, engine):
        with pytest.raises(UnknownColumnError):
            engine.execute("SELECT nonexistent FROM author")

    def test_unknown_table(self, engine):
        with pytest.raises(UnknownTableError):
            engine.execute("SELECT * FROM missing")

    def test_division_by_zero(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT 1 / 0")

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("-7 % 3", -1),
            ("7 % -3", 1),
            ("-7 % -3", -1),
            ("7 % 3", 1),
            ("-6 % 3", 0),
            ("-7.5 % 2", -1.5),
            ("7.5 % -2", 1.5),
            ("-6.0 % 3", 0.0),
        ],
    )
    def test_modulo_takes_the_dividend_sign(self, engine, expr, value):
        # As SQL's MOD, sqlite and PostgreSQL: the remainder of division
        # truncated toward zero, not Python's floored one.
        result = engine.execute(f"SELECT {expr}").scalar()
        assert result == value and type(result) is type(value)
        assert str(result) == str(value)  # no -0.0

    @pytest.mark.parametrize("expr", ["7 % 0", "-7.5 % 0", "7 % 0.0"])
    def test_modulo_by_zero(self, engine, expr):
        with pytest.raises(ExecutionError, match="modulo by zero"):
            engine.execute(f"SELECT {expr}")


class TestJoins:
    def test_inner_join(self, engine):
        rs = engine.execute(
            "SELECT a.name, b.title FROM author a JOIN book b ON a.id = b.author_id "
            "WHERE a.country = 'poland' ORDER BY b.title"
        )
        assert rs.rows == [
            ("Stanislaw Lem", "Solaris"),
            ("Stanislaw Lem", "The Cyberiad"),
        ]

    def test_comma_join_with_where(self, engine):
        rs = engine.execute(
            "SELECT a.name FROM author a, book b "
            "WHERE a.id = b.author_id AND b.year = 1979"
        )
        assert rs.rows == [("Octavia Butler",)]

    def test_three_way_join(self, engine):
        rs = engine.execute(
            "SELECT DISTINCT a.name FROM author a "
            "JOIN book b ON a.id = b.author_id "
            "JOIN loan l ON l.book_id = b.id "
            "WHERE l.member = 'ada' ORDER BY a.name"
        )
        assert rs.rows == [("Stanislaw Lem",), ("Ursula Le Guin",)]

    def test_left_join_preserves_unmatched(self, engine):
        rs = engine.execute(
            "SELECT b.title, l.member FROM book b LEFT JOIN loan l ON l.book_id = b.id "
            "WHERE b.id = 2"
        )
        assert rs.rows == [("The Left Hand of Darkness", None)]

    def test_left_join_counts(self, engine):
        rs = engine.execute(
            "SELECT COUNT(*) FROM book b LEFT JOIN loan l ON l.book_id = b.id"
        )
        # 6 books; book 3 has two loans -> 7 rows
        assert rs.scalar() == 7

    def test_self_join(self, engine):
        rs = engine.execute(
            "SELECT x.name FROM author x, author y "
            "WHERE x.country = y.country AND x.id != y.id"
        )
        assert set(rs.column("name")) == {"Ursula Le Guin", "Octavia Butler"}

    def test_duplicate_binding_rejected(self, engine):
        with pytest.raises(PlanError):
            engine.execute("SELECT * FROM author, author")


class TestAggregates:
    def test_count_star(self, engine):
        assert engine.execute("SELECT COUNT(*) FROM book").scalar() == 6

    def test_count_column_skips_null(self, engine):
        assert engine.execute("SELECT COUNT(price) FROM book").scalar() == 5

    def test_count_distinct(self, engine):
        assert engine.execute("SELECT COUNT(DISTINCT country) FROM author").scalar() == 3

    def test_sum_avg(self, engine):
        assert engine.execute("SELECT SUM(pages) FROM book").scalar() == 1619
        avg = engine.execute("SELECT AVG(price) FROM book").scalar()
        assert avg == pytest.approx((9.99 + 8.50 + 7.25 + 10.00 + 6.75) / 5)

    def test_min_max(self, engine):
        rs = engine.execute("SELECT MIN(year), MAX(year) FROM book")
        assert rs.rows == [(1961, 1979)]

    def test_empty_group_returns_nulls(self, engine):
        rs = engine.execute("SELECT COUNT(*), SUM(pages) FROM book WHERE year > 2000")
        assert rs.rows == [(0, None)]

    def test_group_by(self, engine):
        rs = engine.execute(
            "SELECT a.country, COUNT(*) AS n FROM author a GROUP BY a.country "
            "ORDER BY n DESC, a.country"
        )
        assert rs.rows == [("usa", 2), ("italy", 1), ("poland", 1)]

    def test_group_by_with_join(self, engine):
        rs = engine.execute(
            "SELECT a.name, COUNT(*) AS books FROM author a "
            "JOIN book b ON b.author_id = a.id GROUP BY a.name ORDER BY a.name"
        )
        assert dict(rs.rows) == {
            "Italo Calvino": 1,
            "Octavia Butler": 1,
            "Stanislaw Lem": 2,
            "Ursula Le Guin": 2,
        }

    def test_having(self, engine):
        rs = engine.execute(
            "SELECT author_id FROM book GROUP BY author_id HAVING COUNT(*) > 1 "
            "ORDER BY author_id"
        )
        assert rs.rows == [(1,), (2,)]

    def test_having_without_group_rejected(self, engine):
        # HAVING over an implicit single group is accepted by the engine.
        rs = engine.execute("SELECT COUNT(*) FROM book HAVING COUNT(*) > 100")
        assert rs.rows == []

    def test_star_in_aggregate_query_rejected(self, engine):
        with pytest.raises(PlanError):
            engine.execute("SELECT *, COUNT(*) FROM book GROUP BY id")

    def test_aggregate_of_expression(self, engine):
        assert engine.execute("SELECT MAX(pages - 100) FROM book").scalar() == 287


class TestOrderLimitDistinct:
    def test_order_by_column(self, engine):
        rs = engine.execute("SELECT title FROM book ORDER BY year")
        assert rs.rows[0] == ("Solaris",)
        assert rs.rows[-1] == ("Kindred",)

    def test_order_by_desc(self, engine):
        rs = engine.execute("SELECT year FROM book ORDER BY year DESC LIMIT 2")
        assert rs.rows == [(1979,), (1974,)]

    def test_order_by_alias(self, engine):
        rs = engine.execute(
            "SELECT pages * 2 AS doubled FROM book ORDER BY doubled LIMIT 1"
        )
        assert rs.scalar() == 330

    def test_order_by_ordinal(self, engine):
        rs = engine.execute("SELECT title, year FROM book ORDER BY 2 LIMIT 1")
        assert rs.rows == [("Solaris", 1961)]

    def test_order_by_non_projected(self, engine):
        rs = engine.execute("SELECT title FROM book ORDER BY price DESC LIMIT 1")
        assert rs.rows == [("Kindred",)]

    def test_order_nulls_first_ascending(self, engine):
        rs = engine.execute("SELECT price FROM book ORDER BY price")
        assert rs.rows[0] == (None,)

    def test_multi_key_order(self, engine):
        rs = engine.execute(
            "SELECT country, name FROM author ORDER BY country DESC, name ASC"
        )
        assert rs.rows[0] == ("usa", "Octavia Butler")
        assert rs.rows[1] == ("usa", "Ursula Le Guin")

    def test_distinct(self, engine):
        rs = engine.execute("SELECT DISTINCT country FROM author ORDER BY country")
        assert rs.rows == [("italy",), ("poland",), ("usa",)]

    def test_limit_zero(self, engine):
        assert len(engine.execute("SELECT * FROM book LIMIT 0")) == 0

    def test_order_by_aggregate_in_group_query(self, engine):
        rs = engine.execute(
            "SELECT author_id FROM book GROUP BY author_id ORDER BY COUNT(*) DESC, author_id"
        )
        assert rs.rows[0] in ([(1,)], (1,)) or rs.rows[0] == (1,)


class TestSubqueries:
    def test_scalar_subquery(self, engine):
        rs = engine.execute(
            "SELECT title FROM book WHERE pages = (SELECT MAX(pages) FROM book)"
        )
        assert rs.rows == [("The Dispossessed",)]

    def test_in_subquery(self, engine):
        rs = engine.execute(
            "SELECT name FROM author WHERE id IN "
            "(SELECT author_id FROM book WHERE year < 1965)"
        )
        assert rs.rows == [("Stanislaw Lem",)]

    def test_not_in_subquery(self, engine):
        rs = engine.execute(
            "SELECT title FROM book WHERE id NOT IN (SELECT book_id FROM loan)"
        )
        assert set(rs.column("title")) == {
            "The Left Hand of Darkness",
            "Kindred",
            "The Cyberiad",
        }

    def test_exists_correlated(self, engine):
        rs = engine.execute(
            "SELECT a.name FROM author a WHERE EXISTS "
            "(SELECT 1 FROM book b WHERE b.author_id = a.id AND b.pages > 300) "
            "ORDER BY a.name"
        )
        assert rs.rows == [("Ursula Le Guin",)]

    def test_not_exists(self, engine):
        rs = engine.execute(
            "SELECT a.name FROM author a WHERE NOT EXISTS "
            "(SELECT 1 FROM book b WHERE b.author_id = a.id AND b.year > 1970)"
        )
        assert rs.rows == [("Stanislaw Lem",)]

    def test_correlated_scalar_subquery(self, engine):
        rs = engine.execute(
            "SELECT a.name, (SELECT COUNT(*) FROM book b WHERE b.author_id = a.id) "
            "AS n FROM author a ORDER BY a.name"
        )
        assert dict(rs.rows)["Stanislaw Lem"] == 2

    def test_scalar_subquery_multiple_rows_rejected(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT (SELECT year FROM book)")

    def test_nested_two_levels(self, engine):
        rs = engine.execute(
            "SELECT name FROM author WHERE id IN (SELECT author_id FROM book "
            "WHERE pages > (SELECT AVG(pages) FROM book))"
        )
        assert set(rs.column("name")) == {"Ursula Le Guin", "Stanislaw Lem"}


class TestResultSet:
    def test_pretty_contains_header(self, engine):
        text = engine.execute("SELECT name FROM author").pretty()
        assert "name" in text and "Ursula Le Guin" in text

    def test_pretty_truncates(self, engine):
        text = engine.execute("SELECT id FROM book").pretty(max_rows=2)
        assert "more rows" in text

    def test_to_dicts(self, engine):
        dicts = engine.execute("SELECT id, name FROM author WHERE id = 1").to_dicts()
        assert dicts == [{"id": 1, "name": "Ursula Le Guin"}]

    def test_answer_set_rounds_floats(self, engine):
        a = engine.execute("SELECT 0.1 + 0.2").answer_set()
        b = engine.execute("SELECT 0.3").answer_set()
        assert a == b
