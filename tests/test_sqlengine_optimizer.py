"""Optimizer tests: plan shape assertions + result equivalence vs naive plans."""

import pytest

from repro.datasets import fleet
from repro.sqlengine import Database, Engine
from repro.sqlengine.parser import parse_select
from repro.sqlengine.planner import (
    FilterNode,
    HashJoinNode,
    ReorderNode,
    ScanNode,
    build_plan,
)
from repro.sqlengine.optimizer import estimate_rows, optimize

from tests.conftest import make_library_db


QUERIES = [
    "SELECT * FROM author WHERE id = 2",
    "SELECT * FROM book WHERE year > 1965 AND pages < 300",
    "SELECT a.name, b.title FROM author a JOIN book b ON a.id = b.author_id",
    "SELECT a.name FROM author a, book b WHERE a.id = b.author_id AND b.year < 1970",
    "SELECT b.title, l.member FROM book b LEFT JOIN loan l ON l.book_id = b.id",
    "SELECT * FROM author a JOIN book b ON a.id = b.author_id AND b.pages > 200",
    "SELECT title FROM book WHERE author_id IN (SELECT id FROM author WHERE country = 'usa')",
    "SELECT a.country, COUNT(*) FROM author a GROUP BY a.country",
    "SELECT * FROM book WHERE price IS NULL",
    "SELECT * FROM book WHERE id IN (1, 3, 5)",
    "SELECT * FROM book WHERE pages BETWEEN 200 AND 300",
    "SELECT a.name, b.title, l.member FROM author a "
    "JOIN book b ON a.id = b.author_id JOIN loan l ON l.book_id = b.id",
    "SELECT * FROM loan l JOIN book b ON l.book_id = b.id "
    "JOIN author a ON b.author_id = a.id WHERE a.country = 'poland'",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_optimized_equals_naive(sql):
    """The optimizer must never change query results."""
    db = make_library_db()
    fast = Engine(db, use_optimizer=True)
    slow = Engine(db, use_optimizer=False)
    left = fast.execute(sql)
    right = slow.execute(sql)
    assert left.columns == right.columns
    assert sorted(map(repr, left.rows)) == sorted(map(repr, right.rows))


class TestPlanShapes:
    def setup_method(self):
        self.db = make_library_db()

    def plan(self, sql, use_indexes=True):
        return optimize(build_plan(parse_select(sql), self.db), self.db, use_indexes)

    def test_pk_equality_becomes_index_hint(self):
        plan = self.plan("SELECT * FROM author WHERE id = 2")
        assert isinstance(plan, ScanNode)
        assert plan.eq_filters == [("id", 2)]
        assert plan.residual_filters == []

    def test_range_hint_requires_sorted_index(self):
        plan = self.plan("SELECT * FROM book WHERE year > 1965")
        assert isinstance(plan, ScanNode)
        assert plan.range_filters == []  # no index yet -> stays residual
        self.db.table("book").create_sorted_index("year")
        plan = self.plan("SELECT * FROM book WHERE year > 1965")
        assert plan.range_filters == [("year", ">", 1965)]

    def test_flipped_literal_range(self):
        self.db.table("book").create_sorted_index("year")
        plan = self.plan("SELECT * FROM book WHERE 1970 >= year")
        assert plan.range_filters == [("year", "<=", 1970)]

    def test_indexes_disabled(self):
        plan = self.plan("SELECT * FROM author WHERE id = 2", use_indexes=False)
        assert isinstance(plan, ScanNode)
        assert plan.eq_filters == []
        assert len(plan.residual_filters) == 1

    def test_equi_join_becomes_hash_join(self):
        plan = self.plan("SELECT * FROM author a JOIN book b ON a.id = b.author_id")
        assert isinstance(plan, HashJoinNode)

    def test_where_join_predicate_folded(self):
        plan = self.plan("SELECT * FROM author a, book b WHERE a.id = b.author_id")
        assert isinstance(plan, HashJoinNode)

    def test_single_table_conjunct_pushed_through_join(self):
        plan = self.plan(
            "SELECT * FROM author a JOIN book b ON a.id = b.author_id "
            "WHERE a.country = 'usa'"
        )
        assert isinstance(plan, HashJoinNode)
        left = plan.left
        assert isinstance(left, ScanNode)
        assert left.residual_filters  # pushed into author scan

    def test_left_join_right_predicate_not_pushed(self):
        plan = self.plan(
            "SELECT * FROM book b LEFT JOIN loan l ON l.book_id = b.id "
            "WHERE l.returned = TRUE"
        )
        # The l-side predicate must remain above the join.
        assert isinstance(plan, FilterNode)

    def test_subquery_predicate_not_pushed_into_scan_hints(self):
        plan = self.plan(
            "SELECT * FROM book WHERE author_id IN (SELECT id FROM author)"
        )
        # Subquery conjuncts stay as residual filters above/at the scan.
        assert isinstance(plan, (FilterNode, ScanNode))

    def test_describe_mentions_nodes(self):
        text = self.plan(
            "SELECT * FROM author a JOIN book b ON a.id = b.author_id"
        ).describe()
        assert "HashJoin" in text and "Scan(author" in text

    def test_in_list_becomes_multi_eq_hint(self):
        plan = self.plan("SELECT * FROM author WHERE id IN (1, 3)")
        assert isinstance(plan, ScanNode)
        assert plan.in_filters == [("id", (1, 3))]
        assert plan.residual_filters == []
        assert "in=id" in plan.describe()

    def test_in_list_requires_index(self):
        plan = self.plan("SELECT * FROM book WHERE year IN (1969, 1974)")
        assert plan.in_filters == []  # year is unindexed -> stays residual
        assert len(plan.residual_filters) == 1

    def test_in_list_with_null_stays_residual(self):
        plan = self.plan("SELECT * FROM author WHERE id IN (1, NULL)")
        assert plan.in_filters == []

    def test_between_becomes_range_pair(self):
        self.db.table("book").create_sorted_index("pages")
        plan = self.plan("SELECT * FROM book WHERE pages BETWEEN 200 AND 300")
        assert plan.range_filters == [("pages", ">=", 200), ("pages", "<=", 300)]
        assert plan.residual_filters == []

    def test_between_requires_sorted_index(self):
        plan = self.plan("SELECT * FROM book WHERE pages BETWEEN 200 AND 300")
        assert plan.range_filters == []
        assert len(plan.residual_filters) == 1

    def test_not_between_stays_residual(self):
        self.db.table("book").create_sorted_index("pages")
        plan = self.plan("SELECT * FROM book WHERE pages NOT BETWEEN 200 AND 300")
        assert plan.range_filters == []

    def test_type_mismatched_literal_stays_residual(self):
        # An index lookup of '2' on an INT column silently misses, but the
        # residual evaluator raises TypeMismatchError — the hint must not
        # change semantics, so mismatched literals stay residual.
        for sql in (
            "SELECT * FROM author WHERE id = '2'",
            "SELECT * FROM author WHERE id IN ('1', 2)",
        ):
            plan = self.plan(sql)
            assert plan.eq_filters == [] and plan.in_filters == []
            assert len(plan.residual_filters) == 1

    def test_type_mismatch_raises_same_as_naive(self):
        from repro.errors import TypeMismatchError

        engine = Engine(self.db)
        naive = Engine(self.db, use_optimizer=False)
        for sql in (
            "SELECT * FROM author WHERE id = '2'",
            "SELECT * FROM author WHERE id IN ('1', 2)",
        ):
            with pytest.raises(TypeMismatchError):
                engine.execute(sql)
            with pytest.raises(TypeMismatchError):
                naive.execute(sql)

    def test_float_literal_on_int_column_still_hinted(self):
        plan = self.plan("SELECT * FROM author WHERE id = 2.0")
        assert plan.eq_filters == [("id", 2.0)]
        assert Engine(self.db).execute(
            "SELECT name FROM author WHERE id = 2.0"
        ).rows == [("Stanislaw Lem",)]


class TestCostModel:
    def setup_method(self):
        self.db = make_library_db()

    def plan(self, sql):
        return optimize(build_plan(parse_select(sql), self.db), self.db, True)

    def test_estimates_reflect_table_sizes(self):
        plan = self.plan("SELECT * FROM author a JOIN book b ON a.id = b.author_id")
        assert isinstance(plan, HashJoinNode)
        assert plan.est_left == pytest.approx(4.0)  # 4 authors
        assert plan.est_right == pytest.approx(6.0)  # 6 books

    def test_build_side_is_smaller_input(self):
        plan = self.plan("SELECT * FROM author a JOIN book b ON a.id = b.author_id")
        assert plan.build == "left"  # authors (4) < books (6)
        flipped = self.plan("SELECT * FROM book b JOIN author a ON a.id = b.author_id")
        assert flipped.build == "right"

    def test_build_side_shown_in_explain(self):
        text = self.plan(
            "SELECT * FROM author a JOIN book b ON a.id = b.author_id"
        ).describe()
        assert "build=left" in text and "est=4x6" in text

    def test_left_join_always_builds_right(self):
        plan = self.plan("SELECT * FROM book b LEFT JOIN loan l ON l.book_id = b.id")
        assert isinstance(plan, HashJoinNode)
        assert plan.build == "right"

    def test_filter_tightens_estimate(self):
        small = self.plan("SELECT * FROM book b WHERE b.id = 1")
        assert estimate_rows(small, self.db) == pytest.approx(1.0)

    def test_estimates_follow_dml(self):
        engine = Engine(self.db)
        for i in range(100, 130):
            engine.execute(f"INSERT INTO author VALUES ({i}, 'A{i}', 'usa', 1950)")
        plan = self.plan("SELECT * FROM author a JOIN book b ON a.id = b.author_id")
        assert plan.build == "right"  # authors (34) now outnumber books (6)


class TestJoinReordering:
    def setup_method(self):
        self.db = make_library_db()

    def plan(self, sql):
        return optimize(build_plan(parse_select(sql), self.db), self.db, True)

    def test_three_way_join_reordered_smallest_first(self):
        # loan has 4 rows, book 6, author 4 with a filter -> author first.
        plan = self.plan(
            "SELECT * FROM loan l JOIN book b ON l.book_id = b.id "
            "JOIN author a ON b.author_id = a.id WHERE a.country = 'poland'"
        )
        assert isinstance(plan, ReorderNode)
        assert plan.order == ("l", "b", "a")
        assert "Reorder(l, b, a)" in plan.describe()

    def test_reorder_preserves_star_column_order(self):
        sql = (
            "SELECT * FROM loan l JOIN book b ON l.book_id = b.id "
            "JOIN author a ON b.author_id = a.id WHERE a.country = 'poland'"
        )
        fast = Engine(self.db).execute(sql)
        slow = Engine(self.db, use_optimizer=False).execute(sql)
        assert fast.columns == slow.columns
        assert sorted(map(repr, fast.rows)) == sorted(map(repr, slow.rows))

    def test_two_table_join_not_wrapped(self):
        plan = self.plan("SELECT * FROM author a JOIN book b ON a.id = b.author_id")
        assert not isinstance(plan, ReorderNode)

    def test_left_join_chain_not_reordered(self):
        plan = self.plan(
            "SELECT * FROM book b LEFT JOIN loan l ON l.book_id = b.id "
            "LEFT JOIN author a ON b.author_id = a.id"
        )
        assert not isinstance(plan, ReorderNode)

    def test_subquery_condition_disables_reorder(self):
        self.plan(
            "SELECT * FROM loan l JOIN book b ON l.book_id = b.id "
            "JOIN author a ON b.author_id = a.id "
            "WHERE a.id IN (SELECT id FROM author)"
        )
        # The subquery conjunct stays above; the join chain below may or
        # may not reorder, but execution must stay correct either way.
        engine = Engine(self.db)
        naive = Engine(self.db, use_optimizer=False)
        sql = (
            "SELECT l.member FROM loan l JOIN book b ON l.book_id = b.id "
            "JOIN author a ON b.author_id = a.id "
            "WHERE a.id IN (SELECT id FROM author)"
        )
        assert sorted(engine.execute(sql).rows) == sorted(naive.execute(sql).rows)


class TestIndexCorrectness:
    def test_index_scan_matches_full_scan(self):
        db = make_library_db()
        db.table("book").create_sorted_index("pages")
        with_idx = Engine(db, use_indexes=True)
        without = Engine(db, use_indexes=False)
        sql = "SELECT title FROM book WHERE pages >= 204 AND pages <= 304"
        assert sorted(with_idx.execute(sql).rows) == sorted(without.execute(sql).rows)

    def test_multiple_eq_hints_intersect(self):
        db = Database()
        engine = Engine(db)
        engine.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
        for i in range(50):
            engine.execute(f"INSERT INTO t VALUES ({i}, {i % 5}, {i % 3})")
        db.table("t").create_hash_index("a")
        db.table("t").create_hash_index("b")
        rs = engine.execute("SELECT COUNT(*) FROM t WHERE a = 2 AND b = 1")
        naive = Engine(db, use_optimizer=False).execute(
            "SELECT COUNT(*) FROM t WHERE a = 2 AND b = 1"
        )
        assert rs.scalar() == naive.scalar()


_SHIP_FLEET = "FROM ship JOIN fleet ON ship.fleet_id = fleet.id"
_PACIFIC = "WHERE fleet.name = 'Pacific'"


class TestSemiJoins:
    """An INNER join to a primary key that nothing reads only filters."""

    def setup_method(self):
        self.engine = Engine(fleet.build_database(seed=7, ships=200))

    def explain(self, sql):
        return self.engine.explain(sql)

    def test_filtered_dimension_read_nowhere(self):
        sql = f"SELECT ship.name {_SHIP_FLEET} {_PACIFIC}"
        assert self.explain(sql) == (
            "SemiJoin[keep=left est=200x1] ship.fleet_id = fleet.id\n"
            "  Scan(ship AS ship)\n"
            "  Scan(fleet AS fleet) [residual=1]"
        )
        naive = Engine(self.engine.database, use_optimizer=False)
        assert self.engine.execute(sql).rows == naive.execute(sql).rows

    def test_both_dimensions_of_a_chain(self):
        sql = (
            f"SELECT COUNT(*) {_SHIP_FLEET} "
            f"JOIN port ON ship.home_port_id = port.id {_PACIFIC}"
        )
        assert self.explain(sql) == (
            "SemiJoin[keep=left est=50x12] ship.home_port_id = port.id\n"
            "  SemiJoin[keep=right est=1x200] fleet.id = ship.fleet_id\n"
            "    Scan(fleet AS fleet) [residual=1]\n"
            "    Scan(ship AS ship)\n"
            "  Scan(port AS port)"
        )
        assert "Reorder" not in self.explain(sql)

    def test_a_write_to_the_dimension_still_invalidates(self):
        # The plan reads fleet only through the semi-join, but its cache
        # entries are stamped with every table the statement names.
        sql = f"SELECT COUNT(*) {_SHIP_FLEET} WHERE fleet.name = 'Arctic'"
        assert "SemiJoin" in self.explain(sql)
        assert self.engine.execute(sql).scalar() == 0
        self.engine.execute("UPDATE fleet SET name = 'Arctic' WHERE id = 1")
        naive = Engine(self.engine.database, use_optimizer=False)
        count = naive.execute(sql).scalar()
        assert count > 0
        assert self.engine.execute(sql).scalar() == count

    @pytest.mark.parametrize(
        "sql",
        [
            # the dimension's column is projected
            f"SELECT ship.name, fleet.name {_SHIP_FLEET} {_PACIFIC}",
            # ... grouped on
            f"SELECT COUNT(*) {_SHIP_FLEET} GROUP BY fleet.name",
            # ... ordered on
            f"SELECT ship.name {_SHIP_FLEET} ORDER BY fleet.name",
            # every column of both tables
            f"SELECT * {_SHIP_FLEET} {_PACIFIC}",
            # the key is not the dimension's primary key
            "SELECT ship.name FROM ship JOIN fleet ON ship.name = fleet.name",
            "SELECT fleet.ocean FROM fleet JOIN ship ON ship.fleet_id = fleet.id",
            # a LEFT join keeps its unmatched rows
            "SELECT ship.name FROM ship LEFT JOIN fleet ON ship.fleet_id = fleet.id",
            # a residual reads the dimension
            f"SELECT ship.name {_SHIP_FLEET} AND fleet.id < ship.speed",
            # an unqualified column could name any binding
            f"SELECT speed {_SHIP_FLEET} {_PACIFIC}",
            # a subquery filter stays above the join
            f"SELECT ship.name {_SHIP_FLEET} {_PACIFIC} "
            "AND ship.id IN (SELECT deployment.ship_id FROM deployment)",
        ],
    )
    def test_does_not_fire(self, sql):
        text = self.explain(sql)
        assert "SemiJoin" not in text and "HashJoin" in text, text
