"""Tests for the statement-plan cache: hits, invalidation, correctness."""

import pytest

from repro.sqlengine import Engine
from repro.sqlengine.plancache import LruCache, PlanCache

from tests.conftest import make_library_db


@pytest.fixture()
def engine():
    return Engine(make_library_db())


SQL = "SELECT name FROM author WHERE id = 2"


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None

    def test_evicts_least_recently_used(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)

    def test_tags_follow_their_entry(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1, frozenset({"x"}))
        cache.put("a", 2)  # overwritten without tags
        cache.put("b", 3, frozenset({"x", "y"}))
        cache.put("c", 4, frozenset({"y"}))  # LRU-evicts a
        cache.put("a", 5, frozenset({"z"}))  # LRU-evicts b
        assert cache.evict_tagged(frozenset({"x"})) == 0
        assert cache.evict_tagged(frozenset({"y", "z"})) == 2
        assert len(cache) == 0

    def test_refused_gets_are_misses_and_put_if_checks_first(self):
        cache = LruCache(capacity=2)
        assert not cache.put_if("a", 1, lambda: False)
        assert cache.put_if("a", 1, lambda: True)
        assert cache.get("a", accept=lambda value: value > 1) is None
        assert cache.get("a") == 1
        assert (cache.stats["hits"], cache.stats["misses"]) == (1, 1)
        assert cache.clear() == 1


class TestCacheHits:
    def test_repeat_select_hits_result_cache(self, engine):
        first = engine.execute(SQL)
        second = engine.execute(SQL)
        assert first.rows == second.rows
        assert engine.plan_cache.stats["result_hits"] == 1
        assert engine.plan_cache.stats["statement_hits"] == 1

    def test_repeat_skips_parse_and_plan(self, engine):
        engine.execute(SQL)
        parse_misses = engine.plan_cache.stats["statement_misses"]
        plan_misses = engine.plan_cache.stats["plan_misses"]
        engine.execute(SQL)
        assert engine.plan_cache.stats["statement_misses"] == parse_misses
        assert engine.plan_cache.stats["plan_misses"] == plan_misses

    def test_cached_result_is_isolated_copy(self, engine):
        first = engine.execute(SQL)
        first.rows.append(("tampered",))
        second = engine.execute(SQL)
        assert ("tampered",) not in second.rows

    def test_explain_shares_the_cache(self, engine):
        engine.execute(SQL)
        text = engine.explain(SQL)
        assert "Scan(author" in text

    def test_cache_disabled(self):
        engine = Engine(make_library_db(), use_plan_cache=False)
        assert engine.plan_cache is None
        assert engine.execute(SQL).rows == [("Stanislaw Lem",)]


class TestInvalidation:
    def test_insert_invalidates_results(self, engine):
        count = "SELECT COUNT(*) FROM author"
        assert engine.execute(count).scalar() == 4
        engine.execute("INSERT INTO author VALUES (9, 'New Author', 'usa', 1980)")
        assert engine.execute(count).scalar() == 5

    def test_update_invalidates_results(self, engine):
        assert engine.execute(SQL).scalar() == "Stanislaw Lem"
        engine.execute("UPDATE author SET name = 'S. Lem' WHERE id = 2")
        assert engine.execute(SQL).scalar() == "S. Lem"

    def test_delete_invalidates_results(self, engine):
        count = "SELECT COUNT(*) FROM loan"
        assert engine.execute(count).scalar() == 4
        engine.execute("DELETE FROM loan WHERE id = 1")
        assert engine.execute(count).scalar() == 3

    def test_create_table_leaves_unrelated_plans_valid(self, engine):
        # Fine-grained invalidation: adding a brand-new table cannot change
        # the plan of a statement that never touches it.
        engine.execute(SQL)
        version = engine.database.version
        engine.execute("CREATE TABLE extra (id INT PRIMARY KEY)")
        assert engine.database.version > version
        hit, _ = engine.plan_cache.plan(SQL, engine.database.table_version)
        assert hit

    def test_drop_table_invalidates_its_plans(self, engine):
        engine.execute("SELECT COUNT(*) FROM loan")
        engine.database.drop_table("loan")
        hit, _ = engine.plan_cache.plan(
            "SELECT COUNT(*) FROM loan", engine.database.table_version
        )
        assert not hit

    def test_index_creation_invalidates_plans(self, engine):
        sql = "SELECT * FROM book WHERE year > 1970"
        plan_text = engine.explain(sql)
        assert "range=" not in plan_text
        engine.database.table("book").create_sorted_index("year")
        assert "range=year" in engine.explain(sql)

    def test_stale_entry_is_refreshed_not_reused(self, engine):
        engine.execute(SQL)
        engine.execute("INSERT INTO author VALUES (8, 'Another', 'uk', 1950)")
        # Re-executing after DML must re-plan (miss), then hit again.
        engine.execute(SQL)
        hits_before = engine.plan_cache.stats["result_hits"]
        engine.execute(SQL)
        assert engine.plan_cache.stats["result_hits"] == hits_before + 1


class TestCorrelatedSubqueries:
    def test_correlated_subquery_not_result_cached(self, engine):
        # The inner select depends on the outer row; it must be evaluated
        # per row, not served from the materialized-result cache.
        sql = (
            "SELECT a.name FROM author a WHERE EXISTS "
            "(SELECT 1 FROM book b WHERE b.author_id = a.id AND b.year > 1970)"
        )
        rows = engine.execute(sql).rows
        naive = Engine(engine.database, use_plan_cache=False).execute(sql).rows
        assert sorted(rows) == sorted(naive)
        # and repeating it stays correct
        assert sorted(engine.execute(sql).rows) == sorted(naive)


class TestPlanCacheUnit:
    def test_plan_none_is_a_valid_cached_value(self):
        cache = PlanCache()
        cache.store_plan("SELECT 1", {}, None)
        # An empty dependency set (table-less select) is valid forever.
        hit, plan = cache.plan("SELECT 1", lambda name: None)
        assert hit and plan is None

    def test_stamp_mismatch_misses(self):
        cache = PlanCache()
        cache.store_plan("q", {"t": 1}, None)
        hit, _ = cache.plan("q", {"t": 2}.get)
        assert not hit

    def test_only_dependent_tables_matter(self):
        cache = PlanCache()
        cache.store_plan("q", {"a": 3}, None)
        # b moved, a did not: still a hit.
        hit, _ = cache.plan("q", {"a": 3, "b": 99}.get)
        assert hit

    def test_dropped_table_never_hits(self):
        cache = PlanCache()
        cache.store_plan("q", {"a": 3}, None)
        hit, _ = cache.plan("q", lambda name: None)
        assert not hit

    def test_clear_resets(self):
        cache = PlanCache()
        cache.store_statement("q", object())
        cache.clear()
        assert len(cache) == 0
        assert cache.statement("q") is None
