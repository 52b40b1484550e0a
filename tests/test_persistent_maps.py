"""Persistent maps and the clone-free ValueIndex publish path.

Three layers under test:

* :class:`repro.pmap.PMap` — the HAMT itself, differentially fuzzed
  against ``dict`` and probed on hash collisions, and its one-pass
  ``from_dict`` build compared node for node with successive ``set`` calls;
* :class:`~repro.valueindex.ValueIndex` and the spelling corrector — O(1)
  clones, structural sharing across a publish (checked by *object
  identity sampling*: untouched buckets in the patched clone must be the
  very same objects the pinned reader holds), and occurrence refcounts
  that survive clone-free publishes;
* the pipeline's publish path — a delta refresh swaps in a new bundle
  whose index shares all untouched structure with the one concurrent
  readers still hold.
"""

from __future__ import annotations

import random

import pytest

from repro.core import NaturalLanguageInterface
from repro.datasets import fleet
from repro.nlp.spelling import SpellingCorrector
from repro.sqlengine.table import TableDelta
from repro.valueindex import ValueIndex
from repro.pmap import PMap, _Collision, _Leaf, _Node


class TestPMap:
    def test_empty(self):
        m = PMap()
        assert len(m) == 0
        assert m.get("x") is None
        assert "x" not in m
        assert list(m.items()) == []
        with pytest.raises(KeyError):
            m["x"]

    def test_set_get_delete(self):
        m = PMap().set("a", 1).set("b", 2)
        assert m["a"] == 1 and m["b"] == 2 and len(m) == 2
        m2 = m.delete("a")
        assert "a" not in m2 and m2["b"] == 2 and len(m2) == 1
        # the original is untouched — that is the whole point
        assert m["a"] == 1 and len(m) == 2

    def test_overwrite_keeps_count(self):
        m = PMap().set("k", 1).set("k", 2)
        assert len(m) == 1 and m["k"] == 2

    def test_delete_missing_returns_self(self):
        m = PMap().set("a", 1)
        assert m.delete("zzz") is m
        assert PMap().delete("zzz") is not None

    def test_differential_fuzz_against_dict(self):
        rng = random.Random(7)
        m, d = PMap(), {}
        for _ in range(8000):
            op, key = rng.random(), rng.randrange(800)
            if op < 0.55:
                value = rng.randrange(1000)
                m, d[key] = m.set(key, value), value
            elif op < 0.85:
                m = m.delete(key)
                d.pop(key, None)
            else:
                assert m.get(key, "absent") == d.get(key, "absent")
        assert len(m) == len(d)
        assert dict(m.items()) == d
        assert sorted(m.keys()) == sorted(d.keys())
        assert sorted(m.values()) == sorted(d.values())

    def test_full_hash_collisions(self):
        class Collider:
            def __init__(self, name):
                self.name = name

            def __hash__(self):  # all instances collide at full depth
                return 42

            def __eq__(self, other):
                return isinstance(other, Collider) and other.name == self.name

        a, b, c = Collider("a"), Collider("b"), Collider("c")
        m = PMap().set(a, 1).set(b, 2).set(c, 3)
        assert len(m) == 3 and m[a] == 1 and m[b] == 2 and m[c] == 3
        m = m.delete(b)
        assert len(m) == 2 and b not in m and m[a] == 1 and m[c] == 3
        m = m.delete(a).delete(c)
        assert len(m) == 0

    def test_structural_sharing_on_update(self):
        base = PMap.from_dict({i: (i,) for i in range(2000)})
        updated = base.set(17, (17, 17))
        shared = sum(1 for k in range(2000) if updated.get(k) is base.get(k))
        # One key changed: every other bucket object is aliased, not copied.
        assert shared == 1999
        assert base.get(17) == (17,) and updated.get(17) == (17, 17)


class _Fixed:
    """Key with a chosen hash, equal only to a key of the same name."""

    def __init__(self, name, hash_value):
        self.name = name
        self.hash_value = hash_value

    def __hash__(self):
        return self.hash_value

    def __eq__(self, other):
        return isinstance(other, _Fixed) and other.name == self.name

    def __repr__(self):
        return f"_Fixed({self.name!r}, {self.hash_value})"


def _shape(node):
    """Node-for-node description of a trie: bitmaps, child order, leaves
    (hash, key, value) and collision buckets (hash, pairs in order)."""
    if isinstance(node, _Node):
        return ("node", node.bitmap, [_shape(child) for child in node.children])
    if isinstance(node, _Leaf):
        return ("leaf", node.hash, node.key, node.value)
    if isinstance(node, _Collision):
        return ("collision", node.hash, node.pairs)
    assert node is None
    return None


def _by_sets(mapping):
    out = PMap()
    for key, value in mapping.items():
        out = out.set(key, value)
    return out


class TestFromDict:
    """The one-pass build equals successive ``set`` calls, node for node."""

    def assert_same_trie(self, mapping):
        built, reference = PMap.from_dict(mapping), _by_sets(mapping)
        assert len(built) == len(reference) == len(mapping)
        assert _shape(built._root) == _shape(reference._root)
        assert list(built.items()) == list(reference.items())

    @pytest.mark.parametrize("size", [0, 1, 2, 33, 1000, 50_000])
    def test_sizes(self, size):
        self.assert_same_trie({f"key {i}": i for i in range(size)})

    def test_mixed_keys_in_shuffled_order(self):
        keys = [("ship", "name", f"v{i}") for i in range(500)]
        keys += [("len", i) for i in range(500)] + list(range(-300, 300))
        random.Random(3).shuffle(keys)
        self.assert_same_trie({key: str(key) for key in keys})

    def test_hashes_sharing_many_low_bits(self):
        # Low 25 bits equal: five levels of one-child branches above the
        # level where the keys finally part.
        self.assert_same_trie({i << 25: i for i in range(128)})
        self.assert_same_trie({(i << 20) | 0x5A5A: i for i in range(4096)})

    def test_masked_hash_collisions(self):
        # Distinct Python hashes that agree in the 32 bits the trie uses.
        mapping = {(i << 32) | 7: i for i in range(6)}
        mapping.update({(i << 32) | 9: -i for i in range(3)})
        self.assert_same_trie(mapping)
        assert isinstance(PMap.from_dict(mapping)._root, _Node)

    def test_full_hash_collisions(self):
        colliders = {_Fixed(name, 42): name for name in "abcde"}
        self.assert_same_trie(colliders)
        root = PMap.from_dict(colliders)._root
        assert isinstance(root, _Collision)
        assert [key.name for key, _ in root.pairs] == list("abcde")

    @pytest.mark.parametrize("third_at", [0, 1, 2])
    def test_collision_pair_under_a_third_key(self, third_at):
        # Two keys share hash 42; a third agrees with it in the low 20
        # bits, so the pair's bucket and the third key's leaf part only
        # deep in the trie — whichever order the keys come in.
        keys = [_Fixed("a", 42), _Fixed("b", 42)]
        keys.insert(third_at, _Fixed("c", 42 | (1 << 20)))
        mapping = {key: key.name for key in keys}
        self.assert_same_trie(mapping)
        node = PMap.from_dict(mapping)._root
        depth = 0
        while isinstance(node, _Node) and len(node.children) == 1:
            node, depth = node.children[0], depth + 1
        assert depth == 4
        kinds = sorted(type(child).__name__ for child in node.children)
        assert kinds == ["_Collision", "_Leaf"]

    def test_result_supports_functional_updates(self):
        built = PMap.from_dict({f"k{i}": i for i in range(300)})
        updated = built.set("k5", -5).delete("k7").set("new", 1)
        assert updated["k5"] == -5 and "k7" not in updated and updated["new"] == 1
        assert built["k5"] == 5 and built["k7"] == 7 and len(built) == 300
        assert PMap.from_dict({}) is PMap.from_dict({})


def _sample_index() -> ValueIndex:
    return ValueIndex(fleet.build_database(seed=7, ships=300))


class TestValueIndexPersistentMode:
    def test_clone_aliases_maps(self):
        index = _sample_index()
        clone = index.clone()
        # O(1) publish: the clone holds the same map objects by reference.
        assert clone._phrase_map is index._phrase_map
        assert clone._stem_map is index._stem_map
        assert clone._occurrences is index._occurrences
        assert clone._column_seen is index._column_seen

    def test_publish_after_dml_shares_structure(self):
        """Object identity sampling across a publish.

        Patch a clone with a delta (the publish path) and verify every
        bucket the delta did not touch is the *same object* in both the
        old and new index — structural sharing, not a deep copy.
        """
        index = _sample_index()
        clone = index.clone()
        clone.apply_delta(
            TableDelta("ship", added=(("name", "Zephyr Queen"),))
        )
        assert clone.lookup(["zephyr", "queen"]) != []
        assert index.lookup(["zephyr", "queen"]) == []
        touched = {("zephyr", "queen")}
        shared = different = 0
        for key, bucket in index._phrase_map.items():
            if key in touched:
                continue
            if clone._phrase_map.get(key) is bucket:
                shared += 1
            else:
                different += 1
        assert different == 0, "untouched phrase buckets were copied"
        assert shared > 100  # the fleet corpus indexes hundreds of phrases

    def test_refcounts_survive_clone_free_publish(self):
        """Occurrence refcounts stay correct across chained O(1) publishes."""
        index = _sample_index()
        # Two live rows hold the same value...
        gen1 = index.clone()
        gen1.apply_delta(TableDelta("ship", added=(("name", "Twinsburg"),)))
        gen2 = gen1.clone()
        gen2.apply_delta(TableDelta("ship", added=(("name", "Twinsburg"),)))
        assert gen2._occurrences.get(("ship", "name", "Twinsburg")) == 2
        # ...removing one occurrence keeps the phrase indexed...
        gen3 = gen2.clone()
        gen3.apply_delta(TableDelta("ship", removed=(("name", "Twinsburg"),)))
        assert gen3.lookup(["twinsburg"]) != []
        assert gen3._occurrences.get(("ship", "name", "Twinsburg")) == 1
        # ...and removing the last unindexes it, on that generation only.
        gen4 = gen3.clone()
        gen4.apply_delta(TableDelta("ship", removed=(("name", "Twinsburg"),)))
        assert gen4.lookup(["twinsburg"]) == []
        assert gen4._occurrences.get(("ship", "name", "Twinsburg")) is None
        # Pinned generations never moved.
        assert gen3.lookup(["twinsburg"]) != []
        assert gen2._occurrences.get(("ship", "name", "Twinsburg")) == 2
        assert gen1._occurrences.get(("ship", "name", "Twinsburg")) == 1
        assert index.lookup(["twinsburg"]) == []

    def test_cap_enforced_in_persistent_mode(self):
        index = ValueIndex(
            fleet.build_database(seed=7, ships=50), max_values_per_column=3
        )
        rejected = index.add_value("ship", "name", "Brand New Value")
        assert rejected is False
        assert index.lookup(["brand", "new", "value"]) == []


class TestSpellingCorrectorPersistentMode:
    def test_clone_is_reference_copy(self):
        corrector = SpellingCorrector()
        corrector.add_words(["alpha", "beta"])
        clone = corrector.clone()
        assert clone._vocabulary is corrector._vocabulary
        assert clone._by_length is corrector._by_length
        clone.add_word("gamma")
        assert "gamma" in clone and "gamma" not in corrector

    def test_remove_word_drops_empty_buckets(self):
        corrector = SpellingCorrector()
        corrector.add_word("lonely")
        corrector.remove_word("lonely")
        assert "lonely" not in corrector
        assert len(corrector._by_length) == 0


class TestPipelinePublishMode:
    def test_delta_refresh_publishes_shared_structure(self):
        nli = NaturalLanguageInterface(
            fleet.build_database(seed=7, ships=200), domain=fleet.domain()
        )
        old_layers = nli.layers
        old_index = old_layers.value_index
        nli.engine.execute(
            "INSERT INTO ship VALUES (900001, 'Starfall Wanderer', "
            "3, 1, 1, 1, 8000, 600, 30, 1976, 150)"
        )
        nli.refresh()
        new_index = nli.layers.value_index
        assert nli.layers is not old_layers
        assert new_index is not old_index
        assert nli.stats["delta_refreshes"] == 1
        assert nli.stats["full_rebuilds"] == 1  # construction only
        # The pinned reader's bundle never saw the new phrase...
        assert old_index.lookup(["starfall", "wanderer"]) == []
        assert new_index.lookup(["starfall", "wanderer"]) != []
        # ...and the published index aliases every untouched bucket.
        copied = [
            key
            for key, bucket in old_index._phrase_map.items()
            if new_index._phrase_map.get(key) is not bucket
        ]
        assert copied == []

    def test_full_rebuild_stays_persistent(self):
        nli = NaturalLanguageInterface(
            fleet.build_database(seed=7, ships=50), domain=fleet.domain()
        )
        nli.refresh(full=True)
        index = nli.value_index
        maps = [index._phrase_map, index._stem_map, index._occurrences]
        maps += [index._column_seen, index._word_vocabulary._vocabulary]
        assert all(isinstance(m, PMap) for m in maps)
        assert isinstance(nli.lexicon._vocabulary()._vocabulary, PMap)
