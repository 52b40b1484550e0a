"""Persistent hash maps (HAMT) for copy-on-write publishers.

A :class:`PMap` is an immutable mapping: :meth:`set` and :meth:`delete`
return a *new* map that shares all unchanged structure with the old one
(a hash array mapped trie — 32-way branching on 5-bit hash chunks), so a
single-key update copies O(log32 n) small nodes and leaves everything
else aliased.

This is what makes the MVCC publish path cheap: the value index and the
spelling vocabularies keep their tables in PMaps, so they can hand
concurrent readers their current maps *by reference* — cloning is O(1)
attribute copying — and apply a delta as functional updates that can
never be observed half-applied, because the reader's references still
point at the old root nodes.

The module sits at the package root because both ``repro.nlp`` and
``repro.valueindex`` build on it, and ``repro.valueindex`` imports
``repro.nlp``.

Pure Python, no dependencies.  Keys must be hashable; full-hash
collisions fall back to small collision buckets.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

_BITS = 5
_MASK = (1 << _BITS) - 1  # 31
#: Python hashes are masked to 32 bits for trie navigation; keys whose
#: masked hashes fully collide land in a _Collision bucket (checked
#: before descending, so the trie never recurses past differing bits).
_HASH_MASK = 0xFFFFFFFF

_ABSENT = object()


def _hash(key: Any) -> int:
    return hash(key) & _HASH_MASK


class _Leaf:
    """One key/value pair."""

    __slots__ = ("hash", "key", "value")

    def __init__(self, h: int, key: Any, value: Any) -> None:
        self.hash = h
        self.key = key
        self.value = value


class _Collision:
    """Distinct keys whose 32-bit hashes are identical."""

    __slots__ = ("hash", "pairs")

    def __init__(self, h: int, pairs: tuple[tuple[Any, Any], ...]) -> None:
        self.hash = h
        self.pairs = pairs


class _Node:
    """Bitmap-compressed branch: children packed by set bits."""

    __slots__ = ("bitmap", "children")

    def __init__(self, bitmap: int, children: tuple[Any, ...]) -> None:
        self.bitmap = bitmap
        self.children = children


def _index(bitmap: int, bit: int) -> int:
    """Packed position of ``bit``'s child (popcount of lower bits)."""
    return (bitmap & (bit - 1)).bit_count()


def _merge(shift: int, a: Any, b: _Leaf) -> Any:
    """Branch holding two leaves/collisions that disagree below ``shift``."""
    if a.hash == b.hash:
        if isinstance(a, _Collision):
            return _Collision(a.hash, a.pairs + ((b.key, b.value),))
        return _Collision(a.hash, ((a.key, a.value), (b.key, b.value)))
    a_bit = 1 << ((a.hash >> shift) & _MASK)
    b_bit = 1 << ((b.hash >> shift) & _MASK)
    if a_bit == b_bit:
        return _Node(a_bit, (_merge(shift + _BITS, a, b),))
    children = (a, b) if a_bit < b_bit else (b, a)
    return _Node(a_bit | b_bit, children)


def _get(node: Any, shift: int, h: int, key: Any) -> Any:
    while isinstance(node, _Node):
        bit = 1 << ((h >> shift) & _MASK)
        if not node.bitmap & bit:
            return _ABSENT
        node = node.children[_index(node.bitmap, bit)]
        shift += _BITS
    if isinstance(node, _Leaf):
        if node.hash == h and node.key == key:
            return node.value
        return _ABSENT
    # _Collision
    if node.hash != h:
        return _ABSENT
    for k, v in node.pairs:
        if k == key:
            return v
    return _ABSENT


def _set(node: Any, shift: int, h: int, key: Any, value: Any) -> tuple[Any, bool]:
    """Returns ``(new_node, key_was_added)``."""
    if isinstance(node, _Node):
        bit = 1 << ((h >> shift) & _MASK)
        idx = _index(node.bitmap, bit)
        if node.bitmap & bit:
            child, added = _set(node.children[idx], shift + _BITS, h, key, value)
            children = node.children[:idx] + (child,) + node.children[idx + 1 :]
            return _Node(node.bitmap, children), added
        children = node.children[:idx] + (_Leaf(h, key, value),) + node.children[idx:]
        return _Node(node.bitmap | bit, children), True
    if isinstance(node, _Leaf):
        if node.hash == h and node.key == key:
            return _Leaf(h, key, value), False
        return _merge(shift, node, _Leaf(h, key, value)), True
    # _Collision
    if node.hash == h:
        for i, (k, _) in enumerate(node.pairs):
            if k == key:
                pairs = node.pairs[:i] + ((key, value),) + node.pairs[i + 1 :]
                return _Collision(h, pairs), False
        return _Collision(h, node.pairs + ((key, value),)), True
    return _merge(shift, node, _Leaf(h, key, value)), True


def _delete(node: Any, shift: int, h: int, key: Any) -> Any:
    """New node without ``key`` (possibly None), or ``_ABSENT`` when missing."""
    if isinstance(node, _Node):
        bit = 1 << ((h >> shift) & _MASK)
        if not node.bitmap & bit:
            return _ABSENT
        idx = _index(node.bitmap, bit)
        child = _delete(node.children[idx], shift + _BITS, h, key)
        if child is _ABSENT:
            return _ABSENT
        if child is None:
            bitmap = node.bitmap & ~bit
            children = node.children[:idx] + node.children[idx + 1 :]
            if len(children) == 1 and not isinstance(children[0], _Node):
                return children[0]  # collapse single-entry branches
            if not children:
                return None
            return _Node(bitmap, children)
        children = node.children[:idx] + (child,) + node.children[idx + 1 :]
        if len(children) == 1 and not isinstance(children[0], _Node):
            return children[0]
        return _Node(node.bitmap, children)
    if isinstance(node, _Leaf):
        if node.hash == h and node.key == key:
            return None
        return _ABSENT
    # _Collision
    if node.hash != h:
        return _ABSENT
    pairs = tuple((k, v) for k, v in node.pairs if k != key)
    if len(pairs) == len(node.pairs):
        return _ABSENT
    if len(pairs) == 1:
        return _Leaf(h, pairs[0][0], pairs[0][1])
    return _Collision(h, pairs)


def _build(shift: int, entries: list[tuple[int, Any, Any]]) -> Any:
    """Trie over ``(hash, key, value)`` entries whose hashes agree below
    ``shift``.

    One entry is a leaf, and entries sharing one full hash are a
    collision bucket in mapping order — what :func:`_merge` makes of
    them.  Otherwise a branch holds one child per 5-bit chunk at
    ``shift``, in bit order, each built from its entries in mapping order.
    """
    h, key, value = entries[0]
    if len(entries) == 1:
        return _Leaf(h, key, value)
    # The second entry rejects almost every group before the full scan.
    if entries[1][0] == h and all(entry[0] == h for entry in entries):
        return _Collision(h, tuple((k, v) for _, k, v in entries))
    groups: dict[int, list[tuple[int, Any, Any]]] = {}
    for entry in entries:
        chunk = (entry[0] >> shift) & _MASK
        if chunk in groups:
            groups[chunk].append(entry)
        else:
            groups[chunk] = [entry]
    bitmap = 0
    children = []
    shift += _BITS
    for chunk in sorted(groups):
        bitmap |= 1 << chunk
        group = groups[chunk]
        children.append(_Leaf(*group[0]) if len(group) == 1 else _build(shift, group))
    return _Node(bitmap, tuple(children))


def _iter_items(node: Any) -> Iterator[tuple[Any, Any]]:
    if node is None:
        return
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, _Node):
            stack.extend(reversed(current.children))
        elif isinstance(current, _Leaf):
            yield current.key, current.value
        else:
            yield from current.pairs


class PMap:
    """Immutable hash map with structural sharing.

    >>> m = PMap.from_dict({"a": 1})
    >>> m2 = m.set("b", 2)
    >>> sorted(m2.items()), len(m), "b" in m
    ([('a', 1), ('b', 2)], 1, False)
    """

    __slots__ = ("_root", "_count")

    def __init__(self, root: Any = None, count: int = 0) -> None:
        self._root = root
        self._count = count

    @classmethod
    def from_dict(cls, mapping: Mapping[Any, Any]) -> "PMap":
        """Build in one pass the trie that ``set`` per item would build.

        Every key is hashed once, then the items are partitioned on
        successive 5-bit hash chunks (:func:`_build`): the same nodes, in
        the same order, as inserting ``mapping`` item by item.
        """
        if not mapping:
            return _EMPTY
        entries = [(_hash(key), key, value) for key, value in mapping.items()]
        return PMap(_build(0, entries), len(entries))

    def get(self, key: Any, default: Any = None) -> Any:
        if self._root is None:
            return default
        value = _get(self._root, 0, _hash(key), key)
        return default if value is _ABSENT else value

    def __getitem__(self, key: Any) -> Any:
        value = self.get(key, _ABSENT)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

    def set(self, key: Any, value: Any) -> "PMap":
        if self._root is None:
            return PMap(_Leaf(_hash(key), key, value), 1)
        root, added = _set(self._root, 0, _hash(key), key, value)
        return PMap(root, self._count + 1 if added else self._count)

    def delete(self, key: Any) -> "PMap":
        """Map without ``key``; returns self when the key is absent."""
        if self._root is None:
            return self
        root = _delete(self._root, 0, _hash(key), key)
        if root is _ABSENT:
            return self
        return PMap(root, self._count - 1)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Any]:
        for key, _ in _iter_items(self._root):
            yield key

    def items(self) -> Iterator[tuple[Any, Any]]:
        return _iter_items(self._root)

    def keys(self) -> Iterator[Any]:
        return iter(self)

    def values(self) -> Iterator[Any]:
        for _, value in _iter_items(self._root):
            yield value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PMap({dict(self.items())!r})"


_EMPTY = PMap()
