"""Value types for the relational engine.

The engine supports four scalar types — ``INT``, ``FLOAT``, ``TEXT`` and
``BOOL`` — plus SQL ``NULL`` (represented by Python ``None``).  All coercion
and comparison rules live here so the rest of the engine never has to guess
how two values relate.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatchError


class SqlType(enum.Enum):
    """Declared column types."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Python types acceptable (post-coercion) for each SQL type.
_PYTHON_TYPES: dict[SqlType, tuple[type, ...]] = {
    SqlType.INT: (int,),
    SqlType.FLOAT: (float, int),
    SqlType.TEXT: (str,),
    SqlType.BOOL: (bool,),
}

#: The Python type of a stored value of each SQL type: :func:`coerce_value`
#: returns a value of exactly this type unchanged.
STORED_TYPES: dict[SqlType, type] = {
    SqlType.INT: int,
    SqlType.FLOAT: float,
    SqlType.TEXT: str,
    SqlType.BOOL: bool,
}


def coerce_value(value: Any, sql_type: SqlType) -> Any:
    """Coerce ``value`` to ``sql_type``, raising :class:`TypeMismatchError`.

    ``None`` always passes through (SQL NULL is valid for any type unless a
    NOT NULL constraint rejects it at the schema layer).

    >>> coerce_value("12", SqlType.INT)
    12
    >>> coerce_value(3, SqlType.FLOAT)
    3.0
    """
    if value is None:
        return None
    if sql_type is SqlType.INT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store BOOL {value!r} in INT column")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to INT") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to INT")
    if sql_type is SqlType.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store BOOL {value!r} in FLOAT column")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError as exc:
                raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT") from exc
        raise TypeMismatchError(f"cannot coerce {value!r} to FLOAT")
    if sql_type is SqlType.TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float, bool)):
            return str(value)
        raise TypeMismatchError(f"cannot coerce {value!r} to TEXT")
    if sql_type is SqlType.BOOL:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1", "yes"):
                return True
            if lowered in ("false", "f", "0", "no"):
                return False
            raise TypeMismatchError(f"cannot coerce {value!r} to BOOL")
        raise TypeMismatchError(f"cannot coerce {value!r} to BOOL")
    raise TypeMismatchError(f"unknown SQL type {sql_type!r}")  # pragma: no cover


def is_valid(value: Any, sql_type: SqlType) -> bool:
    """Return True when ``value`` is storable as-is for ``sql_type``."""
    if value is None:
        return True
    if sql_type is not SqlType.BOOL and isinstance(value, bool):
        return False
    return isinstance(value, _PYTHON_TYPES[sql_type])


def infer_type(value: Any) -> SqlType:
    """Infer the narrowest :class:`SqlType` able to hold ``value``."""
    if isinstance(value, bool):
        return SqlType.BOOL
    if isinstance(value, int):
        return SqlType.INT
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.TEXT
    raise TypeMismatchError(f"no SQL type for Python value {value!r}")


def is_numeric(sql_type: SqlType) -> bool:
    """True for INT and FLOAT columns."""
    return sql_type in (SqlType.INT, SqlType.FLOAT)


_NULL_KEY = (0,)
#: Key columns whose values all have one of these exact types sort raw.
_RAW_NUMBERS = frozenset({int, float})
_RAW_STRINGS = frozenset({str})


def sort_key(value: Any) -> tuple:
    """Total-order sort key for heterogeneous/NULL-bearing columns.

    SQL comparison with NULL yields unknown, but ORDER BY needs a total
    order: NULLs sort first (ascending), as most engines do, then BOOLs,
    numbers (INT and FLOAT together) and everything else, each family
    by its own ``<``.  A plain tuple, so the sort compares in C.
    """
    if value is None:
        return _NULL_KEY
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, value)


def sort_permutation(columns: list[list[Any]], descending: list[bool]) -> list[int]:
    """Stable ORDER BY permutation of ``len(columns[0])`` rows.

    ``columns[k]`` holds the k-th ORDER BY key of every row.  One stable
    sort per key, last key first, so earlier keys take precedence and ties
    keep input order (DESC included).  A key column of only non-bool
    numbers, or only strings, sorts by its raw values; any other column
    sorts by :func:`sort_key`, which orders those values identically.
    """
    order = list(range(len(columns[0])))
    for column, desc in zip(reversed(columns), reversed(descending)):
        families = set(map(type, column))
        if not (families <= _RAW_NUMBERS or families == _RAW_STRINGS):
            column = list(map(sort_key, column))
        order.sort(key=column.__getitem__, reverse=desc)
    return order


def compare_values(left: Any, right: Any) -> int | None:
    """Three-way SQL comparison.

    Returns ``None`` when either side is NULL (SQL unknown), else -1/0/1.
    Numeric types compare cross-type (INT vs FLOAT); everything else must
    match exactly on Python type family.
    """
    if left is None or right is None:
        return None
    left_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_num and right_num:
        if left < right:
            return -1
        return 1 if left > right else 0
    if isinstance(left, str) and isinstance(right, str):
        if left < right:
            return -1
        return 1 if left > right else 0
    if isinstance(left, bool) and isinstance(right, bool):
        if left < right:
            return -1
        return 1 if left > right else 0
    raise TypeMismatchError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )
