"""Read-only sequences of dataclass rows, held as one column per field.

A caller may keep many results.  A tuple of frozen rows costs one object
per row and one per field value; `Rows` keeps one array per field and
builds a row only when one is read.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["Rows"]


@functools.cache
def _field_names(row_type: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(row_type))


def _is_flat(column) -> bool:
    return isinstance(column, np.ndarray) and column.ndim == 1


@dataclass(frozen=True, slots=True, eq=False)
class Rows:
    """A read-only sequence of `row_type` rows, `row_type` a dataclass, held
    as `columns`: one per field, in field order, all of one length.

    A row is built only when it is read, by index (negative too) or by
    iteration.  A 1-D numpy column gives Python scalars, so a CSV of the
    rows keeps its bytes; any other column gives its own entries, so a wider
    array gives row views and a range gives ints.  Two
    sequences are equal when their row types are and every column matches
    entry by entry, as tuples of their rows compare.  Like a list, a Rows is
    not hashable."""

    row_type: type
    columns: tuple

    def __post_init__(self):
        columns = tuple(self.columns)
        if len({len(c) for c in columns}) != 1:
            raise ValueError(f"need columns of one length, got lengths {[len(c) for c in columns]}")
        object.__setattr__(self, "columns", columns)

    @classmethod
    def from_tuples(cls, row_type: type, rows) -> Rows:
        """Rows of `row_type` from one tuple of field values per row, at
        least one row; each field's values become one numpy column."""
        return cls(row_type, tuple(np.array(column) for column in zip(*rows)))

    def column(self, name: str):
        """The whole column of field `name`."""
        return self.columns[_field_names(self.row_type).index(name)]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self.row_type, *(c.tolist() if _is_flat(c) else c for c in self.columns))

    def __getitem__(self, i: int):
        i, m = operator.index(i), len(self)
        if not -m <= i < m:
            raise IndexError(f"row {i} out of range for {m} rows")
        i %= m
        return self.row_type(*(c.item(i) if _is_flat(c) else c[i] for c in self.columns))

    def __eq__(self, other):
        if not isinstance(other, Rows):
            return NotImplemented
        return self is other or (
            self.row_type is other.row_type
            and all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        )
