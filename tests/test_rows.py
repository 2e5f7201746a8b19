"""Rows: a dataclass's rows held as columns, read one row at a time."""

import dataclasses

import numpy as np
import pytest

from diffloc.rows import Rows


@dataclasses.dataclass(frozen=True, slots=True)
class Point:
    name: str
    count: int
    value: float
    ok: bool


@dataclasses.dataclass(frozen=True, slots=True)
class Other:
    name: str
    count: int
    value: float
    ok: bool


POINTS = (Point("a", 1, 0.5, True), Point("b", 2, -1.25, False), Point("c", 3, 2.0, True))


def columns():
    return (
        np.array(["a", "b", "c"], dtype=object),
        np.array([1, 2, 3], dtype=np.int8),
        np.array([0.5, -1.25, 2.0]),
        np.array([True, False, True]),
    )


def test_rows_read_as_the_tuple_of_their_rows():
    rows = Rows(Point, columns())
    assert len(rows) == 3
    assert tuple(rows) == POINTS
    for i in (*range(3), np.int64(1), -1, -3):
        assert rows[i] == POINTS[i]
    for row in (rows[0], *rows):
        assert [type(getattr(row, f.name)) for f in dataclasses.fields(row)] == [str, int, float, bool]
    for i in (3, -4):
        with pytest.raises(IndexError):
            rows[i]
    for i in (slice(0, 2), 1.0):
        with pytest.raises(TypeError):
            rows[i]


def test_from_tuples_builds_one_column_per_field():
    rows = Rows.from_tuples(Point, [dataclasses.astuple(p) for p in POINTS])
    assert rows == Rows(Point, columns()) and tuple(rows) == POINTS
    assert rows.column("value").tolist() == [0.5, -1.25, 2.0]


def test_wider_columns_give_row_views():
    @dataclasses.dataclass(frozen=True, eq=False)
    class Pair:
        index: int
        coords: np.ndarray

    coords = np.arange(6.0).reshape(3, 2)
    rows = Rows(Pair, (range(3), coords))
    assert [r.index for r in rows] == [0, 1, 2]
    assert np.shares_memory(rows[-1].coords, coords) and rows[-1].coords.tolist() == [4.0, 5.0]


def test_equality_is_by_value_and_rows_are_unhashable():
    rows = Rows(Point, columns())
    same = Rows(Point, tuple(c.astype(np.int64) if c.dtype == np.int8 else c.copy() for c in columns()))
    assert rows == same and not rows != same
    assert rows != Rows(Other, columns())
    assert rows != Rows(Point, tuple(c[:2] for c in columns()))
    assert rows != POINTS and rows != list(POINTS)
    changed = list(columns())
    changed[2] = np.nextafter(changed[2], np.inf)
    assert rows != Rows(Point, changed)
    with pytest.raises(TypeError, match="unhashable"):
        hash(rows)


def test_columns_of_unequal_lengths_are_rejected():
    cols = list(columns())
    cols[1] = cols[1][:2]
    with pytest.raises(ValueError, match="one length"):
        Rows(Point, cols)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Rows(Point, columns()).columns = ()
