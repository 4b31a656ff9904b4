"""Properties of the array-backed fiber: tables read from ``cells`` are exact."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from fibergraphs.enumeration import count_fiber, enumerate_fiber
from fibergraphs.tables import validate_table


@settings(deadline=None)
@given(n=st.integers(1, 4), r=st.integers(0, 3))
def test_tables_read_from_cells_are_exact(n, r):
    fiber = enumerate_fiber(n, r)
    assert len(fiber) == count_fiber(n, r)
    tables = [fiber[k] for k in range(len(fiber))]
    assert list(fiber) == tables
    for k, t in enumerate(tables):
        # Python ints, not numpy scalars: JSON needs them, and a uint8 would wrap
        assert all(type(x) is int for row in t.entries for x in row)
        assert validate_table(n, r, t.entries) == t
        assert fiber.index_of(t) == k
    vectors = [t.row_major() for t in tables]
    assert all(a < b for a, b in zip(vectors, vectors[1:]))
