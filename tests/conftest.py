"""Shared fields, hypothesis strategies and helpers for the test suite."""

from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from grsdual.gf import make_field

# a spread of small fields: both parities, prime and extension, square and
# non-square orders
FIELDS = [
    make_field(2), make_field(3), make_field(2, 2), make_field(5),
    make_field(7), make_field(2, 3), make_field(3, 2), make_field(13),
    make_field(2, 4), make_field(5, 2), make_field(3, 3), make_field(7, 2),
]

ODD_FIELDS = [ctx for ctx in FIELDS if ctx.p != 2]


@st.composite
def field_and_elements(draw, count=1, nonzero=False, fields=None):
    ctx = draw(st.sampled_from(fields if fields is not None else FIELDS))
    lo = 1 if nonzero else 0
    xs = tuple(draw(st.integers(lo, ctx.q - 1)) for _ in range(count))
    return (ctx, *xs)


@st.composite
def field_and_matrix(draw, max_dim=5, fields=None):
    ctx = draw(st.sampled_from(fields if fields is not None else FIELDS))
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    rows = [[draw(st.integers(0, ctx.q - 1)) for _ in range(ncols)]
            for _ in range(nrows)]
    return ctx, rows


@contextmanager
def raises_exactly(cls, match):
    """pytest.raises(cls, match=match) that also refuses a subclass of
    cls: the CLI reads a failure's exit code off its class."""
    with pytest.raises(cls, match=match) as excinfo:
        yield excinfo
    assert excinfo.type is cls
