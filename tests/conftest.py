"""Shared fields, hypothesis strategies and helpers for the test suite,
and `mds_work`, the record of how the MDS checks route their work."""

import functools
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


class MdsWork:
    """The MDS work routed through `verify`'s private names since the
    last `clear`, each list in call order:
    - subsets: the column subsets tested one at a time;
    - blocks: the blocks those pass to `linalg._np_nonsingular`, as given;
    - minor_walks: the verdicts of the Schur-complement minor walk;
    - windows: one (subset count, [(B, j) of each batched elimination])
      per window of subsets;
    - draws: the subset count of each chunk of seeded draws;
    - proofs: the verdicts of the Cauchy-form proof.
    """

    def __init__(self):
        self.subsets, self.blocks, self.minor_walks = [], [], []
        self.windows, self.draws, self.proofs = [], [], []
        self.refused = set()

    def clear(self):
        for work in (self.subsets, self.blocks, self.minor_walks,
                     self.windows, self.draws, self.proofs):
            work.clear()

    def refuse_proofs(self):
        """Every Cauchy-form proof fails from now on, without running."""
        self.refused.add("proofs")

    def refuse_minor_walks(self):
        """Every minor walk finds a singular minor from now on, without
        running."""
        self.refused.add("minor_walks")

    def verdict(self, name, real, *args):
        ok = False if name in self.refused else real(*args)
        getattr(self, name).append(ok)
        return ok


@pytest.fixture
def mds_work(monkeypatch):
    """An `MdsWork` that records every MDS check of the test.  The only
    test code that wraps `verify`'s and `linalg`'s routing names; a name
    that no longer exists is left alone, and its work goes unrecorded."""
    from grsdual import linalg, verify

    work = MdsWork()
    window = []  # the window whose blocks are being eliminated, if any

    def subset(real, red, slot, cols, ops):
        work.subsets.append(tuple(cols))
        return real(red, slot, cols, ops)

    def block(real, rows, ops):
        work.blocks.append(rows)
        return real(rows, ops)

    def blocks(real, red, pivot_row, cols, ops):
        work.windows.append((len(cols), []))
        window.append(work.windows[-1][1])
        try:
            return real(red, pivot_row, cols, ops)
        finally:
            window.pop()

    def batch(real, a, ops):
        assert a.shape[1] == a.shape[2], a.shape
        if window:
            window[-1].append(a.shape[:2])
        return real(a, ops)

    def draw(real, rng, n, k, count):
        work.draws.append(count)
        return real(rng, n, k, count)

    routes = [
        (verify, "_np_subset_nonsingular", subset),
        (linalg, "_np_nonsingular", block),
        (verify, "_minors_nonsingular",
         functools.partial(work.verdict, "minor_walks")),
        (verify, "_blocks_nonsingular", blocks),
        (linalg, "_np_batch_nonsingular", batch),
        (verify, "_draw_subsets", draw),
        (verify, "_cauchy_form", functools.partial(work.verdict, "proofs")),
    ]
    for module, name, wrapper in routes:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, functools.partial(
                wrapper, getattr(module, name)))
    return work
