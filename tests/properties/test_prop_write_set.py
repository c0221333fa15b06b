"""``WriteSet`` is the one definition of what a task over ``[lo, hi)`` owns.

Its slices, its snapshot/restore pair and its digest must agree with one
another for every shape of operator state: 1-D and 2-D vertex-length
arrays (sliced), arrays of any other length (whole), non-array
attributes (not state), and zero-width ranges.
"""

import zlib

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ops import EdgeOperator, WriteSet, state_arrays, vertex_length


class _Op(EdgeOperator):
    writes = ()
    edge_local = True

    def process_edges(self, src, dst):  # pragma: no cover - never driven
        return dst


@st.composite
def operators(draw):
    """``(op, n, lo, hi)``: an operator over ``n`` vertices holding a few
    arrays of each kind, and a (possibly zero-width) destination range."""
    n = draw(st.integers(1, 24))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    op = _Op()
    op.rank = rng.random(n)                                  # 1-D, vertex-length
    op.label = rng.integers(0, 9, n).astype(np.int32)
    op.belief = rng.random((n, draw(st.integers(1, 3))))     # 2-D, vertex-length
    op.table = rng.random(draw(st.integers(0, 5)) + n + 1)   # some other length
    op.scalar = np.array(rng.random())                       # 0-D
    op.damping = 0.85                                        # not an array
    op.name = "op"
    return op, n, lo, hi


def _scramble(op) -> None:
    for array in state_arrays(op).values():
        array[...] = array + 1


@given(operators())
def test_slices_are_views_of_exactly_the_vertex_length_arrays(case):
    op, n, lo, hi = case
    owned = WriteSet(op, n, lo, hi)
    assert list(owned.slices) == ["belief", "label", "rank"]  # name order
    assert set(owned.views) == set(state_arrays(op)) == {
        "rank", "label", "belief", "table", "scalar"
    }
    for key, array in state_arrays(op).items():
        assert vertex_length(array, n) == (key in owned.slices)
        view = owned.views[key]
        assert np.shares_memory(view, array) or view.size == 0
        assert view.shape == (array[lo:hi].shape if key in owned.slices else array.shape)


@given(operators())
def test_snapshot_then_restore_rolls_back_the_range_and_only_the_range(case):
    op, n, lo, hi = case
    before = {key: array.copy() for key, array in state_arrays(op).items()}
    owned = WriteSet(op, n, lo, hi)
    saved, digest = owned.snapshot(), owned.digest()
    assert not any(np.shares_memory(saved[key], owned.views[key]) for key in saved)

    _scramble(op)
    scrambled = {key: array.copy() for key, array in state_arrays(op).items()}
    assert (WriteSet(op, n, lo, hi).digest() == digest) == (lo == hi)

    WriteSet(op, n, lo, hi).restore(saved)  # a fresh one: same range, same views
    for key, array in state_arrays(op).items():
        if key in owned.slices:
            assert np.array_equal(array[lo:hi], before[key][lo:hi])
            # the other tasks' ranges keep what they wrote since
            assert np.array_equal(array[:lo], scrambled[key][:lo])
            assert np.array_equal(array[hi:], scrambled[key][hi:])
        else:
            assert np.array_equal(array, before[key])
    assert WriteSet(op, n, lo, hi).digest() == digest
    assert (op.damping, op.name) == (0.85, "op")


@given(operators())
def test_digest_covers_the_slices_and_nothing_else(case):
    op, n, lo, hi = case
    digest = WriteSet(op, n, lo, hi).digest()
    # state no task owns, and vertices outside the range, do not move it
    op.table += 1
    op.scalar += 1
    op.rank[:lo] += 1
    op.belief[hi:] += 1
    assert WriteSet(op, n, lo, hi).digest() == digest
    if lo < hi:  # every slice does
        for key in ("rank", "label", "belief"):
            getattr(op, key)[lo] += 1
            moved = WriteSet(op, n, lo, hi).digest()
            assert moved != digest
            digest = moved
    else:
        assert digest == 0


@given(operators())
def test_the_digest_is_the_crc_of_the_slices_c_order_bytes(case):
    """Journals compare against digests already computed, so the value is
    fixed: CRC32 over each slice's ``tobytes()``, in name order.  A slice
    is read in place where it is C-contiguous and copied where it is not —
    the rows of a Fortran-ordered 2-D state array — with the same result."""
    op, n, lo, hi = case
    crc = 0
    for key in ("belief", "label", "rank"):
        crc = zlib.crc32(getattr(op, key)[lo:hi].tobytes(), crc)
    assert WriteSet(op, n, lo, hi).digest() == crc
    op.belief = np.asfortranarray(op.belief)
    owned = WriteSet(op, n, lo, hi)
    if op.belief.shape[1] > 1 and hi - lo > 1:
        assert not owned.slices["belief"].flags.c_contiguous
    assert owned.digest() == crc


@given(operators())
def test_default_snapshot_is_the_whole_state(case):
    op, n, _, _ = case
    saved = op.snapshot()
    assert set(saved) == set(state_arrays(op))
    assert saved.keys() == WriteSet(op, n, 0, n).snapshot().keys()
    _scramble(op)
    op.restore(saved)
    for key, array in state_arrays(op).items():
        assert np.array_equal(array, saved[key])
