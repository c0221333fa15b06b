"""``scatter_add_gather`` is ``np.add.at(acc, dst, x[src])`` — and, given
``data``, ``np.add.at(acc, dst, data * x[src])`` — bit for bit.

The helper runs scipy's private COO mat-vec loop with a unit ``data``
factor (or the caller's), which checks nothing and copies what it
dislikes; everything it would mishandle must therefore be refused by the
helper itself, before ``acc`` is touched.  One plain test pins the private
symbol's contract, so a scipy release that moves or changes it fails here,
by name; another probes that its multiply-add is not contracted into an
FMA, which the weighted form's bit-identity rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._types import VAL_DTYPE, VID_DTYPE
from repro.core.ops import scatter_add_gather
from repro.core.plan import TASK_EDGES

#: every kind of float64 the sum must carry through unchanged.
SPECIALS = [
    0.0, -0.0, 1.0, -1.0, 0.1, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308,
    float("inf"), float("-inf"), float("nan"),
]
LENGTHS = [0, 1, 7, TASK_EDGES - 1, TASK_EDGES, TASK_EDGES + 1, 3 * TASK_EDGES + 7]


def _bits_equal(got: np.ndarray, want: np.ndarray) -> bool:
    """Bitwise equality; a NaN matches a NaN.  Which operand's sign and
    payload ``nan + nan`` keeps is the compiler's choice of operand order
    (numpy's loop and scipy's differ on x86), and no algorithm reads it."""
    nan = np.isnan(want)
    return np.array_equal(nan, np.isnan(got)) and np.array_equal(
        got.view(np.uint64)[~nan], want.view(np.uint64)[~nan]
    )


def _case(seed: int, length: int, n: int, special_share: float):
    """``(acc, dst, x, src, data)``: duplicate-heavy ``dst``, a non-zero
    starting ``acc``, values drawn from :data:`SPECIALS` beside ordinary ones."""
    rng = np.random.default_rng(seed)

    def values(size):
        out = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        special = rng.random(size) < special_share
        out[special] = rng.choice(SPECIALS, int(special.sum()))
        return out.astype(VAL_DTYPE)

    hot = rng.integers(0, n, max(1, n // 8))  # most edges land on few destinations
    dst = np.where(rng.random(length) < 0.8, rng.choice(hot, length), rng.integers(0, n, length))
    src = rng.integers(0, n, length)
    return values(n), dst.astype(VID_DTYPE), values(n), src.astype(VID_DTYPE), values(length)


def _read_only_view_of_larger(array: np.ndarray, pad: int) -> np.ndarray:
    """The same values as a read-only, still C-contiguous slice of a larger array."""
    larger = np.concatenate([array[:pad], array, array[:pad]])
    view = larger[min(pad, array.size) :][: array.size]
    view.flags.writeable = False
    return view


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.sampled_from(LENGTHS),
    n=st.sampled_from([1, 2, 17, 300]),
    special_share=st.sampled_from([0.0, 0.05, 0.5]),
    views=st.booleans(),
    weighted=st.booleans(),
)
def test_equals_np_add_at_bit_for_bit(seed, length, n, special_share, views, weighted):
    acc, dst, x, src, data = _case(seed, length, n, special_share)
    want = acc.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(want, dst, data * x[src] if weighted else x[src])
    if views:
        dst, x, src, data = (_read_only_view_of_larger(a, 3) for a in (dst, x, src, data))
        acc = np.concatenate([acc, acc])[n:]  # a writeable view, not an owner
    extra = (data,) if weighted else ()
    assert scatter_add_gather(acc, dst, x, src, *extra) is None
    assert _bits_equal(acc, want)


def test_the_weighted_loop_contracts_no_fma():
    """``acc = -(w * x)`` then ``acc += w * x`` is exactly ``+0.0`` in every
    slot when the product is rounded before the add.  A loop compiled with
    FMA contraction adds the exact product instead and leaves each
    product's rounding error behind — and the weighted form would no longer
    be ``np.add.at``'s sum bit for bit."""
    rng = np.random.default_rng(7)
    n = 100_000
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    w = rng.uniform(1.0, 2.0, n)
    acc = -(w * x)
    ids = np.arange(n, dtype=VID_DTYPE)
    scatter_add_gather(acc, ids, x, ids, w)
    left = np.flatnonzero(acc.view(np.uint64))  # -0.0 counts too
    assert left.size == 0, f"{left.size} of {n} slots kept a rounding error: FMA-contracted"


def test_signed_zeros_subnormals_and_infinities_survive_exactly():
    x = np.array(SPECIALS, VAL_DTYPE)
    ids = np.arange(x.size, dtype=VID_DTYPE)
    for start in (0.0, -0.0):
        acc = np.full(x.size, start)
        want = acc.copy()
        np.add.at(want, ids, x)
        scatter_add_gather(acc, ids, x, ids)
        assert _bits_equal(acc, want)
        assert np.array_equal(np.signbit(acc), np.signbit(want))


# ----------------------------------------------------------------------
# every refused input raises and leaves ``acc`` untouched
# ----------------------------------------------------------------------
N = 8
IDS = np.array([1, 1, 2, 7], VID_DTYPE)


def _ok():
    return np.arange(N, dtype=VAL_DTYPE), IDS.copy(), np.ones(N, VAL_DTYPE), IDS[::-1].copy()


def _frozen(array):
    array.flags.writeable = False
    return array


def _with(**changes):
    """``(acc, dst, x, src, data)`` of an accepted call, some replaced;
    ``data`` is ``None`` (the unweighted form) unless given."""
    acc, dst, x, src = _ok()
    args = {"acc": acc, "dst": dst, "x": x, "src": src, "data": None, **changes}
    return args["acc"], args["dst"], args["x"], args["src"], args["data"]


_BOTH = np.zeros(2 * N, VAL_DTYPE)
REFUSED = {
    "dst past the end": (IndexError, _with(dst=np.array([0, 1, 2, N], VID_DTYPE))),
    "dst negative": (IndexError, _with(dst=np.array([0, -1, 2, 3], VID_DTYPE))),
    "src past the end": (IndexError, _with(src=np.array([N, 1, 2, 3], VID_DTYPE))),
    "src negative": (IndexError, _with(src=np.array([0, 1, 2, -(2**31)], VID_DTYPE))),
    "src fits acc but not a shorter x": (IndexError, _with(x=np.ones(4, VAL_DTYPE))),
    "int64 dst": (TypeError, _with(dst=IDS.astype(np.int64))),
    "uint32 src": (TypeError, _with(src=IDS.astype(np.uint32))),
    "float32 acc": (TypeError, _with(acc=np.zeros(N, np.float32))),
    "float32 x": (TypeError, _with(x=np.ones(N, np.float32))),
    "integer acc": (TypeError, _with(acc=np.zeros(N, np.int64))),
    "read-only acc": (TypeError, _with(acc=_frozen(np.zeros(N, VAL_DTYPE)))),
    "strided acc": (TypeError, _with(acc=np.zeros(2 * N, VAL_DTYPE)[::2])),
    "strided x": (TypeError, _with(x=np.ones(2 * N, VAL_DTYPE)[::2])),
    "strided dst": (TypeError, _with(dst=np.repeat(IDS, 2)[::2])),
    "strided src": (TypeError, _with(src=np.repeat(IDS, 2)[::2])),
    "2-D acc": (TypeError, _with(acc=np.zeros((N, 1), VAL_DTYPE))),
    "2-D ids": (
        TypeError, _with(dst=IDS.reshape(2, 2).copy(), src=IDS.reshape(2, 2).copy()),
    ),
    "lengths differ": (TypeError, _with(src=IDS[:3].copy())),
    "byte-swapped x": (TypeError, _with(x=np.ones(N, ">f8"))),
    "a list for acc": (TypeError, _with(acc=[0.0] * N)),
    "acc is x": (ValueError, _with(acc=_BOTH[:N], x=_BOTH[:N])),
    "acc overlaps x": (ValueError, _with(acc=_BOTH[2 : N + 2], x=_BOTH[:N])),
    # the weighted form's data: float64, one entry per edge, contiguous
    "float32 data": (TypeError, _with(data=np.ones(IDS.size, np.float32))),
    "integer data": (TypeError, _with(data=np.ones(IDS.size, np.int64))),
    "byte-swapped data": (TypeError, _with(data=np.ones(IDS.size, ">f8"))),
    "data too short": (TypeError, _with(data=np.ones(IDS.size - 1))),
    "data too long": (TypeError, _with(data=np.ones(IDS.size + 1))),
    "strided data": (TypeError, _with(data=np.ones(2 * IDS.size)[::2])),
    "2-D data": (TypeError, _with(data=np.ones((IDS.size, 1)))),
    "a list for data": (TypeError, _with(data=[1.0] * IDS.size)),
    "acc overlaps data": (ValueError, _with(acc=_BOTH[:N], data=_BOTH[2 : 2 + IDS.size])),
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_inputs_raise_before_acc_is_touched(case):
    error, (acc, dst, x, src, data) = REFUSED[case]
    before = np.array(acc, copy=True)
    with pytest.raises(error, match="scatter_add_gather"):
        scatter_add_gather(acc, dst, x, src, data)
    assert np.array_equal(np.asarray(acc), before)


def test_an_empty_batch_is_still_type_checked_and_writes_nothing():
    acc, _, x, _ = _ok()
    empty = np.empty(0, VID_DTYPE)
    scatter_add_gather(acc, empty, x, empty)
    assert np.array_equal(acc, np.arange(N))
    with pytest.raises(TypeError):
        scatter_add_gather(acc, np.empty(0, np.int64), x, empty)


# ----------------------------------------------------------------------
# the private symbol's contract, by name
# ----------------------------------------------------------------------
def test_scipy_coo_matvec_is_in_place_ascending_and_multiplies_data():
    """``coo_matvec(nnz, row, col, data, x, y)``: ``y[row[k]] += data[k] *
    x[col[k]]`` for ``k`` ascending, into the ``y`` it was given, over the
    first ``nnz`` entries only."""
    from scipy.sparse._sparsetools import coo_matvec

    row = np.array([0, 0, 0, 1, 1], np.int32)
    col = np.array([0, 1, 2, 2, 0], np.int32)
    data = np.array([1.0, 1.0, 1.0, 3.0, 100.0])
    x = np.array([1e16, 1.0, -1e16])
    y = np.array([0.5, 2.0])
    assert coo_matvec(4, row, col, data, x, y) is None
    # ((0.5 + 1e16) + 1.0) - 1e16 in that order is 0.0: any other order
    # of the three keeps the 1.0 or the 0.5.  y[1] shows data multiplies
    # and that entry 4 (beyond nnz) was not read.
    assert y.tolist() == [0.0, 2.0 + 3.0 * -1e16]
