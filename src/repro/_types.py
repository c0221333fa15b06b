"""Shared dtype and typing conventions for the whole library.

The paper stores vertex ids in 32-bit words (``bv`` bytes per vertex id)
and edge-list indices in wider words (``be`` bytes per index).  We mirror
that convention: vertex ids are ``int32`` and CSR/CSC index arrays are
``int64`` so graphs with more than 2**31 edges are representable.
"""

from __future__ import annotations

import numpy as np

#: dtype of vertex identifiers.
VID_DTYPE = np.int32

#: dtype of edge-array offsets (CSR/CSC ``index`` arrays).
EID_DTYPE = np.int64

#: dtype of per-vertex floating point attributes (ranks, distances, ...).
VAL_DTYPE = np.float64

#: bytes per vertex id, the paper's ``bv``.
BYTES_PER_VID = 4

#: bytes per edge index, the paper's ``be``.
BYTES_PER_EID = 8

#: Sentinel used for "no parent" / "unreached" in integer algorithms.
NO_VERTEX = np.int32(-1)


def as_vid_array(values, *, copy: bool = False) -> np.ndarray:
    """Coerce ``values`` to a 1-D contiguous array of vertex ids."""
    arr = np.asarray(values, dtype=VID_DTYPE)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if copy:
        arr = arr.copy()
    return np.ascontiguousarray(arr)
