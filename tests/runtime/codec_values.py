"""Exact equality for values that crossed the boundary codec."""

import struct

import numpy as np


def same(a, b) -> bool:
    """``a`` and ``b`` are the same value with the same types and bits:
    floats compare by their IEEE bits (-0.0 is not 0.0, nan is nan),
    arrays and numpy scalars by dtype, shape and bytes, containers
    element by element in order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (np.ndarray, np.generic)):
        return a.dtype == b.dtype and np.shape(a) == np.shape(b) \
            and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b
