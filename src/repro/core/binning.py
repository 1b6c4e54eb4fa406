"""Key-to-bin assignment (paper §4.2).

Megaphone groups keys into a power-of-two number of *bins*; the bin is the
most-significant bits of the exchange hash (least-significant bits collide in
HashMap-style tables, see the paper's footnote 2). The number of bins is
fixed at startup.

Two assignments are provided:

* ``bin_of_keys`` — MSBs of a splitmix64 hash (the paper's scheme), with
  ``bin_of_key`` its scalar form for one key;
* ``range_bin_of_keys`` — contiguous range partitioning of a dense integer
  key domain, used by the dense-array ("key count") workload so a bin's
  state is a contiguous array slice. Both are static key equivalence
  classes, which is all the mechanism requires.
"""
from __future__ import annotations

import numpy as np


# splitmix64 finaliser constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
_U_GOLDEN, _U_MIX1, _U_MIX2 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def hash_keys(keys: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over int keys (returns uint64).

    The steps run in place on a 1-d copy: uint64 array arithmetic wraps
    silently, whereas NumPy's scalar path (a 0-d input) warns on overflow.
    """
    z = np.asarray(keys).astype(np.uint64).reshape(-1)
    z += _U_GOLDEN
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z.reshape(np.shape(keys))


def bin_of_keys(keys: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin id = most significant ``log2(n_bins)`` bits of the key hash."""
    assert n_bins >= 1 and n_bins & (n_bins - 1) == 0, (
        "bin count must be a power of two"
    )
    if n_bins == 1:
        return np.zeros(len(keys), dtype=np.int64)
    h = hash_keys(keys)
    h >>= np.uint64(65 - int(n_bins).bit_length())
    return h.view(np.int64)  # the shift cleared the sign bit


def bin_of_key(key: int, n_bins: int) -> int:
    """``bin_of_keys`` for one Python int key, in pure-Python arithmetic
    (per-record binning in the NEXMark query bodies)."""
    assert n_bins >= 1 and n_bins & (n_bins - 1) == 0, (
        "bin count must be a power of two"
    )
    z = (key + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) >> (65 - n_bins.bit_length())


def range_bin_of_keys(keys: np.ndarray, n_bins: int, domain: int) -> np.ndarray:
    """Bin id by contiguous key range over a dense [0, domain) key space."""
    width = -(-domain // n_bins)  # ceil
    return (keys // width).astype(np.int64)


def range_bin_bounds(b: int, n_bins: int, domain: int) -> tuple[int, int]:
    """[lo, hi) key range owned by range-partition bin ``b``."""
    width = -(-domain // n_bins)
    return b * width, min(domain, (b + 1) * width)
