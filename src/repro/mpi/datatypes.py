"""Buffer handling for the typed (upper-case) communication API.

The simulated runtime accepts the same buffer specifications as mpi4py's
upper-case methods: a contiguous numpy array, or a ``(array, count)`` /
``(array, count, datatype)`` tuple.  Datatypes are numpy dtypes; automatic
discovery reads them off the array.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import CommError

#: Wildcards, mirroring MPI constants.
ANY_SOURCE: int = -1
ANY_TAG: int = -1

#: Upper bound for user tags (inclusive).  Mirrors a typical MPI_TAG_UB.
TAG_UB: int = 2**20


def check_tag(tag: int, *, allow_any: bool = False) -> int:
    if tag == ANY_TAG:
        if allow_any:
            return tag
        raise CommError("ANY_TAG is only valid on receive operations")
    if not 0 <= tag <= TAG_UB:
        raise CommError(f"tag {tag} outside valid range [0, {TAG_UB}]")
    return tag


def as_array(buf: Any) -> np.ndarray:
    """Resolve a buffer spec to a contiguous 1-D numpy view.

    Accepts an ndarray or an ``(array,)`` / ``(array, count)`` tuple/list.
    The returned view aliases the caller's memory so receives fill it
    in place; a contiguous 1-D array comes back as itself.
    """
    if (
        type(buf) is np.ndarray and buf.ndim == 1
        and buf.flags.c_contiguous and not buf.dtype.hasobject
    ):
        return buf
    count = None
    if isinstance(buf, (tuple, list)):
        if len(buf) == 1:
            (buf,) = buf
        elif len(buf) == 2:
            buf, count = buf
        else:
            raise CommError(
                f"buffer spec must be array or (array, count); got {len(buf)} items"
            )
    arr = np.asarray(buf)
    if arr.dtype == object:
        raise CommError("typed communication requires a non-object dtype")
    if not arr.flags.c_contiguous:
        raise CommError("typed communication requires a C-contiguous buffer")
    flat = arr.reshape(-1)
    if count is not None:
        count = int(count)
        if count < 0 or count > flat.size:
            raise CommError(
                f"count {count} invalid for buffer of {flat.size} elements"
            )
        flat = flat[:count]
    return flat


def nbytes_of(arr: np.ndarray) -> int:
    return int(arr.size) * int(arr.dtype.itemsize)


def object_nbytes(payload: bytes) -> int:
    """Size accounting for pickled-object messages."""
    return len(payload)
