"""Tags and the operand check of the raw typed path.

:meth:`repro.mpi.communicator.Comm.allreduce_buffer` moves numpy
buffers as raw envelopes; :func:`as_array` checks and flattens its
operand.  Datatypes are numpy dtypes, read off the array.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import CommError

#: Upper bound for user tags (inclusive).  Mirrors a typical MPI_TAG_UB.
TAG_UB: int = 2**20


def check_tag(tag: int) -> int:
    if not 0 <= tag <= TAG_UB:
        raise CommError(f"tag {tag} outside valid range [0, {TAG_UB}]")
    return tag


def as_array(buf: Any) -> np.ndarray:
    """Resolve a numpy buffer to a contiguous 1-D view of its memory.

    The operand of a raw typed send must have a non-object dtype and be
    C-contiguous; a contiguous 1-D array comes back as itself.
    """
    if (
        type(buf) is np.ndarray and buf.ndim == 1
        and buf.flags.c_contiguous and not buf.dtype.hasobject
    ):
        return buf
    arr = np.asarray(buf)
    if arr.dtype == object:
        raise CommError("typed communication requires a non-object dtype")
    if not arr.flags.c_contiguous:
        raise CommError("typed communication requires a C-contiguous buffer")
    return arr.reshape(-1)
