"""Raw-buffer operand checks and tag validation."""

import numpy as np
import pytest

from repro.mpi.datatypes import TAG_UB, as_array, check_tag
from repro.mpi.errors import CommError


class TestAsArray:
    def test_plain_array_is_view(self):
        a = np.arange(6.0)
        v = as_array(a)
        v[0] = 99.0
        assert a[0] == 99.0  # no copy: sends snapshot the operand themselves

    def test_2d_flattened(self):
        a = np.ones((2, 3))
        assert as_array(a).shape == (6,)

    def test_object_dtype_rejected(self):
        with pytest.raises(CommError):
            as_array(np.array([{}, {}]))

    def test_non_contiguous_rejected(self):
        a = np.ones((4, 4))[:, ::2]
        with pytest.raises(CommError):
            as_array(a)

    def test_list_input_coerced(self):
        v = as_array([1.0, 2.0])
        assert v.dtype == np.float64
        assert v.tolist() == [1.0, 2.0]


class TestTags:
    def test_valid_range(self):
        assert check_tag(0) == 0
        assert check_tag(TAG_UB) == TAG_UB

    def test_negative_rejected(self):
        with pytest.raises(CommError):
            check_tag(-3)

    def test_above_ub_rejected(self):
        with pytest.raises(CommError):
            check_tag(TAG_UB + 1)

