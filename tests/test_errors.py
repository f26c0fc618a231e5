import math

import numpy as np
import pytest

from softgrasp import InvalidInputError
from softgrasp.errors import finite


class TestValueChecks:
    @pytest.mark.parametrize("bounds, rule", [
        ({}, "finite"),
        ({"above": 0.0}, "> 0"),
        ({"least": 0.0}, ">= 0"),
        ({"above": 0.0, "below": 0.5}, "> 0 and < 0.5"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_names_the_bounds(self, bounds, rule, value):
        with pytest.raises(InvalidInputError, match=f"^x must be {rule}$"):
            finite(value, "x", **bounds)

    def test_bounds(self):
        assert finite(0.0, "x", least=0.0) == 0.0
        for value, bounds in ((0.0, {"above": 0.0}), (-1e-300, {"least": 0.0}), (0.5, {"below": 0.5})):
            with pytest.raises(InvalidInputError):
                finite(value, "x", **bounds)

    @pytest.mark.parametrize("value", ["1.5", b"1", None, [1.0, 2.0], 10 ** 400])
    def test_not_a_float(self, value):
        with pytest.raises(InvalidInputError, match="^x must be a finite number"):
            finite(value, "x")

    def test_converts_to_float(self):
        for value in (2, np.float32(2.0), np.int64(2), np.array(2.0)):
            out = finite(value, "x", above=0.0)
            assert type(out) is float and out == 2.0
