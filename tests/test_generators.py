"""Checks of the path generators' arguments."""

import pytest

from sfcalc.errors import ValidationError
from sfcalc.generators import involution_path
from sfcalc.tracemodel import WeightedBlockModel

GENERATOR_GUARDS = {
    "minus-dims-count": ([1], "need one minus-dimension per block"),
    "minus-dims-size": ([1, 2], "minus-dimension exceeds the block size"),
}


@pytest.mark.parametrize("case", GENERATOR_GUARDS)
def test_involution_path_refuses_bad_minus_dims(case):
    minus_dims, message = GENERATOR_GUARDS[case]
    with pytest.raises(ValidationError, match=message):
        involution_path(WeightedBlockModel([(2, 1.0), (1, 0.5)]), minus_dims)
