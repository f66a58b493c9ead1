"""The one rule that turns a log-probability into a probability."""

import math
import sys

import pytest

from twoscale.errors import _LOG_HUGE, ParamError, _exp_of_log


class TestExpOfLog:
    def test_nan_is_refused(self):
        with pytest.raises(ParamError, match="sum to NaN"):
            _exp_of_log(math.nan)

    def test_infinite_logs(self):
        assert _exp_of_log(math.inf) == math.inf
        assert _exp_of_log(-math.inf) == 0.0

    def test_the_float_maximum(self):
        # log rounds _LOG_HUGE by up to half an ulp (5.7e-14), which exp keeps.
        assert math.isclose(_exp_of_log(_LOG_HUGE), sys.float_info.max, rel_tol=1e-13)
        assert _exp_of_log(math.nextafter(_LOG_HUGE, math.inf)) == math.inf

    def test_underflow_is_exp_s(self):
        # Between log(5e-324) ~ -744.44 and -745.13 exp rounds to the smallest
        # subnormal; below that it reads 0.0.
        assert _exp_of_log(-744.5) == 5e-324
        assert _exp_of_log(-746.0) == 0.0
