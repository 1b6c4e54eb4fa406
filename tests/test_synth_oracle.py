"""Tests of the DuckDB oracle itself (used by count/NEXMark correctness
tests)."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


class TestOracle:
    def test_accepts_equivalent(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        got = spark.createDataFrame(
            pd.DataFrame({"k": [1, 2], "s": [3.0, 3.0]})
        )
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)

    def test_rejects_wrong_result(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        got = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [9.0, 9.0]}))
        with pytest.raises(AssertionError):
            assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)

    def test_rejects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        got = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, "SELECT k FROM t", t=pdf)
