"""Structured-Streaming-style micro-batch engine with migratable keyed state.

This is the Spark-native rendering of Megaphone's mechanism (DESIGN.md,
layering): the paper's contribution is a runtime state-migration mechanism,
so it is expressed as DataFrame→DataFrame transformations rather than a
Catalyst rule:

* **State** is a Spark DataFrame ``(worker, bin, key, cnt)`` persisted and
  hash-partitioned by ``worker`` — the stand-in for per-executor state
  stores.
* **Routing** is the configuration function ``bin -> worker`` (a numpy
  table, broadcast to the plan as a small dimension DataFrame each batch) —
  Megaphone's F operator.
* **A micro-batch** pre-aggregates the input per (bin, key), routes it by
  the current configuration, and merges it into the state (S + L).
* **A migration step** rewrites the routing for a subset of bins and
  physically moves exactly those bins' state rows through a
  ``repartition(worker)`` shuffle, materialised before the batch's data
  processing — all-at-once ships every moved bin in one batch, fluid one
  bin per batch.

Wall-clock time per micro-batch is the observed service latency; the
strategies differ only in how many bins each batch moves, which is the
paper's experiment. Results are oracle-checked per strategy
(tests/test_spark_engine.py).
"""
from __future__ import annotations

import time
from typing import Optional

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core.binning import bin_of_keys


class SparkMigratableCount:
    """Keyed streaming count with migratable binned state on Spark."""

    def __init__(
        self,
        spark: SparkSession,
        *,
        n_workers: int = 8,
        n_bins: int = 64,
    ):
        assert n_bins % n_workers == 0 or n_bins >= n_workers
        self.spark = spark
        self.n_workers = n_workers
        self.n_bins = n_bins
        self.routing = np.arange(n_bins, dtype=np.int64) % n_workers
        self.state: Optional[DataFrame] = None

    # -- routing -----------------------------------------------------------
    def _routing_df(self) -> DataFrame:
        pdf = pd.DataFrame(
            {"bin": np.arange(self.n_bins), "worker": self.routing}
        )
        return F.broadcast(self.spark.createDataFrame(pdf))

    def set_routing(self, moves: list[tuple[int, int]]) -> None:
        for b, w in moves:
            assert 0 <= w < self.n_workers
            self.routing[b] = w

    # -- state movement (Megaphone's F extracting + reshipping bins) -------
    def migrate(self, moves: list[tuple[int, int]]) -> dict:
        """Move the state of ``moves``' bins to their new workers.

        Only the moved bins' rows are extracted, re-routed and re-shuffled;
        untouched state stays in place. Returns movement metrics.
        """
        if not moves or self.state is None:
            self.set_routing(moves or [])
            return {"moved_rows": 0, "moved_bins": 0}
        moved_bins = [int(b) for b, _ in moves]
        self.set_routing(moves)
        is_moved = F.col("bin").isin(moved_bins)
        moved = (
            self.state.filter(is_moved)
            .drop("worker")
            .join(self._routing_df(), "bin")
            .select("worker", "bin", "key", "cnt")
            .repartition(self.n_workers, "worker")
            .persist()
        )
        moved_rows = moved.count()  # materialise the physical transfer
        kept = self.state.filter(~is_moved)
        old = self.state
        self.state = kept.unionByName(moved)
        old.unpersist()
        return {"moved_rows": moved_rows, "moved_bins": len(moved_bins)}

    # -- data path ---------------------------------------------------------
    def process_batch(
        self, keys: np.ndarray, moves: Optional[list[tuple[int, int]]] = None
    ) -> dict:
        """One micro-batch: optional migration step, then state update.

        Returns wall-clock metrics: total batch seconds, migration seconds,
        rows moved, and resulting state rows.
        """
        t0 = time.perf_counter()
        mig = self.migrate(moves or [])
        t_mig = time.perf_counter() - t0

        upd_pdf = (
            pd.DataFrame({"key": keys})
            .assign(bin=lambda d: bin_of_keys(d.key.to_numpy(), self.n_bins))
            .groupby(["bin", "key"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        updates = (
            self.spark.createDataFrame(upd_pdf[["bin", "key", "cnt"]])
            .join(self._routing_df(), "bin")
            .select("worker", "bin", "key", "cnt")
        )
        merged = self.state.unionByName(updates) if self.state is not None else updates
        new_state = (
            merged.groupBy("worker", "bin", "key")
            .agg(F.sum("cnt").alias("cnt"))
            .repartition(self.n_workers, "worker")
            .persist()
            .localCheckpoint(eager=True)
        )
        state_rows = new_state.count()
        old = self.state
        self.state = new_state
        if old is not None:
            old.unpersist()
        return {
            "batch_s": time.perf_counter() - t0,
            "migration_s": t_mig,
            "moved_rows": mig["moved_rows"],
            "moved_bins": mig["moved_bins"],
            "state_rows": state_rows,
        }

    # -- inspection --------------------------------------------------------
    def counts_pandas(self) -> pd.DataFrame:
        """Final (key, cnt) state — for the DuckDB oracle."""
        assert self.state is not None
        return self.state.groupBy("key").agg(F.sum("cnt").alias("cnt")).toPandas()

    def placement_pandas(self) -> pd.DataFrame:
        """(worker, bin) placement — to assert the Migration property."""
        assert self.state is not None
        return self.state.select("worker", "bin").distinct().toPandas()
