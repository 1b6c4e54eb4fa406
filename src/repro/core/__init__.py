"""Megaphone core: binned state, timestamped configuration streams, the F/S
operator pair, and migration strategies (all-at-once / batched / fluid /
optimized)."""
from repro.core.binning import bin_of_key, bin_of_keys, hash_keys
from repro.core.control import ControlUpdate, RoutingTable, ConfigAuthority
from repro.core.operators import MigratableOperator, NativeOperator, StateLogic
from repro.core.strategies import MigrationDriver, migration_moves, rebalance_moves

__all__ = [
    "bin_of_key",
    "bin_of_keys",
    "hash_keys",
    "ControlUpdate",
    "RoutingTable",
    "ConfigAuthority",
    "MigratableOperator",
    "NativeOperator",
    "StateLogic",
    "MigrationDriver",
    "migration_moves",
    "rebalance_moves",
]
