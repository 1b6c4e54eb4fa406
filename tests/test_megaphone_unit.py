"""Focused unit tests of the F/S mechanism, mirroring the paper's Figure 4
walk-through: buffering while the control frontier lags, migration
initiation gated on the S-output probe, capability holding, and pending
records travelling with their bin."""
import numpy as np
import pytest

from repro.core.binning import range_bin_of_keys
from repro.core.control import ConfigAuthority, ControlUpdate
from repro.core.operators import MigratableOperator
from repro.core.strategies import initial_assignment
from repro.microbench.count import CountLogic
from repro.timely.cost import CostModel
from repro.timely.engine import Batch, Ctx, InputHandle, Simulation

W, BINS, DOMAIN = 4, 16, 1024
MS = 1_000_000  # ns per tick at tick=1ms


class Rig:
    """Hand-driven F/S rig: we control the inputs tick by tick."""

    def __init__(self):
        self.cost = CostModel(
            workers=W, workers_per_process=2, jitter_sigma=0.0, spike_prob=0.0
        )
        self.sim = Simulation(self.cost)
        self.data = InputHandle(self.sim, "data")
        self.control = InputHandle(self.sim, "control")
        assign = initial_assignment(BINS, W)
        self.authority = ConfigAuthority(BINS, assign)
        self.logics = []

        def mk(w):
            lg = CountLogic(
                w, scaled_keys=DOMAIN, n_bins=BINS, bin_nbytes=1e6, assignment=assign
            )
            self.logics.append(lg)
            return lg

        self.mo = MigratableOperator(
            self.sim,
            "c",
            n_bins=BINS,
            initial_assignment=assign,
            logic_factory=mk,
            c_record=100e-9,
            data_input=self.data,
            control_input=self.control,
            bin_fn=lambda k: range_bin_of_keys(k, BINS, DOMAIN),
            authority=self.authority,
        )

    def tick(self, n=1):
        for _ in range(n):
            self.sim.step_tick()

    def now_ns(self):
        return self.sim.tick_index * MS

    def send_keys(self, keys, worker=0):
        t = self.now_ns()
        self.data.send(
            worker,
            Batch(
                time=t,
                data={"k": np.array(keys, dtype=np.int64)},
                arrivals=np.full(len(keys), self.sim.tick_index * 1e-3),
                nbytes=8.0 * len(keys),
            ),
        )

    def advance_both(self):
        t1 = self.now_ns() + MS
        self.data.advance_to(t1)
        self.control.advance_to(t1)

    def total_counts(self):
        return sum(lg.counts.sum() for lg in self.logics)

    def owner_of_bin(self, b):
        return [w for w, lg in enumerate(self.logics) if b in lg.owned]


class TestBuffering:
    def test_records_buffered_while_control_frontier_lags(self):
        r = Rig()
        # control epoch stays at 0: configuration at the records' time is
        # uncertain, F must buffer (Fig 4a)
        r.send_keys([1, 2, 3])
        r.data.advance_to(r.now_ns() + MS)
        r.tick()
        assert r.total_counts() == 0
        f0 = r.mo.f_op.instances[0]
        assert len(f0.buffer) == 1

    def test_buffered_records_flow_once_control_advances(self):
        r = Rig()
        r.send_keys([1, 2, 3])
        r.advance_both()
        r.tick(2)
        assert r.total_counts() == 3

    def test_s_frontier_held_by_buffered_data(self):
        r = Rig()
        r.send_keys([5])
        r.data.advance_to(r.now_ns() + MS)
        r.tick()
        # probe cannot pass the buffered record's time
        assert not r.mo.probe.passed(0)


class TestMigrationInitiation:
    def test_state_and_ownership_move(self):
        r = Rig()
        key = 0  # bin 0, worker 0
        r.send_keys([key] * 4)
        r.advance_both()
        r.tick(2)
        assert r.owner_of_bin(0) == [0]
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 3)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 3)]))
        r.advance_both()
        r.tick(3)
        for _ in range(5):
            r.advance_both()
            r.tick()
        assert r.owner_of_bin(0) == [3]
        # counts preserved: installed at the new owner
        assert r.logics[3].counts[key] == 4

    def test_records_at_migration_time_go_to_new_owner(self):
        r = Rig()
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 2)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        r.send_keys([0, 0])  # same timestamp as the migration
        r.advance_both()
        for _ in range(6):
            r.advance_both()
            r.tick()
        # applied at worker 2 (configuration at time t_mig), counted once
        assert r.logics[2].counts[0] == 2
        assert r.total_counts() == 2

    def test_capability_held_until_state_shipped(self):
        r = Rig()
        t_mig = r.now_ns()
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        # control frontier not advanced past t_mig: update uncertain, the
        # pending update holds the F (and thus S) frontier at t_mig
        r.data.advance_to(r.now_ns() + 5 * MS)
        r.tick()
        assert not r.mo.probe.passed(t_mig)

    def test_noop_update_to_same_worker_is_not_a_migration(self):
        r = Rig()
        t = r.now_ns()
        r.control.send(0, Batch(time=t, data=[ControlUpdate(t, 0, 0)]))
        r.advance_both()
        r.tick(2)
        assert not r.mo.shared.migrations


class TestPendingRecordsMigrate:
    def test_notificator_entries_travel_with_bin(self):
        """A record buffered for the future (post-dated beyond the data
        frontier) must migrate with its bin and be applied at the new
        owner (the paper's P(t) = state + pending records)."""
        r = Rig()
        # record at a future time: S enqueues it as pending
        t_future = r.now_ns() + 3 * MS
        r.data.send(
            0,
            Batch(
                time=t_future,
                data={"k": np.array([0], dtype=np.int64)},
                arrivals=np.array([r.sim.tick_index * 1e-3]),
                nbytes=8.0,
            ),
        )
        r.advance_both()
        r.tick()
        # migrate bin 0 at a time before t_future
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 1)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 1)]))
        for _ in range(6):
            r.advance_both()
            r.tick()
        assert r.owner_of_bin(0) == [1]
        assert r.logics[1].counts[0] == 1  # applied at the new owner
        assert r.total_counts() == 1


class TestUninstallBin:
    """``uninstall_bin`` bins all pending records in one call; the result
    must equal a per-batch scan of the notificator."""

    @staticmethod
    def rows(entries):
        return [
            (t, b.data["k"].tolist(), None if b.arrivals is None else b.arrivals.tolist())
            for t, b in entries
        ]

    def test_moves_exactly_the_bins_records(self):
        r = Rig()
        s0 = r.mo.s_op.instances[0]
        width = DOMAIN // BINS  # range binning: bin = key // width
        pending = [
            (5 * MS, [0, 300, 1, 650, 2], [0.1, 0.2, 0.3, 0.4, 0.5]),  # mixed
            (3 * MS, [width * 4, 5], [0.6, 0.7]),  # mixed, earlier time
            (4 * MS, [7], None),  # one-row timer batches, bin 0 ...
            (4 * MS, [width * 8], None),  # ... another bin
            (5 * MS, [3], None),
            (6 * MS, [width, width * 2], [0.8, 0.9]),  # nothing of bin 0
        ]
        batches = [
            Batch(
                time=t,
                data={"k": np.array(keys, dtype=np.int64)},
                arrivals=None if arr is None else np.array(arr),
            )
            for t, keys, arr in pending
        ]
        for b in batches:
            s0.notif.notify_at(b.time, b)
        # reference: scan each batch on its own, in (time, insertion) order
        want_moved, want_kept = [], []
        for _, _, b in sorted((b.time, i, b) for i, b in enumerate(batches)):
            in_bin = b.data["k"] // width == 0
            for dest, sel in ((want_moved, in_bin), (want_kept, ~in_bin)):
                if sel.any():
                    dest.append((b.time, b.take(sel)))

        _, _, moved = s0.uninstall_bin(0)
        assert self.rows(moved) == self.rows(want_moved)
        assert self.rows(s0.notif.drain_all()) == self.rows(want_kept)
        assert sorted(k for _, ks, _ in self.rows(moved) for k in ks) == [0, 1, 2, 3, 5, 7]

    def test_empty_notificator(self):
        r = Rig()
        s0 = r.mo.s_op.instances[0]
        _, _, moved = s0.uninstall_bin(0)
        assert moved == [] and len(s0.notif) == 0


class TestApplyCharge:
    """S charges ``c_record`` per applied row, whether the row is data or a
    post-dated timer row (timer batches carry no arrivals)."""

    @staticmethod
    def rows(k, arrivals):
        # k rows of bin 0, which worker 0 owns, with a second column
        return Batch(
            time=0,
            data={"k": np.arange(k, dtype=np.int64), "v": np.zeros(k, dtype=np.int64)},
            arrivals=np.zeros(k) if arrivals else None,
        )

    def test_timer_rows_charged_per_row(self):
        for batches in (
            [self.rows(5, arrivals=False)],  # timer-only
            [self.rows(2, arrivals=True), self.rows(3, arrivals=False)],  # mixed
        ):
            r = Rig()  # jitter off
            s0 = r.mo.s_op.instances[0]
            for b in batches:
                s0.notif.notify_at(b.time, b)
            ctx = Ctx(r.sim, 0, 0.0)
            s0._apply_ripe(ctx, None)
            assert ctx.now == pytest.approx(5 * r.mo.c_record)
