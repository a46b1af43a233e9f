"""Supervision: routing, lockstep windows, restart budget, escalation, heal."""

import dataclasses
import hashlib
import io
import json
import re

import pytest

import repro.service.shard as shard_module
from repro import obs
from repro.exceptions import ShardDown
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.stream import EdgeRecord
from repro.service import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    STATE_CLOSED,
    BreakSketch,
    KillShard,
    ServiceConfig,
    ServiceFrontend,
    ShardSupervisor,
    corrupt_checkpoint,
)
from repro.service.chaos import ShardFaultInjector
from repro.service.supervisor import IngestLog


def as_batch(supervisor, records):
    return RecordBatch.from_records(records, supervisor.labels)


def open_breaker(state):
    """Make the shard's exact tier unavailable to queries."""
    while state.breaker.state == STATE_CLOSED:
        state.breaker.record_failure()


def windows_of(records, size=30):
    return [records[start:start + size] for start in range(0, len(records), size)]


@pytest.fixture
def traffic(records_factory):
    return windows_of(records_factory(120, nodes=12, seed=5))


class TestRouting:
    def test_shard_assignment_is_stable_and_total(self, small_config):
        supervisor = ShardSupervisor(small_config)
        for node in ("h0", "h1", "alice", "10.0.0.1"):
            shard = supervisor.shard_for(node)
            assert 0 <= shard < small_config.num_shards
            assert supervisor.shard_for(node) == shard
            assert supervisor.state_for(node).shard_id == shard

    def test_records_routed_by_source(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        supervisor.ingest(as_batch(supervisor, traffic[0]))
        for state in supervisor.shards:
            for record in state.log.buckets[0].records():
                assert supervisor.shard_for(record.src) == state.shard_id

    def test_lockstep_windows(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        assert supervisor.window == 3
        for state in supervisor.shards:
            assert state.engine.window == 3
            assert supervisor.sketch_tier(state).window == 3
            # The last two buckets: windows 2 and 3.
            assert len(state.log.buckets) == 2 and state.log.base == 1

    def test_shards_cover_all_signatures(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        owned = set()
        for state in supervisor.shards:
            for node in state.engine.signatures:
                assert supervisor.shard_for(node) == state.shard_id
                owned.add(node)
        # Signatures cover the current window's active sources (the
        # population is per-window, exactly as in the pipeline).
        sources = {record.src for record in traffic[-1]}
        assert owned == sources


class TestRecovery:
    def test_crash_recovers_byte_identical(self, small_config, traffic, tmp_path):
        reference = ShardSupervisor(small_config, checkpoint_dir=tmp_path / "ref")
        chaotic = ShardSupervisor(small_config, checkpoint_dir=tmp_path / "chaos")
        chaotic.install_injector(1, KillShard(at_window=2))
        for bucket in traffic:
            reference.ingest(as_batch(reference, bucket))
            chaotic.ingest(as_batch(chaotic, bucket))
        state = chaotic.shards[1]
        assert state.health == HEALTH_HEALTHY
        assert state.restarts == 1
        for ref_state, chaos_state in zip(reference.shards, chaotic.shards):
            assert chaos_state.engine.signatures == ref_state.engine.signatures
            assert chaos_state.engine.prev_signatures == ref_state.engine.prev_signatures

    def test_no_acknowledged_records_lost_across_crash(
        self, small_config, traffic
    ):
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(0, KillShard(at_window=1))
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        ingested = sum(state.records_ingested for state in supervisor.shards)
        assert ingested == sum(len(bucket) for bucket in traffic)

    def test_restart_budget_exhaustion_degrades(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        injector = KillShard(at_window=1, rebuild_failures=100)
        supervisor.install_injector(0, injector)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        state = supervisor.shards[0]
        assert state.health == HEALTH_DEGRADED
        assert state.engine is None
        # Budgeted attempts at the crash window, then one opportunistic
        # attempt per later window.
        assert injector.rebuild_attempts >= small_config.max_restarts + 1
        # Other shards are untouched.
        assert supervisor.shards[1].health == HEALTH_HEALTHY
        assert supervisor.shards[2].health == HEALTH_HEALTHY

    def test_degraded_shard_heals_when_fault_clears(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        # Fail the crash-window budget (1 + max_restarts attempts), then the
        # next window's opportunistic rebuild succeeds.
        injector = KillShard(
            at_window=1, rebuild_failures=small_config.max_restarts + 1
        )
        supervisor.install_injector(0, injector)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        state = supervisor.shards[0]
        assert state.health == HEALTH_HEALTHY
        assert state.engine is not None
        assert state.engine.window == supervisor.window
        # The healed engine serves the same signatures as a clean run.
        reference = ShardSupervisor(small_config)
        for bucket in traffic:
            reference.ingest(as_batch(reference, bucket))
        assert state.engine.signatures == reference.shards[0].engine.signatures

    def test_restart_while_a_shard_lags_keeps_the_fleet_numbering(
        self, records_factory, tmp_path
    ):
        """Regression: a shard DEGRADED when the process died resumed at its
        own last stored window, so the fleet's next windows 6 and 7 were
        applied, reported and stored as its windows 3 and 4.  Every shard
        now resumes at the fleet's window: the lagging store holds 0-2 and
        then 6 and 7, as a run without faults computes them, and 3-5 are
        absent."""
        config = ServiceConfig(num_shards=2, window_records=40, max_restarts=0, k=5)
        buckets = windows_of(records_factory(320, nodes=12, seed=11), size=40)
        reference = ShardSupervisor(config, history_dir=tmp_path / "reference")
        for bucket in buckets:
            reference.ingest(as_batch(reference, bucket))
        first = ShardSupervisor(config, history_dir=tmp_path / "chaotic")
        first.install_injector(0, KillShard(at_window=3, rebuild_failures=99))
        for bucket in buckets[:6]:
            first.ingest(as_batch(first, bucket))
        assert first.shards[0].health == HEALTH_DEGRADED
        first.close()

        restarted = ShardSupervisor(config, history_dir=tmp_path / "chaotic")
        assert restarted.window == 5
        assert [shard["window"] for shard in restarted.status()["shards"]] == [5, 5]
        for bucket in buckets[6:]:
            restarted.ingest(as_batch(restarted, bucket))
        assert [shard["window"] for shard in restarted.status()["shards"]] == [7, 7]
        lagging = restarted.shards[0]
        assert lagging.health == HEALTH_HEALTHY
        assert lagging.store.history.windows() == [0, 1, 2, 6, 7]
        for window in lagging.store.history.windows():
            assert lagging.store.load_window(window) == reference.shards[0].store.load_window(
                window
            )
        assert lagging.engine.signatures == reference.shards[0].engine.signatures
        assert lagging.engine.prev_signatures == reference.shards[0].engine.prev_signatures
        assert restarted.shards[1].store.history.windows() == list(range(8))

    def test_sketch_failure_goes_down_then_heals(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(2, BreakSketch(at_window=1))
        for bucket in traffic[:2]:
            supervisor.ingest(as_batch(supervisor, bucket))
        state = supervisor.shards[2]
        # With the exact tier unavailable, a read builds window 1's tier.
        open_breaker(state)
        with pytest.raises(ShardDown):
            supervisor.sketch_tier(state)
        supervisor.ingest(as_batch(supervisor, traffic[2]))
        assert state.health == HEALTH_DOWN
        # Ingest log keeps accumulating while DOWN...
        assert len(state.log.buckets) == 3
        # ...so an explicit heal rebuilds both tiers completely.
        supervisor.install_injector(2, None)
        assert supervisor.heal(2)
        assert state.health == HEALTH_HEALTHY
        supervisor.ingest(as_batch(supervisor, traffic[3]))
        reference = ShardSupervisor(small_config)
        for bucket in traffic:
            reference.ingest(as_batch(reference, bucket))
        assert state.engine.signatures == reference.shards[2].engine.signatures


    def test_heal_of_down_shard_names_the_global_window(self, small_config, traffic):
        """Regression: healing a DOWN shard rebuilt its sketch tier from the
        retained buckets and numbered it from 0, so a shard left without
        an engine reported window 0 in /status."""
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(2, BreakSketch(at_window=1))
        for bucket in traffic[:2]:
            supervisor.ingest(as_batch(supervisor, bucket))
        state = supervisor.shards[2]
        open_breaker(state)
        with pytest.raises(ShardDown):
            supervisor.sketch_tier(state)
        supervisor.ingest(as_batch(supervisor, traffic[2]))
        assert state.health == HEALTH_DOWN
        # The engine stays unrebuildable: the sketch tier answers alone.
        supervisor.install_injector(2, KillShard(at_window=-1, rebuild_failures=100))
        assert not supervisor.heal(2)
        assert state.engine is None
        assert supervisor.sketch_tier(state).window == supervisor.window == 2
        assert supervisor.status()["shards"][2]["window"] == 2

    def test_ingest_over_healthy_windows_builds_no_sketch(
        self, small_config, traffic, monkeypatch
    ):
        builds = []
        monkeypatch.setattr(
            shard_module, "sketch_window", lambda *args, **kwargs: builds.append(args)
        )
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        assert builds == []
        assert all(state.sketch is None for state in supervisor.shards)

    def test_broken_sketch_does_not_stop_a_serving_exact_tier(
        self, small_config, traffic, registry
    ):
        """The sketch tier is built only for a read the exact tier cannot
        serve, so a scripted sketch failure leaves a healthy shard alone."""
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(2, BreakSketch(at_window=1))
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        state = supervisor.shards[2]
        assert state.health == HEALTH_HEALTHY
        assert state.engine.window == supervisor.window == 3
        assert registry.counter_total("shard.down_transitions") == 0


def churning_window(window, size=30):
    """One window of records from 5 hosts to externals seen only in it."""
    return [
        EdgeRecord(float(index), f"host-{index % 5}", f"ext-{window}-{index % 17}", 1.0 + index % 3)
        for index in range(size)
    ]


def segment_digests(directory):
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*.rseg"))
    }


class TestBoundedMemory:
    def test_log_and_label_table_stay_bounded(self, registry):
        """Over 30 windows of churning labels the logs hold the last two
        windows, and the label table at most twice two labels per retained
        record: it swaps once it passes twice what is live."""
        config = ServiceConfig(num_shards=3, window_records=30, k=5)
        supervisor = ShardSupervisor(config)
        frontend = ServiceFrontend(supervisor, config)
        retained = 2 * config.window_records
        for window in range(30):
            supervisor.ingest(as_batch(supervisor, churning_window(window)))
            frontend.respond("GET", "/metrics")
            gauges = {name: value for name, _labels, value in registry.snapshot()["gauges"]}
            assert gauges["service.ingest_log_bytes"] <= 24 * retained
            assert gauges["service.labels"] <= 4 * retained
        assert supervisor.generation > 0
        for state in supervisor.shards:
            assert len(state.log.buckets) == 2
            assert state.log.end == supervisor.window
        assert sum(state.records_ingested for state in supervisor.shards) == 30 * 30

    def test_ingest_log_is_a_base_and_its_buckets(self):
        assert [f.name for f in dataclasses.fields(IngestLog)] == ["base", "buckets"]
        assert IngestLog().end == -1
        assert IngestLog(base=4, buckets=[RecordBatch.from_records([], LabelTable())] * 2).end == 6

    def test_service_windows_take_no_bucket_count(self):
        with pytest.raises(TypeError):
            ServiceConfig(window_buckets=2)

    @pytest.mark.parametrize("damaged", [3, 7])
    def test_rebuild_over_a_trimmed_log_recomputes_only_logged_windows(
        self, tmp_path, registry, damaged
    ):
        """A log trimmed to base 7 holds windows 8 and 9.  A checkpoint
        damaged at or before window 7, then a crash at window 10, leaves
        the damaged window a reported issue: the rebuild verifies only the
        log's windows, so it loads 8 and 9 and recomputes 10, and every
        window the store holds reads as a run without faults'."""
        config = ServiceConfig(num_shards=3, window_records=30, k=5)
        reference = ShardSupervisor(config, history_dir=tmp_path / "reference")
        chaotic = ShardSupervisor(config, history_dir=tmp_path / "chaotic")
        state = chaotic.shards[1]
        for window in range(11):
            if window == 10:
                corrupt_checkpoint(tmp_path / "chaotic" / "shard-01", window=damaged)
                chaotic.install_injector(1, KillShard(at_window=10))
            for supervisor in (reference, chaotic):
                supervisor.ingest(as_batch(supervisor, churning_window(window)))
            if window == 9:
                assert state.log.base == 7
        assert state.health == HEALTH_HEALTHY
        assert registry.counter_value("shard.checkpoint_issues", shard="1") >= 1
        assert damaged not in state.store.history
        assert state.engine.signatures == reference.shards[1].engine.signatures
        for window in range(11):
            if window != damaged:
                signatures, meta = state.store.load_window(window)
                assert signatures == reference.shards[1].store.load_window(window)[0]
                assert meta.get("recovered", False) == (window == 10)

    def test_down_shard_keeps_its_log_across_generations(self, small_config, tmp_path):
        """A DOWN shard keeps every bucket while the others trim and the
        table swaps; heal() then recovers every window it missed: its
        store holds a run without faults' signatures (the recovered
        windows say so in their meta), and every other store its bytes."""
        reference = ShardSupervisor(small_config, history_dir=tmp_path / "reference")
        chaotic = ShardSupervisor(small_config, history_dir=tmp_path / "chaotic")
        chaotic.install_injector(2, BreakSketch(at_window=1))
        state = chaotic.shards[2]
        for window in range(12):
            for supervisor in (reference, chaotic):
                supervisor.ingest(as_batch(supervisor, churning_window(window)))
            if window == 1:
                open_breaker(state)
                with pytest.raises(ShardDown):
                    chaotic.sketch_tier(state)
        assert state.health == HEALTH_DOWN
        assert chaotic.generation > 0
        assert len(state.log.buckets) == 12 and state.log.base == -1
        assert len(chaotic.shards[0].log.buckets) == 2
        chaotic.install_injector(2, None)
        assert chaotic.heal(2)
        for supervisor in (reference, chaotic):
            supervisor.ingest(as_batch(supervisor, churning_window(12)))
        assert len(state.log.buckets) == 2
        for shard in range(small_config.num_shards):
            name = f"shard-{shard:02d}"
            chaotic_store, reference_store = chaotic.shards[shard].store, reference.shards[shard].store
            if shard != 2:
                assert segment_digests(tmp_path / "chaotic" / name) == segment_digests(
                    tmp_path / "reference" / name
                )
            for window in range(13):
                signatures, meta = chaotic_store.load_window(window)
                assert signatures == reference_store.load_window(window)[0]
                assert meta.get("recovered", False) == (shard == 2 and 2 <= window < 12)


class WindowSpy(ShardFaultInjector):
    """Records what the supervisor publishes while a shard applies a window."""

    def __init__(self, supervisor):
        self.supervisor = supervisor
        self.seen = []

    def on_apply(self, shard_id, window):
        self.seen.append((window, self.supervisor.window, self.supervisor.status()["window"]))


class TestWindowPublication:
    def test_window_published_only_after_every_shard_applied(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        # The last shard applies last: every other shard has applied the
        # new window, and readers must still see the previous one.
        spy = WindowSpy(supervisor)
        supervisor.install_injector(small_config.num_shards - 1, spy)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        assert spy.seen == [(w, w - 1, w - 1) for w in range(len(traffic))]
        assert supervisor.window == len(traffic) - 1

    def test_status_reports_each_shards_own_window(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        # Snapshots around the last shard's apply: before it, every other
        # shard already shows the new window; after it, before the close
        # publishes, the top-level window is no longer behind every shard.
        last = supervisor.shards[-1].engine
        apply, snapshots = last.apply, []

        def poll_around_apply(records):
            snapshots.append(supervisor.status())
            apply(records)
            snapshots.append(supervisor.status())

        last.apply = poll_around_apply
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        others = small_config.num_shards - 1
        for w in range(len(traffic)):
            before, after = snapshots[2 * w], snapshots[2 * w + 1]
            assert [shard["window"] for shard in before["shards"]] == [w] * others + [w - 1]
            assert before["window"] == w - 1
            assert [shard["window"] for shard in after["shards"]] == [w] * (others + 1)
            assert after["window"] == w

    def test_crash_events_name_the_window_being_closed(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        supervisor.install_injector(0, KillShard(at_window=2))
        buffer = io.StringIO()
        with obs.use_event_log(obs.EventLog(buffer)):
            for bucket in traffic:
                supervisor.ingest(as_batch(supervisor, bucket))
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        windows = {
            event["event"]: event["window"]
            for event in events
            if event["event"].startswith("service.shard.")
        }
        assert windows == {"service.shard.crashed": 2, "service.shard.restarted": 2}


class TestStatus:
    def test_status_shape(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        status = supervisor.status()
        assert status["window"] == 3
        assert status["num_shards"] == 3
        for shard in status["shards"]:
            assert shard["health"] == HEALTH_HEALTHY
            assert shard["breaker"] == STATE_CLOSED
            assert shard["window"] == 3
            assert shard["restarts"] == 0

    def test_breaker_state_reported_as_degraded(self, small_config, traffic):
        supervisor = ShardSupervisor(small_config)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        state = supervisor.shards[0]
        for _ in range(4):
            state.breaker.record_failure()
        assert supervisor.shard_health(state) == HEALTH_DEGRADED

    def test_metrics_label_shards(self, small_config, traffic, registry):
        """One registry: each shard's series carries its ``shard`` label."""
        supervisor = ShardSupervisor(small_config)
        frontend = ServiceFrontend(supervisor, small_config)
        for bucket in traffic:
            supervisor.ingest(as_batch(supervisor, bucket))
        _status, _headers, text = frontend.respond("GET", "/metrics")
        windows = dict(
            re.findall(r'^repro_shard_windows_total\{shard="(\d+)"\} (\S+)$', text, re.M)
        )
        assert windows == {"0": "4", "1": "4", "2": "4"}
