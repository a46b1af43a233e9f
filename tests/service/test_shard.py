"""Shard engine: apply, checkpointing, rebuild byte-identity; sketch tier."""

import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CheckpointError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.stream import EdgeRecord
from repro.service import ServiceConfig, ShardEngine, SketchTier
from repro.service.chaos import corrupt_checkpoint


def chunk(records, size, labels):
    return [
        RecordBatch.from_records(records[start:start + size], labels)
        for start in range(0, len(records), size)
    ]


@pytest.fixture
def config() -> ServiceConfig:
    return ServiceConfig(num_shards=1, window_records=25, queue_capacity=100, k=5)


@pytest.fixture
def buckets(records_factory):
    """Four 25-record batches interned into one label table."""
    return chunk(records_factory(100, nodes=10, seed=7), 25, LabelTable())


def batch(records):
    return RecordBatch.from_records(records, LabelTable())


class TestApply:
    def test_windows_advance_and_signatures_appear(self, config, buckets):
        engine = ShardEngine(0, config)
        assert engine.window == -1
        for bucket in buckets:
            engine.apply(bucket)
        assert engine.window == 3
        assert engine.signatures
        node = next(iter(engine.signatures))
        # Each read decodes the row afresh: equal, not the same object.
        assert engine.signature(node) == engine.signatures[node]
        assert engine.signature("no-such-node") is None

    def test_apply_is_order_invariant_within_bucket(self, config, buckets):
        forward = ShardEngine(0, config)
        shuffled = ShardEngine(0, config)
        for bucket in buckets:
            forward.apply(bucket)
            shuffled.apply(bucket.take(slice(None, None, -1)))
        assert forward.signatures == shuffled.signatures

    def test_checkpoints_every_window(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        engine = ShardEngine(
            0, config, store=CheckpointStore(tmp_path)
        )
        for bucket in buckets:
            engine.apply(bucket)
        scan = CheckpointStore(tmp_path).scan()
        assert [entry.window for entry in scan.good] == [0, 1, 2, 3]
        assert not scan.issues

    def test_persistence_needs_two_windows(self, config, buckets):
        engine = ShardEngine(0, config)
        engine.apply(buckets[0])
        node = next(iter(engine.signatures))
        assert engine.persistence(node) is None
        engine.apply(buckets[1])
        survivors = [n for n in engine.signatures if n in engine.prev_signatures]
        assert survivors
        value = engine.persistence(survivors[0])
        assert value is not None and 0.0 <= value <= 1.0

    def test_persistence_clamped_when_distance_exceeds_one(
        self, config, buckets, registry, monkeypatch
    ):
        import repro.service.shard as shard_module

        monkeypatch.setattr(
            shard_module, "get_distance", lambda name: lambda a, b: 1.5
        )
        engine = ShardEngine(0, config)
        engine.apply(buckets[0])
        engine.apply(buckets[1])
        survivors = [n for n in engine.signatures if n in engine.prev_signatures]
        assert survivors
        assert engine.persistence(survivors[0]) == 0.0
        assert registry.counter_value("distance.out_of_range", path="shard.persistence") == 1.0

    def test_query_index_matches_signatures(self, config, buckets):
        engine = ShardEngine(0, config)
        for bucket in buckets:
            engine.apply(bucket)
        index = engine.query_index()
        assert len(index) == len(engine.signatures)
        node = next(iter(engine.signatures))
        neighbours = index.query(engine.signatures[node], k=3)
        assert all(owner != node for owner, _score in neighbours)


class TestRebuild:
    def assert_identical(self, rebuilt, reference):
        assert rebuilt.window == reference.window
        assert rebuilt.signatures == reference.signatures
        assert rebuilt.prev_signatures == reference.prev_signatures

    def run_reference(self, config, buckets, store=None):
        engine = ShardEngine(0, config, store=store)
        for bucket in buckets:
            engine.apply(bucket)
        return engine

    def test_rebuild_without_store_recomputes_identically(self, config, buckets):
        reference = self.run_reference(config, buckets)
        rebuilt = ShardEngine(0, config)
        issues = rebuilt.rebuild(buckets)
        assert issues == []
        self.assert_identical(rebuilt, reference)

    def test_rebuild_from_verified_checkpoints(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(
            config, buckets, store=CheckpointStore(tmp_path)
        )
        rebuilt = ShardEngine(
            0, config, store=CheckpointStore(tmp_path)
        )
        issues = rebuilt.rebuild(buckets)
        assert issues == []
        self.assert_identical(rebuilt, reference)
        # The engine keeps working after a checkpoint-loaded rebuild:
        # the next applied window equals the reference's next window.
        extra = buckets[0]
        reference.apply(extra)
        rebuilt.apply(extra)
        self.assert_identical(rebuilt, reference)

    def test_rebuild_detects_and_heals_corrupt_checkpoint(
        self, config, buckets, tmp_path, records_factory
    ):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(config, buckets)
        store = CheckpointStore(tmp_path)
        damaged = self.run_reference(config, buckets, store=store)
        assert damaged.signatures == reference.signatures
        corrupt_checkpoint(tmp_path, window=2)
        rebuilt = ShardEngine(
            0, config, store=CheckpointStore(tmp_path)
        )
        issues = rebuilt.rebuild(buckets)
        assert any("hash verification" in issue for issue in issues)
        self.assert_identical(rebuilt, reference)
        # The store was healed: a fresh scan verifies every window again.
        scan = CheckpointStore(tmp_path).scan()
        assert [entry.window for entry in scan.good] == [0, 1, 2, 3]

    def test_rebuild_with_missing_checkpoint_suffix(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(config, buckets)
        store = CheckpointStore(tmp_path)
        partial = ShardEngine(0, config, store=store)
        for bucket in buckets[:2]:
            partial.apply(bucket)
        # Two windows checkpointed, four ingested: the rebuild loads the
        # verified prefix and recomputes (and persists) the rest.
        rebuilt = ShardEngine(
            0, config, store=CheckpointStore(tmp_path)
        )
        rebuilt.rebuild(buckets)
        self.assert_identical(rebuilt, reference)


class TestRebuildCost:
    """A rebuild produces the last two windows, and with a store every
    unverified one, so its work does not grow with the windows behind it."""

    @pytest.mark.parametrize("with_store", [False, True])
    def test_flat_in_uptime(self, config, records_factory, tmp_path, monkeypatch, with_store):
        from repro.graph import windows
        from repro.pipeline.checkpoint import CheckpointStore

        calls = Counter()
        aggregate, load = windows.aggregate_records, CheckpointStore.load_window

        def counting_aggregate(*args, **kwargs):
            calls["aggregate_records"] += 1
            return aggregate(*args, **kwargs)

        def counting_load(store, window):
            calls["load_window"] += 1
            return load(store, window)

        costs = []
        for num_windows in (3, 12):
            labels = LabelTable()
            buckets = chunk(records_factory(25 * num_windows, nodes=10, seed=num_windows), 25, labels)
            directory = tmp_path / f"windows-{num_windows}"

            def store():
                return CheckpointStore(directory) if with_store else None

            reference = ShardEngine(0, config, store=store())
            for bucket in buckets:
                reference.apply(bucket)
            files = sorted(directory.rglob("*")) if with_store else []
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(windows, "aggregate_records", counting_aggregate)
                patch.setattr(CheckpointStore, "load_window", counting_load)
                rebuilt = ShardEngine(0, config, store=store())
                assert rebuilt.rebuild(buckets) == []
            costs.append(dict(calls))
            assert calls["load_window"] <= 2
            assert rebuilt.window == reference.window == num_windows - 1
            assert rebuilt.signatures == reference.signatures
            assert rebuilt.prev_signatures == reference.prev_signatures
            assert graph_state(rebuilt.aggregator.graph) == graph_state(reference.aggregator.graph)
            # A verified store is read, never rewritten.
            assert (sorted(directory.rglob("*")) if with_store else []) == files
        assert costs[0] == costs[1]


@pytest.mark.parametrize("scheme", ["tt", "ut", "it"])
def test_rebuild_heals_corrupt_checkpoint_per_scheme(records_factory, tmp_path, scheme):
    from repro.pipeline.checkpoint import CheckpointStore

    config = ServiceConfig(
        num_shards=1, window_records=25, queue_capacity=100, k=5, scheme=scheme
    )
    labels = LabelTable()
    buckets = chunk(records_factory(150, nodes=10, seed=3), 25, labels)
    engine = ShardEngine(0, config, store=CheckpointStore(tmp_path))
    for bucket in buckets:
        engine.apply(bucket)
    corrupt_checkpoint(tmp_path, window=1)
    rebuilt = ShardEngine(0, config, store=CheckpointStore(tmp_path))
    assert rebuilt.rebuild(buckets)
    assert rebuilt.signatures == engine.signatures
    assert rebuilt.prev_signatures == engine.prev_signatures


def graph_state(graph):
    """Node order, row orders, weight bits and counts."""

    def bits(value):
        return struct.pack("<d", value)

    return (
        graph.nodes(),
        [[(d, bits(w)) for d, w in graph.out_neighbors(n).items()] for n in graph],
        [[(s, bits(w)) for s, w in graph.in_neighbors(n).items()] for n in graph],
        bits(graph.total_weight),
        graph.num_edges,
    )


class TestRebuildFromLastBuckets:
    """A window's graph is its own bucket's, so an engine rebuilt from the
    last buckets, one or more, is the long-running engine: same graph,
    orders and bits included, and same signatures."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.sampled_from(["tt", "ut", "it"]),
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from("abcd"),
                    st.sampled_from("abcd"),
                    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1e16]),
                ),
                max_size=10,
            ),
            min_size=1,
            max_size=7,
        ),
    )
    def test_matches_long_running_engine(self, tail_length, scheme, rows):
        config = ServiceConfig(
            num_shards=1,
            window_records=10,
            queue_capacity=100,
            scheme=scheme,
            k=3,
        )
        labels = LabelTable()
        buckets = [
            RecordBatch.from_records(
                [EdgeRecord(float(i), src, dst, w) for i, (src, dst, w) in enumerate(bucket)],
                labels,
            )
            for bucket in rows
        ]
        long_running = ShardEngine(0, config)
        for bucket in buckets:
            long_running.apply(bucket)
        tail = buckets[-tail_length:]
        rebuilt = ShardEngine(0, config)
        rebuilt.rebuild(tail, base_window=len(buckets) - len(tail) - 1)
        assert rebuilt.window == long_running.window
        assert graph_state(rebuilt.aggregator.graph) == graph_state(long_running.aggregator.graph)
        assert rebuilt.signatures == long_running.signatures


class TestSketchTier:
    def test_answers_after_one_window(self, config, buckets):
        tier = SketchTier(config, buckets[:1], 0)
        sources = {record.src for record in buckets[0].records()}
        node = next(iter(sources))
        signature = tier.signature(node)
        assert signature is not None
        assert signature.entries
        assert tier.signature("never-seen") is None

    def test_persistence_needs_two_windows(self, config, buckets):
        tier = SketchTier(config, buckets[:1], 0)
        node = next(record.src for record in buckets[0].records())
        assert tier.persistence(node) is None
        tier = SketchTier(config, [buckets[0], buckets[0]], 1)
        value = tier.persistence(node)
        assert value is not None and value == pytest.approx(1.0)

    def test_sliding_window_retention(self, config, records_factory):
        """Each sketch window is one bucket: ``current`` the last and
        ``previous`` the one before, never both."""
        labels = LabelTable()
        only_first = records_factory(20, nodes=4, seed=1)
        log = [
            RecordBatch.from_records(only_first, labels),
            RecordBatch.from_records(records_factory(20, nodes=4, seed=2, start=100.0), labels),
        ]

        def volume(sketch):
            return sum(sketch._out_volume.values())

        def bucket_volume(bucket):
            return float(bucket.weight[bucket.src != bucket.dst].sum())

        tier = SketchTier(config, log, 1)
        assert volume(tier.current) == pytest.approx(bucket_volume(log[1]))
        assert volume(tier.previous) == pytest.approx(bucket_volume(log[0]))
        log.append(
            RecordBatch.from_records(records_factory(20, nodes=4, seed=3, start=200.0), labels)
        )
        tier = SketchTier(config, log, 2)
        # The tier has rolled fully past the first bucket.
        assert tier.window == 2
        assert volume(tier.current) == pytest.approx(bucket_volume(log[2]))
        assert volume(tier.previous) == pytest.approx(bucket_volume(log[1]))

    def test_build_observes_each_window_record_once(self, config, records_factory, monkeypatch):
        """A build sketches each of its two windows with one fresh builder
        that observes that window's records once, in canonical order."""
        from repro.streaming.stream_schemes import StreamingTopTalkers

        observed = []  # (builder, records) per observe_batch call
        original = StreamingTopTalkers.observe_batch

        def counting(self, observed_batch):
            observed.append((self, observed_batch.records()))
            return original(self, observed_batch)

        monkeypatch.setattr(StreamingTopTalkers, "observe_batch", counting)
        labels = LabelTable()
        log = [
            RecordBatch.from_records(
                records_factory(20, nodes=4, seed=i, start=i * 100.0), labels
            )
            for i in range(5)
        ]
        tier = SketchTier(config, log, 4)
        assert len(observed) == 2
        assert {id(builder) for builder, _records in observed} == {
            id(tier.current),
            id(tier.previous),
        }
        by_builder = {id(builder): records for builder, records in observed}
        for builder, window in ((tier.current, log[4:5]), (tier.previous, log[3:4])):
            assert by_builder[id(builder)] == [
                record for bucket in window for record in bucket.canonical().records()
            ]

    def test_persistence_clamped_when_distance_exceeds_one(
        self, config, buckets, registry, monkeypatch
    ):
        """Regression: the sketch tier computed ``1 - distance`` without the
        range clamp the exact path got, so a distance > 1 surfaced as a
        negative persistence in /anomaly responses.  The excursion counts
        on the active registry, as the exact path's does."""
        import repro.service.shard as shard_module

        monkeypatch.setattr(
            shard_module, "get_distance", lambda name: lambda a, b: 1.5
        )
        tier = SketchTier(config, [buckets[0], buckets[0]], 1)
        node = next(record.src for record in buckets[0].records())
        value = tier.persistence(node)
        assert value == 0.0
        assert registry.counter_value("distance.out_of_range", path="sketch.persistence") == 1.0

    def test_ut_scheme_uses_unexpected_talkers(self, buckets):
        from repro.streaming.stream_schemes import StreamingUnexpectedTalkers

        config = ServiceConfig(
            num_shards=1, window_records=25, queue_capacity=100, k=5, scheme="ut"
        )
        tier = SketchTier(config, buckets[:1], 0)
        assert isinstance(tier.current, StreamingUnexpectedTalkers)


@pytest.mark.parametrize("scheme", ["tt", "ut", "it"])
def test_close_builds_no_dict_rows(records_factory, scheme, monkeypatch):
    # The window close runs on the columns: build, never by the per-record
    # fallback, then the row kernel.
    from repro.graph import builders

    def refuse(*args, **kwargs):
        raise AssertionError("a window fell back to the per-record builder")

    monkeypatch.setattr(builders, "graph_from_edges", refuse)
    labels = LabelTable()
    records = records_factory(200, nodes=12, seed=5)
    config = ServiceConfig(
        num_shards=1, window_records=50, queue_capacity=100, k=5, scheme=scheme
    )
    engine = ShardEngine(0, config)
    for start in range(0, len(records), 50):
        engine.apply(RecordBatch.from_records(records[start:start + 50], labels))
    assert engine.window == 3 and engine.signatures
    graph = engine.aggregator.graph
    assert graph.out_neighbors(graph.senders()[0])
