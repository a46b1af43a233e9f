"""Shard engine: apply, checkpointing, rebuild byte-identity; sketch tier."""

import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CheckpointError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.delta import WindowDelta
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
        engine = ShardEngine(0, config, labels=buckets[0].labels)
        assert engine.window == -1
        for bucket in buckets:
            engine.apply(bucket)
        assert engine.window == 3
        assert engine.signatures
        node = next(iter(engine.signatures))
        assert engine.signature(node) is engine.signatures[node]
        assert engine.signature("no-such-node") is None

    def test_apply_is_order_invariant_within_bucket(self, config, buckets):
        forward = ShardEngine(0, config, labels=buckets[0].labels)
        shuffled = ShardEngine(0, config, labels=buckets[0].labels)
        for bucket in buckets:
            forward.apply(bucket)
            shuffled.apply(bucket.take(slice(None, None, -1)))
        assert forward.signatures == shuffled.signatures

    def test_checkpoints_every_window(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        engine = ShardEngine(
            0, config, labels=buckets[0].labels, store=CheckpointStore(tmp_path)
        )
        for bucket in buckets:
            engine.apply(bucket)
        scan = CheckpointStore(tmp_path).scan()
        assert [entry.window for entry in scan.good] == [0, 1, 2, 3]
        assert not scan.issues

    def test_persistence_needs_two_windows(self, config, buckets):
        engine = ShardEngine(0, config, labels=buckets[0].labels)
        engine.apply(buckets[0])
        node = next(iter(engine.signatures))
        assert engine.persistence(node) is None
        engine.apply(buckets[1])
        survivors = [n for n in engine.signatures if n in engine.prev_signatures]
        assert survivors
        value = engine.persistence(survivors[0])
        assert value is not None and 0.0 <= value <= 1.0

    def test_persistence_clamped_when_distance_exceeds_one(
        self, config, buckets, monkeypatch
    ):
        import repro.service.shard as shard_module

        monkeypatch.setattr(
            shard_module, "get_distance", lambda name: lambda a, b: 1.5
        )
        engine = ShardEngine(0, config, labels=buckets[0].labels)
        engine.apply(buckets[0])
        engine.apply(buckets[1])
        survivors = [n for n in engine.signatures if n in engine.prev_signatures]
        assert survivors
        assert engine.persistence(survivors[0]) == 0.0
        assert engine.registry.counter_total("distance.out_of_range") == 1.0

    def test_query_index_matches_signatures(self, config, buckets):
        engine = ShardEngine(0, config, labels=buckets[0].labels)
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
        engine = ShardEngine(0, config, labels=buckets[0].labels, store=store)
        for bucket in buckets:
            engine.apply(bucket)
        return engine

    def test_rebuild_without_store_recomputes_identically(self, config, buckets):
        reference = self.run_reference(config, buckets)
        rebuilt = ShardEngine(0, config, labels=buckets[0].labels)
        issues = rebuilt.rebuild(buckets)
        assert issues == []
        self.assert_identical(rebuilt, reference)

    def test_rebuild_from_verified_checkpoints(self, config, buckets, tmp_path):
        from repro.pipeline.checkpoint import CheckpointStore

        reference = self.run_reference(
            config, buckets, store=CheckpointStore(tmp_path)
        )
        rebuilt = ShardEngine(
            0, config, labels=buckets[0].labels, store=CheckpointStore(tmp_path)
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
            0, config, labels=buckets[0].labels, store=CheckpointStore(tmp_path)
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
        partial = ShardEngine(0, config, labels=buckets[0].labels, store=store)
        for bucket in buckets[:2]:
            partial.apply(bucket)
        # Two windows checkpointed, four ingested: the rebuild loads the
        # verified prefix and recomputes (and persists) the rest.
        rebuilt = ShardEngine(
            0, config, labels=buckets[0].labels, store=CheckpointStore(tmp_path)
        )
        rebuilt.rebuild(buckets)
        self.assert_identical(rebuilt, reference)


class TestRebuildCost:
    """A rebuild produces the last two windows, and with a store every
    unverified one, so its work does not grow with the windows behind it."""

    @pytest.mark.parametrize("with_store", [False, True])
    @pytest.mark.parametrize("window_buckets", [1, 2, 3])
    def test_flat_in_uptime(
        self, records_factory, tmp_path, monkeypatch, window_buckets, with_store
    ):
        from repro.graph import windows
        from repro.pipeline.checkpoint import CheckpointStore

        config = ServiceConfig(
            num_shards=1,
            window_records=25,
            window_buckets=window_buckets,
            queue_capacity=100,
            k=5,
        )
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

            reference = ShardEngine(0, config, labels=labels, store=store())
            for bucket in buckets:
                reference.apply(bucket)
            files = sorted(directory.rglob("*")) if with_store else []
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(windows, "aggregate_records", counting_aggregate)
                patch.setattr(CheckpointStore, "load_window", counting_load)
                rebuilt = ShardEngine(0, config, labels=labels, store=store())
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
def test_close_and_rebuild_never_diff_windows(records_factory, tmp_path, monkeypatch, scheme):
    from repro.pipeline.checkpoint import CheckpointStore

    def diff(cls, old, new):
        raise AssertionError("a shard diffed two windows")

    monkeypatch.setattr(WindowDelta, "from_graphs", classmethod(diff))
    config = ServiceConfig(
        num_shards=1, window_records=25, window_buckets=2, queue_capacity=100, k=5, scheme=scheme
    )
    labels = LabelTable()
    buckets = chunk(records_factory(150, nodes=10, seed=3), 25, labels)
    engine = ShardEngine(0, config, labels=labels, store=CheckpointStore(tmp_path))
    for bucket in buckets:
        engine.apply(bucket)
    corrupt_checkpoint(tmp_path, window=1)
    rebuilt = ShardEngine(0, config, labels=labels, store=CheckpointStore(tmp_path))
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
    """A window's graph depends only on its own buckets, so an engine
    rebuilt from the last ``window_buckets`` of them is the long-running
    engine: same graph, orders and bits included, and same signatures."""

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
    def test_matches_long_running_engine(self, window_buckets, scheme, rows):
        config = ServiceConfig(
            num_shards=1,
            window_records=10,
            window_buckets=window_buckets,
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
        long_running = ShardEngine(0, config, labels=labels)
        for bucket in buckets:
            long_running.apply(bucket)
        tail = buckets[-window_buckets:]
        rebuilt = ShardEngine(0, config, labels=labels)
        rebuilt.rebuild(tail, base_window=len(buckets) - len(tail) - 1)
        assert rebuilt.window == long_running.window
        assert graph_state(rebuilt.aggregator.graph) == graph_state(long_running.aggregator.graph)
        assert rebuilt.signatures == long_running.signatures


class TestSketchTier:
    def test_answers_after_one_window(self, config, buckets):
        tier = SketchTier(config)
        tier.advance(buckets[0])
        sources = {record.src for record in buckets[0].records()}
        node = next(iter(sources))
        signature = tier.signature(node)
        assert signature is not None
        assert signature.entries
        assert tier.signature("never-seen") is None

    def test_persistence_needs_two_windows(self, config, buckets):
        tier = SketchTier(config)
        tier.advance(buckets[0])
        node = next(record.src for record in buckets[0].records())
        assert tier.persistence(node) is None
        tier.advance(buckets[0])
        value = tier.persistence(node)
        assert value is not None and value == pytest.approx(1.0)

    def test_sliding_window_retention(self, records_factory):
        config = ServiceConfig(
            num_shards=1, window_records=25, window_buckets=2, queue_capacity=100, k=5
        )
        tier = SketchTier(config)
        only_first = records_factory(20, nodes=4, seed=1)
        tier.advance(batch(only_first))
        tier.advance(batch(records_factory(20, nodes=4, seed=2, start=100.0)))
        # One bucket later the first window's records are still retained...
        assert tier.signature(only_first[0].src) is not None
        tier.advance(batch(records_factory(20, nodes=4, seed=3, start=200.0)))
        # ...and the window has rolled fully past the first bucket.
        assert tier.window == 2

    def test_advance_merges_instead_of_reobserving(self, records_factory):
        config = ServiceConfig(
            num_shards=1, window_records=25, window_buckets=3, queue_capacity=100, k=5
        )
        tier = SketchTier(config)
        for i in range(5):
            tier.advance(batch(records_factory(20, nodes=4, seed=i, start=i * 100.0)))
        # 0 merges for the first bucket, 1 for the second, 2 per advance
        # once the three-bucket window is full.
        assert tier.registry.counter_total("sketch.merges") == 1 + 2 + 2 + 2

    def test_each_record_observed_exactly_once(self, records_factory, monkeypatch):
        """The tentpole contract: advancing re-observes nothing — each
        record enters exactly one bucket builder, and windows are built by
        sketch merging (the old path re-read every retained record)."""
        from repro.streaming.stream_schemes import StreamingTopTalkers

        observed = []  # (builder, records) per observe_batch call
        original = StreamingTopTalkers.observe_batch

        def counting(self, observed_batch):
            observed.append((self, observed_batch.records()))
            return original(self, observed_batch)

        monkeypatch.setattr(StreamingTopTalkers, "observe_batch", counting)
        config = ServiceConfig(
            num_shards=1, window_records=25, window_buckets=3, queue_capacity=100, k=5
        )
        tier = SketchTier(config)
        buckets = []
        for i in range(5):
            buckets.append(records_factory(20, nodes=4, seed=i, start=i * 100.0))
            tier.advance(batch(buckets[-1]))
        # One fresh builder per bucket, fed exactly that bucket's records.
        assert len({id(builder) for builder, _records in observed}) == len(buckets)
        assert [sorted(records) for _builder, records in observed] == [
            sorted(bucket) for bucket in buckets
        ]

    def test_persistence_clamped_when_distance_exceeds_one(
        self, config, buckets, monkeypatch
    ):
        """Regression: the sketch tier computed ``1 - distance`` without the
        range clamp the exact path got, so a distance > 1 surfaced as a
        negative persistence in /anomaly responses."""
        import repro.service.shard as shard_module
        from repro import obs

        monkeypatch.setattr(
            shard_module, "get_distance", lambda name: lambda a, b: 1.5
        )
        tier = SketchTier(config)
        tier.advance(buckets[0])
        tier.advance(buckets[0])
        node = next(record.src for record in buckets[0].records())
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            value = tier.persistence(node)
        assert value == 0.0
        assert registry.counter_total("distance.out_of_range") == 1.0

    def test_ut_scheme_uses_unexpected_talkers(self, buckets):
        from repro.streaming.stream_schemes import StreamingUnexpectedTalkers

        config = ServiceConfig(
            num_shards=1, window_records=25, queue_capacity=100, k=5, scheme="ut"
        )
        tier = SketchTier(config)
        tier.advance(buckets[0])
        assert isinstance(tier.current, StreamingUnexpectedTalkers)


@pytest.mark.parametrize("scheme", ["tt", "ut", "it"])
def test_close_builds_no_dict_rows(records_factory, scheme):
    # The window close runs on the columns: build, then the row kernel.
    labels = LabelTable()
    records = records_factory(200, nodes=12, seed=5)
    config = ServiceConfig(
        num_shards=1, window_records=50, queue_capacity=100, k=5, scheme=scheme
    )
    engine = ShardEngine(0, config, labels=labels)
    for start in range(0, len(records), 50):
        engine.apply(RecordBatch.from_records(records[start:start + 50], labels))
    assert engine.window == 3 and engine.signatures
    assert engine.registry.counter_value("matrix_cache.misses", key="rows") == 0
    graph = engine.aggregator.graph
    assert "_out" not in vars(graph)
    # The first use of the rows writes them, and the counter shows it.
    assert graph.out_neighbors(graph.senders()[0])
    assert graph.cache_info()["rows"] == {"hits": 0, "misses": 1}
