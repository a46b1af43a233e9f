"""The service against a naive reference model, under randomized ingest and
chaos.

Hypothesis drives a :class:`ShardSupervisor` through its ``/ingest``
surface: posts whose times repeat and arrive out of order, duplicate edges,
zero weights, self-loops and non-ASCII labels, posts that straddle window
boundaries, ``window_buckets`` from 1 to 3, shard crashes (rebuilt from the
ingest log) and broken sketch tiers (the shard goes DOWN until ``heal()``).
The model keeps every admitted record as an :class:`EdgeRecord` and, per
shard and window, runs the reference paths: ``canonical_order``, then one
``add_edge`` per retained record (``graph_from_edges``, not the column
builder the shards use) and the scheme's ``compute_all``; and
``observe_records`` per bucket, merged over the window.  Segments must be
SHA-256-equal to the model's, signatures equal, and the sketch tier's
Count-Min, SpaceSaving and Flajolet-Martin state identical.

Weights include non-dyadic values and 1e16 at every ``window_buckets``:
the shards' window graphs are fresh aggregation of the retained buckets,
row order included, so order-sensitive float sums agree too.
"""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.graph.builders import graph_from_edges
from repro.graph.stream import EdgeRecord
from repro.graph.windows import canonical_order
from repro.pipeline.checkpoint import CheckpointStore
from repro.service import ServiceConfig, ServiceFrontend, ShardFaultInjector, ShardSupervisor
from repro.service.config import HEALTH_DOWN
from repro.streaming.hashing import stable_hash64
from repro.streaming.stream_schemes import streaming_builder

NUM_SHARDS = 3
LABELS = ["h0", "h1", "hôte-ü", "节点-7", "emoji-🛰", "ключ"]
WEIGHTS = [0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 1e16]


class ScriptedFaults(ShardFaultInjector):
    """Crash the engine or break the sketch tier at chosen windows."""

    def __init__(self):
        self.crash_at, self.break_at = set(), set()

    def on_apply(self, shard_id, window):
        if window in self.crash_at:
            raise RuntimeError(f"scripted crash of shard {shard_id} at window {window}")

    def on_sketch(self, shard_id, window):
        if window in self.break_at:
            raise RuntimeError(f"scripted sketch failure of shard {shard_id} at window {window}")


@st.composite
def scenarios(draw):
    window_buckets = draw(st.integers(1, 3))
    window_records = draw(st.integers(4, 14))
    row = st.tuples(
        st.integers(0, 5),
        st.sampled_from(LABELS),
        st.sampled_from(LABELS),
        st.sampled_from(WEIGHTS),
        st.booleans(),  # send the row as an object instead of a list
    )
    # A post's rows, then more records on its first row's edge: an edge
    # summed from several weights in an order-sensitive way.
    post = st.tuples(
        st.lists(row, min_size=1, max_size=2 * window_records),
        st.lists(st.sampled_from(WEIGHTS), max_size=3),
    )
    step = st.one_of(
        st.tuples(st.just("post"), post),
        st.tuples(st.sampled_from(["crash", "break", "heal"]), st.integers(0, NUM_SHARDS - 1)),
    )
    return (
        window_buckets,
        window_records,
        draw(st.sampled_from(["tt", "ut"])),
        draw(st.booleans()),  # strictly increasing times: the unsorted path
        draw(st.lists(step, min_size=1, max_size=12)),
    )


def bits(value):
    return type(value), struct.pack("<d", value)


def builder_state(builder):
    state = [
        list(builder._sketches),
        [(s, cm._table.tobytes(), bits(cm.total)) for s, cm in builder._sketches.items()],
        [
            (s, [(e.item, bits(e.count), bits(e.error), e.sequence) for e in ss._entries.values()])
            for s, ss in builder._candidates.items()
        ],
        [(s, bits(v)) for s, v in builder._out_volume.items()],
    ]
    if hasattr(builder, "_indegree"):
        state.append([(d, fm._bitmaps.tobytes()) for d, fm in builder._indegree.items()])
    return state


class Model:
    """Every admitted record, and what the reference paths make of it."""

    def __init__(self, config):
        self.config = config
        self.records = []
        self.windows = 0
        self.down_since = {}  # shard -> first window it did not apply
        self.recovered = {shard: set() for shard in range(NUM_SHARDS)}
        self.scheme = create_scheme(config.scheme, k=config.k)

    def bucket(self, shard, window):
        """The shard's records of ``window`` in canonical order."""
        size = self.config.window_records
        return canonical_order(
            [
                record
                for record in self.records[window * size:(window + 1) * size]
                if stable_hash64(record.src) % NUM_SHARDS == shard
            ]
        )

    def retained(self, shard, window):
        first = max(0, window - self.config.window_buckets + 1)
        return [self.bucket(shard, w) for w in range(first, window + 1)]

    def window(self, shard, window):
        """``(signatures, meta)`` of a shard's window, freshly aggregated."""
        graph = graph_from_edges(
            (r.src, r.dst, r.weight) for part in self.retained(shard, window) for r in part
        )
        signatures = {
            str(node): signature
            for node, signature in self.scheme.compute_all(graph, graph.senders()).items()
        }
        if window in self.recovered[shard]:
            meta = {"shard": shard, "recovered": True}
        else:
            meta = {
                "shard": shard,
                "num_records": len(self.bucket(shard, window)),
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
            }
        return signatures, meta

    def sketch(self, shard, window):
        merged = None
        for part in self.retained(shard, window):
            builder = streaming_builder(
                self.config.scheme,
                k=self.config.k,
                epsilon=self.config.streaming_epsilon,
                delta=self.config.streaming_delta,
                seed=self.config.seed,
            )
            builder.observe_records(part)
            merged = builder if merged is None else merged.merge(builder)
        return merged

    def close_windows(self, faults):
        while len(self.records) >= (self.windows + 1) * self.config.window_records:
            window = self.windows
            for shard in range(NUM_SHARDS):
                if shard in self.down_since:
                    continue
                if window in faults[shard].crash_at:
                    self.recovered[shard].add(window)
                if window in faults[shard].break_at:
                    self.down_since[shard] = window + 1
            self.windows += 1

    def heal(self, shard):
        start = self.down_since.pop(shard, self.windows)
        self.recovered[shard].update(range(start, self.windows))

    def applied(self, shard):
        """Windows the shard's exact engine has applied."""
        return self.down_since.get(shard, self.windows)


def segment_digest(store, window):
    return hashlib.sha256(store.window_path(window).read_bytes()).hexdigest()


def check(supervisor, model, directory):
    for state in supervisor.shards:
        shard = state.shard_id
        applied = model.applied(shard)
        windows = [model.window(shard, w) for w in range(applied)]
        assert state.engine.window == applied - 1
        assert state.engine.signatures == (windows[-1][0] if windows else {})
        assert state.engine.prev_signatures == (windows[-2][0] if applied > 1 else {})
        expected = CheckpointStore(Path(directory) / "model" / f"shard-{shard:02d}")
        for window, (signatures, meta) in enumerate(windows):
            expected.save_window(window, signatures, meta=meta)
            assert segment_digest(state.store, window) == segment_digest(expected, window)
        if state.health != HEALTH_DOWN and model.windows:
            assert state.sketch.window == model.windows - 1
            assert builder_state(state.sketch.current) == builder_state(
                model.sketch(shard, model.windows - 1)
            )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_service_matches_reference_model(scenario):
    window_buckets, window_records, scheme, ordered, steps = scenario
    config = ServiceConfig(
        num_shards=NUM_SHARDS,
        window_records=window_records,
        window_buckets=window_buckets,
        queue_capacity=1 << 20,
        scheme=scheme,
        k=3,
    )
    model = Model(config)
    faults = [ScriptedFaults() for _ in range(NUM_SHARDS)]
    with tempfile.TemporaryDirectory() as directory:
        supervisor = ShardSupervisor(
            config, history_dir=Path(directory) / "service", sleep=lambda _s: None
        )
        frontend = ServiceFrontend(supervisor, config)
        for shard, injector in enumerate(faults):
            supervisor.install_injector(shard, injector)
        for kind, argument in steps:
            if kind == "post":
                rows, repeats = argument
                first = rows[0]
                rows = rows + [(first[0], first[1], first[2], w, first[4]) for w in repeats]
                wire = []
                for time, src, dst, weight, as_object in rows:
                    if ordered:
                        time = len(model.records)
                    record = EdgeRecord(float(time), src, dst, weight)
                    model.records.append(record)
                    wire.append(
                        {"time": time, "src": src, "dst": dst, "weight": weight}
                        if as_object
                        else [time, src, dst, weight]
                    )
                status, _headers, _body = frontend.respond(
                    "POST", "/ingest", json.dumps({"records": wire})
                )
                assert status == 202
                frontend.pump()
                model.close_windows(faults)
            elif kind == "crash":
                faults[argument].crash_at.add(supervisor.window + 1)
            elif kind == "break":
                faults[argument].break_at.add(supervisor.window + 1)
            else:
                supervisor.heal(argument)
                model.heal(argument)
        assert supervisor.window == model.windows - 1
        check(supervisor, model, directory)
        supervisor.close()
