"""The service against a naive reference model, under randomized ingest and
chaos.

Hypothesis drives a :class:`ShardSupervisor` through its ``/ingest``
surface: posts whose times repeat and arrive out of order, duplicate edges,
zero weights, self-loops and non-ASCII labels, posts that straddle window
boundaries, ``window_buckets`` from 1 to 3, shard crashes (rebuilt from the
ingest log), wedged shards (breaker open: reads fall back to the sketch
tier) and broken sketch builds (the shard goes DOWN until ``heal()``).
After every step it reads ``/signature`` and ``/anomaly`` for every label.
The model keeps every admitted record as an :class:`EdgeRecord` and, per
shard and window, runs the reference paths: ``canonical_order``, then one
``add_edge`` per retained record (``graph_from_edges``, not the column
builder the shards use) and the scheme's ``compute_all``; and one
``observe_records`` over the window's retained records.  Segments must be
SHA-256-equal to the model's, exact answers equal the model's signatures,
approximate answers equal the model's sketch of the shard's published
window, and the sketch tier's Count-Min, SpaceSaving and Flajolet-Martin
state is identical.

Weights include non-dyadic values and 1e16 at every ``window_buckets``:
the shards' window graphs are fresh aggregation of the retained buckets,
row order included, so order-sensitive float sums agree too.
"""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pipeline.runner as runner_module
from repro.core.distances import get_distance
from repro.core.scheme import create_scheme
from repro.graph.batch import RecordBatch
from repro.graph.builders import graph_from_edges
from repro.graph.stream import EdgeRecord
from repro.graph.windows import canonical_order
from repro.pipeline import IterableRecordSource, PipelineConfig, SignaturePipeline
from repro.pipeline.checkpoint import CheckpointStore
from repro.service import (
    STATE_CLOSED,
    ServiceConfig,
    ServiceFrontend,
    ShardFaultInjector,
    ShardSupervisor,
)
from repro.service.config import HEALTH_DOWN
from repro.streaming.hashing import stable_hash64
from repro.streaming.stream_schemes import streaming_builder

NUM_SHARDS = 3
LABELS = ["h0", "h1", "hôte-ü", "节点-7", "emoji-🛰", "ключ"]
WEIGHTS = [0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 1e16]


class ScriptedFaults(ShardFaultInjector):
    """Crash the engine or break the sketch tier's build at chosen windows."""

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
        st.tuples(
            st.sampled_from(["crash", "break", "heal", "wedge"]),
            st.integers(0, NUM_SHARDS - 1),
        ),
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
        self.wedged = set()  # shards whose breaker is open for good
        self.built = {}  # shard -> window of its cached sketch tier
        self.scheme = create_scheme(config.scheme, k=config.k)
        self.distance = get_distance(config.distance)
        self._signatures = {}
        self._sketches = {}

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

    def graph(self, shard, window):
        """The window's graph, freshly aggregated."""
        return graph_from_edges(
            (r.src, r.dst, r.weight) for part in self.retained(shard, window) for r in part
        )

    def signatures(self, shard, window):
        """A closed window's signatures."""
        if (shard, window) not in self._signatures:
            graph = self.graph(shard, window)
            self._signatures[shard, window] = {
                str(node): signature
                for node, signature in self.scheme.compute_all(graph, graph.senders()).items()
            }
        return self._signatures[shard, window]

    def window(self, shard, window):
        """``(signatures, meta)`` of a shard's window."""
        if window in self.recovered[shard]:
            meta = {"shard": shard, "recovered": True}
        else:
            graph = self.graph(shard, window)
            meta = {
                "shard": shard,
                "num_records": len(self.bucket(shard, window)),
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
            }
        return self.signatures(shard, window), meta

    def sketch(self, shard, window):
        """The one-pass sketch of a closed window: one ``observe_records``
        over its retained records, bucket by bucket; ``None`` before
        window 0."""
        if window < 0:
            return None
        if (shard, window) not in self._sketches:
            builder = streaming_builder(
                self.config.scheme,
                k=self.config.k,
                epsilon=self.config.streaming_epsilon,
                delta=self.config.streaming_delta,
                seed=self.config.seed,
            )
            builder.observe_records(r for part in self.retained(shard, window) for r in part)
            self._sketches[shard, window] = builder
        return self._sketches[shard, window]

    def close_windows(self, faults):
        while len(self.records) >= (self.windows + 1) * self.config.window_records:
            window = self.windows
            for shard in range(NUM_SHARDS):
                if shard not in self.down_since and window in faults[shard].crash_at:
                    self.recovered[shard].add(window)
            self.windows += 1

    def heal(self, shard):
        self.built.pop(shard, None)
        start = self.down_since.pop(shard, self.windows)
        self.recovered[shard].update(range(start, self.windows))

    def applied(self, shard):
        """Windows the shard's exact engine has applied."""
        return self.down_since.get(shard, self.windows)

    def read(self, node, endpoint, faults):
        """The ``(status, document fields)`` a read of ``node`` must get.

        A wedged shard answers from the sketch of its published window,
        built on the first such read of the window; a scripted failure of
        that build marks the shard DOWN.
        """
        shard = stable_hash64(node) % NUM_SHARDS
        window = self.windows - 1
        if shard in self.down_since:
            return 503, {}
        if shard not in self.wedged:
            now = self.signatures(shard, window).get(node) if window >= 0 else None
            prev = self.signatures(shard, window - 1).get(node) if window >= 1 else None
            return self._answer(endpoint, window, False, now, prev)
        if self.built.get(shard) != window:
            if window in faults[shard].break_at:
                self.down_since[shard] = self.windows
                return 503, {}
            self.built[shard] = window
        current, previous = self.sketch(shard, window), self.sketch(shard, window - 1)
        now = current.signature(node) if current and node in current.sources else None
        prev = previous.signature(node) if previous and node in previous.sources else None
        return self._answer(endpoint, window, True, now, prev)

    def _answer(self, endpoint, window, approximate, now, prev):
        if endpoint == "signature":
            if now is None:
                return 404, {"approximate": approximate}
            signature = {str(dst): weight for dst, weight in now.entries}
            return 200, {"window": window, "approximate": approximate, "signature": signature}
        persistence = None
        if now is not None and prev is not None:
            persistence = min(1.0, max(0.0, 1.0 - self.distance(prev, now)))
        return 200, {"window": window, "approximate": approximate, "persistence": persistence}


def read_all(frontend, model, faults):
    for node in LABELS:
        for endpoint in ("signature", "anomaly"):
            want_status, want = model.read(node, endpoint, faults)
            status, _headers, body = frontend.respond("GET", f"/{endpoint}/{node}")
            assert status == want_status, (node, endpoint, body)
            document = json.loads(body)
            assert {key: document[key] for key in want} == want, (node, endpoint)


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
        if state.health != HEALTH_DOWN:
            # The on-demand tier, read directly (faults are uninstalled).
            tier = supervisor.sketch_tier(state)
            assert tier.window == model.windows - 1
            for built, want in (
                (tier.current, model.sketch(shard, model.windows - 1)),
                (tier.previous, model.sketch(shard, model.windows - 2)),
            ):
                assert (built is None) == (want is None)
                if want is not None:
                    assert builder_state(built) == builder_state(want)


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
        # A frozen clock: an opened breaker never half-opens.
        supervisor = ShardSupervisor(
            config,
            history_dir=Path(directory) / "service",
            clock=lambda: 0.0,
            sleep=lambda _s: None,
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
            elif kind == "wedge":
                breaker = supervisor.shards[argument].breaker
                while breaker.state == STATE_CLOSED:
                    breaker.record_failure()
                model.wedged.add(argument)
            else:
                supervisor.heal(argument)
                model.heal(argument)
            read_all(frontend, model, faults)
        assert supervisor.window == model.windows - 1
        for shard in range(NUM_SHARDS):
            supervisor.install_injector(shard, None)
        check(supervisor, model, directory)
        supervisor.close()


@pytest.mark.parametrize("scheme", ["tt", "ut"])
def test_pipeline_and_service_sketch_a_window_alike(records_factory, tmp_path, monkeypatch, scheme):
    """At W = 1 a window's records give the same builder state through
    the pipeline's degraded path and through a one-shard service tier."""
    records = records_factory(60, nodes=8, seed=11)
    built, sketch_window = [], runner_module.sketch_window

    def spy(*args, **kwargs):
        built.append(sketch_window(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner_module, "sketch_window", spy)
    pipeline = SignaturePipeline(
        IterableRecordSource(records),
        CheckpointStore(tmp_path / "pipeline"),
        PipelineConfig(scheme=scheme, k=3, num_windows=1, max_memory_cells=1),
    )
    assert pipeline.run().report.degraded_windows == [0]

    config = ServiceConfig(
        num_shards=1, window_records=len(records), queue_capacity=len(records), scheme=scheme, k=3
    )
    supervisor = ShardSupervisor(config)
    supervisor.ingest(RecordBatch.from_records(records, supervisor.labels))
    tier = supervisor.sketch_tier(supervisor.shards[0])
    assert len(built) == 1 and tier.previous is None
    assert builder_state(tier.current) == builder_state(built[0])


@pytest.mark.parametrize(
    "scheme,params",
    [
        ("tt", {}),
        ("ut", {}),
        ("it", {}),
        ("rwr", {"reset_probability": 0.1, "max_hops": 3}),
        ("rwr", {"reset_probability": 0.1, "max_hops": None}),
    ],
    ids=["tt", "ut", "it", "rwr-h3", "rwr"],
)
def test_pipeline_and_service_compute_a_window_alike(records_factory, tmp_path, scheme, params):
    """A one-window pipeline run and a one-shard service (W = 1) compute
    the same exact signature for every owner of the same records."""
    records = records_factory(400, nodes=40, seed=5)
    pipeline = SignaturePipeline(
        IterableRecordSource(records),
        CheckpointStore(tmp_path / "pipeline"),
        PipelineConfig(scheme=scheme, k=5, scheme_params=params, num_windows=1),
    )
    computed = pipeline.run().signatures[0]

    config = ServiceConfig(
        num_shards=1,
        window_records=len(records),
        queue_capacity=len(records),
        scheme=scheme,
        k=5,
        scheme_params=params,
    )
    supervisor = ShardSupervisor(config)
    supervisor.ingest(RecordBatch.from_records(records, supervisor.labels))
    served = supervisor.shards[0].engine.signatures
    supervisor.close()
    assert len(computed) == 40
    assert {owner: sig.entries for owner, sig in served.items()} == {
        owner: sig.entries for owner, sig in computed.items()
    }
