"""The service against a naive reference model, under randomized ingest and
chaos.

Hypothesis drives a :class:`ShardSupervisor` through its ``/ingest``
surface: posts whose times repeat and arrive out of order, duplicate edges,
zero weights, self-loops and non-ASCII labels, posts that straddle window
boundaries, shard crashes (rebuilt from the ingest log), degraded shards
(every rebuild fails until ``heal()``: reads fall back to the sketch tier),
wedged shards (breaker open: the same fallback), broken sketch builds (the
shard goes DOWN until ``heal()``) and process restarts (a new supervisor on
the same history directory, with DEGRADED and DOWN shards left as they
are; records still queued die with the process).  Most labels churn with
the window index, so the shards trim their ingest logs and the label table
moves through generations while all of this happens.  After every step it
reads ``/signature`` and ``/anomaly`` for every label of the last two
windows.
The model keeps every admitted record as an :class:`EdgeRecord` and, per
shard and window, runs the reference paths: ``canonical_order``, then one
``add_edge`` per record of the window (``graph_from_edges``, not the
column builder the shards use) and the scheme's ``compute_all``; and one
``observe_records`` over the window's records.  Segments must be
SHA-256-equal to the model's, every store must hold exactly the windows
the model says it does, exact answers equal the model's signatures,
approximate answers equal the model's sketch of the shard's published
window, and the sketch tier's Count-Min, SpaceSaving and Flajolet-Martin
state is identical.  A restart resumes every shard at the highest window
any store holds: a shard that lagged never stores the windows it missed,
and the sketch tier only sketches windows the new process ingested.

Weights include non-dyadic values and 1e16: the shards' window graphs are
fresh aggregation of the window's bucket, row order included, so
order-sensitive float sums agree too.
"""

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
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
#: Labels that every window shares, and names whose labels are new in
#: every window (``label_of``).
STABLE = ["h0", "h1", "hôte-ü"]
CHURNING = ["节点-7", "emoji-🛰", "ключ"] + [f"ext-{index}" for index in range(9)]
WEIGHTS = [0.0, 0.5, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 1e16]


class ScriptedFaults(ShardFaultInjector):
    """Crash the engine, degrade the shard or break the sketch tier's build
    at chosen windows.  A degraded shard's rebuilds fail until ``stuck``
    is cleared."""

    def __init__(self):
        self.crash_at, self.degrade_at, self.break_at = set(), set(), set()
        self.stuck = False

    def on_apply(self, shard_id, window):
        if window in self.degrade_at:
            self.stuck = True
        if self.stuck or window in self.crash_at:
            raise RuntimeError(f"scripted crash of shard {shard_id} at window {window}")

    def on_rebuild(self, shard_id):
        if self.stuck:
            raise RuntimeError(f"scripted rebuild failure of shard {shard_id}")

    def on_sketch(self, shard_id, window):
        if window in self.break_at:
            raise RuntimeError(f"scripted sketch failure of shard {shard_id} at window {window}")


@st.composite
def scenarios(draw):
    window_records = draw(st.integers(4, 14))
    label = st.integers(0, len(STABLE) + len(CHURNING) - 1)
    row = st.tuples(
        st.integers(0, 5),
        label,
        label,
        st.sampled_from(WEIGHTS),
        st.booleans(),  # send the row as an object instead of a list
    )
    # A post's rows, then more records on its first row's edge: an edge
    # summed from several weights in an order-sensitive way.
    post = st.tuples(
        st.lists(row, min_size=1, max_size=3 * window_records),
        st.lists(st.sampled_from(WEIGHTS), max_size=3),
    )
    # Posts weigh double, so windows close often enough to swap tables.
    step = st.one_of(
        st.tuples(st.just("post"), post),
        st.tuples(st.just("post"), post),
        st.tuples(
            st.sampled_from(["crash", "degrade", "break", "heal", "wedge", "restart"]),
            st.integers(0, NUM_SHARDS - 1),
        ),
    )
    return (
        window_records,
        draw(st.sampled_from(["tt", "ut"])),
        draw(st.booleans()),  # strictly increasing times: the unsorted path
        draw(st.lists(step, min_size=1, max_size=20)),
    )


def label_of(index, window):
    """Pool label ``index`` as sent in ``window``."""
    if index < len(STABLE):
        return STABLE[index]
    return f"{CHURNING[index - len(STABLE)]}·{window}"


def labels_near(window):
    """Every label the last two windows up to ``window`` can hold."""
    names = range(len(STABLE), len(STABLE) + len(CHURNING))
    return STABLE + [label_of(index, w) for w in (window - 1, window) for index in names]


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
        self.lag_since = {}  # DEGRADED or DOWN shard -> first window it did not apply
        self.down = set()  # shards that are DOWN
        self.recovered = {shard: set() for shard in range(NUM_SHARDS)}
        self.missing = {shard: set() for shard in range(NUM_SHARDS)}  # lost at a restart
        self.wedged = set()  # shards whose breaker is open for good
        self.built = {}  # shard -> window of its cached sketch tier
        self.base = -1  # the window the running process restored
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

    def graph(self, shard, window):
        """The window's graph, freshly aggregated."""
        return graph_from_edges((r.src, r.dst, r.weight) for r in self.bucket(shard, window))

    def signatures(self, shard, window):
        """A closed window's signatures."""
        if (shard, window) not in self._signatures:
            graph = self.graph(shard, window)
            self._signatures[shard, window] = {
                str(node): signature
                for node, signature in self.scheme.compute_all(graph, graph.senders()).items()
            }
        return self._signatures[shard, window]

    def stored(self, shard, window):
        """Whether the shard's store holds ``window``."""
        return 0 <= window < self.applied(shard) and window not in self.missing[shard]

    def served(self, shard, window):
        """The signatures the shard's engine holds for ``window``: none for
        a window its store lacks."""
        return self.signatures(shard, window) if self.stored(shard, window) else {}

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
        over its records; ``None`` when the running process did not
        ingest it."""
        if window <= self.base:
            return None
        if (shard, window) not in self._sketches:
            builder = streaming_builder(
                self.config.scheme,
                k=self.config.k,
                epsilon=self.config.streaming_epsilon,
                delta=self.config.streaming_delta,
                seed=self.config.seed,
            )
            builder.observe_records(self.bucket(shard, window))
            self._sketches[shard, window] = builder
        return self._sketches[shard, window]

    def sketches(self, shard):
        """The sketch tier's ``(current, previous)`` at the published window."""
        window = self.windows - 1
        return self.sketch(shard, window), self.sketch(shard, window - 1)

    def close_windows(self, faults):
        while len(self.records) >= (self.windows + 1) * self.config.window_records:
            window = self.windows
            for shard in range(NUM_SHARDS):
                if shard in self.lag_since:
                    continue
                if window in faults[shard].degrade_at:
                    self.lag_since[shard] = window
                elif window in faults[shard].crash_at:
                    self.recovered[shard].add(window)
            self.windows += 1

    def heal(self, shard):
        self.built.pop(shard, None)
        self.down.discard(shard)
        start = self.lag_since.pop(shard, self.windows)
        self.recovered[shard].update(range(start, self.windows))

    def restart(self):
        """A new process resumes every shard at the highest window any
        store holds: a lagging shard loses the windows up to it, and the
        windows after it, with what was queued, are gone.  Breakers and
        sketch tiers start afresh, and every shard is HEALTHY."""
        restored = max(
            [-1]
            + [w for shard in range(NUM_SHARDS) for w in range(self.windows) if self.stored(shard, w)]
        )
        for shard, start in self.lag_since.items():
            self.missing[shard].update(range(start, restored + 1))
        del self.records[(restored + 1) * self.config.window_records:]
        self.windows = restored + 1
        self.base = restored
        self.lag_since.clear()
        self.down.clear()
        self.wedged.clear()
        self.built.clear()
        # Windows after ``restored`` close again, over other records.
        self._signatures.clear()
        self._sketches.clear()

    def applied(self, shard):
        """Windows the shard's exact engine has applied."""
        return self.lag_since.get(shard, self.windows)

    def read(self, node, endpoint, faults):
        """The ``(status, document fields)`` a read of ``node`` must get.

        A DEGRADED or wedged shard answers from the sketch of its published
        window, built on the first such read of the window; a scripted
        failure of that build marks the shard DOWN.
        """
        shard = stable_hash64(node) % NUM_SHARDS
        window = self.windows - 1
        if shard in self.down:
            return 503, {}
        if shard not in self.wedged and shard not in self.lag_since:
            now = self.served(shard, window).get(node)
            prev = self.served(shard, window - 1).get(node)
            return self._answer(endpoint, window, False, now, prev)
        if self.built.get(shard) != window:
            if window in faults[shard].break_at:
                self.down.add(shard)
                self.lag_since.setdefault(shard, self.windows)
                return 503, {}
            self.built[shard] = window
        current, previous = self.sketches(shard)
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
    for node in labels_near(model.windows - 1):
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
        if state.engine is not None:
            assert state.engine.window == applied - 1
            assert state.engine.signatures == model.served(shard, applied - 1)
            assert state.engine.prev_signatures == model.served(shard, applied - 2)
        stored = [window for window in range(applied) if model.stored(shard, window)]
        assert state.store.history.windows() == stored
        expected = CheckpointStore(Path(directory) / "model" / f"shard-{shard:02d}")
        for window in stored:
            signatures, meta = model.window(shard, window)
            expected.history.append([(window, signatures)], metas={window: meta})
            assert segment_digest(state.store, window) == segment_digest(expected, window)
        if state.health != HEALTH_DOWN:
            # The on-demand tier, read directly (faults are uninstalled).
            tier = supervisor.sketch_tier(state)
            assert tier.window == model.windows - 1
            for built, want in zip((tier.current, tier.previous), model.sketches(shard)):
                assert (built is None) == (want is None)
                if want is not None:
                    assert builder_state(built) == builder_state(want)


def run_scenario(scenario):
    """Drive one scenario against the model; returns the label-table
    generations the service went through, and the model."""
    window_records, scheme, ordered, steps = scenario
    config = ServiceConfig(
        num_shards=NUM_SHARDS,
        window_records=window_records,
        queue_capacity=1 << 20,
        scheme=scheme,
        k=3,
    )
    model = Model(config)
    faults = [ScriptedFaults() for _ in range(NUM_SHARDS)]
    generations = 0
    with tempfile.TemporaryDirectory() as directory:

        def start():
            # A frozen clock: an opened breaker never half-opens.
            supervisor = ShardSupervisor(
                config,
                history_dir=Path(directory) / "service",
                clock=lambda: 0.0,
                sleep=lambda _s: None,
            )
            for shard, injector in enumerate(faults):
                supervisor.install_injector(shard, injector)
            return supervisor, ServiceFrontend(supervisor, config)

        supervisor, frontend = start()
        for kind, argument in steps:
            if kind == "post":
                rows, repeats = argument
                first = rows[0]
                rows = rows + [(first[0], first[1], first[2], w, first[4]) for w in repeats]
                wire = []
                for time, src, dst, weight, as_object in rows:
                    window = len(model.records) // window_records
                    src, dst = label_of(src, window), label_of(dst, window)
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
            elif kind == "degrade":
                faults[argument].degrade_at.add(supervisor.window + 1)
            elif kind == "break":
                faults[argument].break_at.add(supervisor.window + 1)
            elif kind == "wedge":
                breaker = supervisor.shards[argument].breaker
                while breaker.state == STATE_CLOSED:
                    breaker.record_failure()
                model.wedged.add(argument)
            elif kind == "heal":
                faults[argument].stuck = False
                assert supervisor.heal(argument)
                model.heal(argument)
            else:
                # The process dies with its DEGRADED and DOWN shards as
                # they are; the new one's engines rebuild normally, and a
                # fault scripted for a window it rolls back is gone.
                generations += supervisor.generation
                supervisor.close()
                supervisor, frontend = start()
                for injector in faults:
                    injector.stuck = False
                    for armed in (injector.crash_at, injector.degrade_at, injector.break_at):
                        armed.difference_update([w for w in armed if w > supervisor.window])
                model.restart()
            read_all(frontend, model, faults)
        assert supervisor.window == model.windows - 1
        for shard in range(NUM_SHARDS):
            supervisor.install_injector(shard, None)
        check(supervisor, model, directory)
        supervisor.close()
    return generations + supervisor.generation, model


def test_service_matches_reference_model():
    """Every generated scenario matches the model, and label tables really
    move through generations in the generated scenarios."""
    generations = []

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios())
    def matches(scenario):
        generations.append(run_scenario(scenario)[0])
        event(f"label-table generations: {min(generations[-1], 3)}{'+' * (generations[-1] > 3)}")

    matches()
    # Counted over the run: some generated scenarios swap (about one in
    # ten to one in four, by the events above).
    assert any(generations), generations


def posts(count, start=0):
    """``count`` one-row posts over the label pool, sources cycling."""
    pool = len(STABLE) + len(CHURNING)
    return [
        ("post", ([(index, index % pool, (index + 1) % pool, WEIGHTS[index % 9], False)], []))
        for index in range(start, start + count)
    ]


@pytest.mark.parametrize("scheme", ["tt", "ut"])
@pytest.mark.parametrize(
    "faults,lost",
    [
        # Shard 0 DEGRADED from window 2 and shard 1 DOWN from window 3
        # when the process dies at window 4; after the restart shard 0
        # crashes once, and its rebuild reads a store with a gap.
        (
            [("degrade", 0), ("wedge", 1), ("break", 1)],
            {0: {2, 3, 4}, 1: {3, 4}, 2: set()},
        ),
        # Every shard lags: the fleet resumes at the highest stored window,
        # and the windows after it close again over new records.
        ([("degrade", 0), ("degrade", 1), ("degrade", 2)], {0: set(), 1: set(), 2: set()}),
    ],
    ids=["some-shards-lag", "every-shard-lags"],
)
def test_restart_while_shards_lag(scheme, faults, lost):
    """A restart with lagging shards, scripted: each store keeps the
    fleet's window numbers and never holds a window the shard missed."""
    steps = (
        posts(8) + faults + posts(12, 8) + [("restart", 0)]
        + posts(8, 20) + [("crash", 0)] + posts(8, 28)
    )
    _generations, model = run_scenario((4, scheme, True, steps))
    assert model.missing == lost
    assert model.base == (4 if any(lost.values()) else 1)
    assert model.recovered[0] and not model.lag_since


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
