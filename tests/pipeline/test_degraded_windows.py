"""The pipeline's degraded windows against a per-record sketch reference.

A window over its memory budget is answered by the streaming builder of
its scheme, built from the window's records as one column batch.  Each
degraded window must hold exactly the signatures one ``observe`` call per
canonical record builds.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.exceptions import GraphError, StreamingError
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.builders import aggregate_records
from repro.graph.stream import EdgeRecord
from repro.graph.windows import canonical_order
from repro.pipeline import CheckpointStore, IterableRecordSource, PipelineConfig, SignaturePipeline
from repro.pipeline import runner
from repro.pipeline.report import MODE_DEGRADED
from repro.streaming.stream_schemes import streaming_builder

WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.1, 1e16, 3.0]),
    st.floats(min_value=0.0, max_value=1e6),
)


def trace(bipartite):
    """Records at window indices 0..2 in any order; hosts ``h*`` talk to
    externals ``e*``, and to each other (self-loops too) unless bipartite."""
    targets = [f"e{i}" for i in range(5)] + ([] if bipartite else [f"h{i}" for i in range(4)])
    return st.lists(
        st.builds(
            EdgeRecord,
            st.sampled_from([0.0, 1.0, 2.0]),
            st.sampled_from([f"h{i}" for i in range(4)]),
            st.sampled_from(targets),
            WEIGHT,
        ),
        max_size=50,
    )


def run(records, config):
    with tempfile.TemporaryDirectory() as directory:
        pipeline = SignaturePipeline(
            IterableRecordSource(records), CheckpointStore(directory), config
        )
        return pipeline.run()


def reference(records, config):
    """One ``observe`` call per canonical record of the window."""
    builder = streaming_builder(
        config.scheme,
        k=config.k,
        epsilon=config.streaming_epsilon,
        delta=config.streaming_delta,
        seed=config.seed,
    )
    builder.observe_records(canonical_order(records))
    return {str(source): builder.signature(source) for source in builder.sources}


class TestDegradedWindowsEqualObserveLoop:
    @pytest.mark.parametrize("bipartite", [False, True], ids=["general", "bipartite"])
    @pytest.mark.parametrize("scheme", ["tt", "ut"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_signatures(self, scheme, bipartite, data):
        records = data.draw(trace(bipartite))
        config = PipelineConfig(
            scheme=scheme,
            k=3,
            bipartite=bipartite,
            max_memory_cells=1,
        )
        result = run(records, config)
        for window, signatures in enumerate(result.signatures):
            held = [record for record in records if record.time == window]
            report = result.report.windows[window]
            assert report.mode == MODE_DEGRADED or report.num_nodes + report.num_edges <= 1
            assert signatures == reference(held, config)

    def test_order_sensitive_sums(self):
        # 1e16 + 1.0 rounds back to 1e16: only record order gives these sums.
        records = [EdgeRecord(0.0, "a", "x", w) for w in (1e16, 1.0, 1.0, 3.0)]
        records += [EdgeRecord(0.0, "a", "y", 1.0), EdgeRecord(0.0, "b", "x", 2.0)]
        for scheme in ("tt", "ut"):
            config = PipelineConfig(scheme=scheme, k=3, max_memory_cells=1)
            result = run(list(reversed(records)), config)
            assert result.report.degraded_windows == [0]
            assert result.signatures[0] == reference(records, config)


class TestMemoryBudgetCountsRecords:
    """The memory budget is checked against the window's records, before
    any graph is built, and counts the cells that graph would hold."""

    def test_over_budget_window_builds_no_graph(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a window over its memory budget built its graph")

        monkeypatch.setattr(runner, "aggregate_records", refuse)
        records = [EdgeRecord(0.0, "a", "x", 2.0), EdgeRecord(0.0, "b", "x", 1.0)]
        result = run(records, PipelineConfig(scheme="tt", k=3, max_memory_cells=1))
        assert result.report.degraded_windows == [0]
        assert (result.report.windows[0].num_nodes, result.report.windows[0].num_edges) == (3, 2)

    @settings(max_examples=40, deadline=None)
    @given(records=trace(bipartite=False))
    def test_counts_match_the_graph(self, records):
        # Zero weights and self-loops included: the degraded window reports
        # the node and edge counts of the graph an exact window builds.
        def counts(result):
            return [(w.num_nodes, w.num_edges) for w in result.report.windows]

        exact = run(records, PipelineConfig(scheme="tt", k=3))
        degraded = run(records, PipelineConfig(scheme="tt", k=3, max_memory_cells=1))
        assert counts(degraded) == counts(exact)

    def test_bipartite_orientation_break_fails_under_a_budget(self):
        records = [EdgeRecord(0.0, "a", "b", 1.0), EdgeRecord(0.0, "b", "c", 1.0)]
        config = PipelineConfig(k=3, bipartite=True, max_memory_cells=1)
        with pytest.raises(GraphError, match="V1 -> V2"):
            run(records, config)


class TestEqualLabelsShareOneColumn:
    def test_one_and_true_are_one_destination(self):
        # 1 and True compare equal but hash apart.  A degraded window
        # counts them as one destination, as the exact graph does.  (The
        # history store keeps only str labels, so this is the builder a
        # degraded window uses, called directly.)
        records = [EdgeRecord(0.0, "a", 1, 2.0), EdgeRecord(0.0, "a", True, 3.0)]
        config = PipelineConfig(scheme="tt", k=3, max_memory_cells=1)
        with tempfile.TemporaryDirectory() as directory:
            pipeline = SignaturePipeline(
                IterableRecordSource(records), CheckpointStore(directory), config
            )
            builder = pipeline._sketch(RecordBatch.from_records(records, LabelTable()))
            degraded = {source: builder.signature(source) for source in builder.sources}
        exact = create_scheme("tt", k=3).compute(aggregate_records(records), "a")
        assert degraded == {"a": exact}
        assert exact.entries == ((1, 1.0),)
        # One observe per record hashes them to two columns of weight 2 and 3.
        assert reference(records, config)["a"].entries == ((1, 0.4),)


class TestNonFiniteInput:
    def test_nan_weight_row_is_skipped_not_erasing_its_source(self):
        rows = [(0.0, "a", "b", 1.0), (0.0, "a", "c", float("nan")), (0.0, "b", "c", 2.0)]
        source = IterableRecordSource(rows, errors="skip")
        with tempfile.TemporaryDirectory() as directory:
            result = SignaturePipeline(
                source, CheckpointStore(directory), PipelineConfig(scheme="tt", k=3)
            ).run()
        assert result.report.records_rejected == 1
        assert result.signatures[0]["a"].entries == (("b", 1.0),)

    def test_degraded_window_refuses_a_nan_record(self):
        records = [EdgeRecord(0.0, "a", "b", 1.0), EdgeRecord(0.0, "a", "c", float("nan"))]
        with pytest.raises(StreamingError, match="non-negative numbers"):
            run(records, PipelineConfig(scheme="tt", k=3, max_memory_cells=1))
