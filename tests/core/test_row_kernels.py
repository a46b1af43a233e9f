"""The TT, UT and IT batch kernels against per-node ``compute``.

``compute_all`` runs ``_compute_batch``, which for each is one pass over
the targets' CSR out-rows (IT: in-rows): builtin row sums, one vectorised
division or scaling, and a per-row k-th-largest cut before
``Signature.from_relevance``.  Per-node ``compute`` (the scalar
relevance dict) is the reference; every signature must match it entry
for entry, labels by type and weights bit for bit.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheme import create_scheme
from repro.graph.batch import RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph
from repro.graph.stream import EdgeRecord
from repro.graph.windows import SlidingWindowAggregator

#: ``1`` and ``"1"`` are different nodes whose ``str`` forms tie.
PLAIN = ["a", "b", "c", 1, "1", 2.5]
LEFT = ["a", "b", 1]
RIGHT = ["x", "1", 2.5]
WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 0.1, 0.3, 1 / 3, 1e16, 1e-300]),
    st.floats(min_value=0.0, max_value=1e6),
)
SCHEMES = (
    [("tt", {})]
    + [("ut", {"scaling": name}) for name in ("inverse", "sqrt", "tfidf")]
    + [("it", {})]
)


def exact(signature):
    return signature.owner, [
        (node, type(node), struct.pack("<d", weight)) for node, weight in signature.entries
    ]


def assert_kernel_is_per_node(graph, scheme):
    targets = graph.nodes() + ["absent"]
    batch = scheme.compute_all(graph, targets)
    assert list(batch) == targets
    for node in targets:
        assert exact(batch[node]) == exact(scheme.compute(graph, node))


def records_of(srcs, dsts):
    record = st.builds(lambda s, d, w: EdgeRecord(0.0, s, d, w), srcs, dsts, WEIGHT)
    return st.lists(st.lists(record, max_size=14), min_size=1, max_size=5)


@pytest.mark.parametrize("name,params", SCHEMES)
class TestKernelEqualsPerNode:
    @settings(max_examples=60, deadline=None)
    @given(
        buckets=records_of(st.sampled_from(PLAIN), st.sampled_from(PLAIN)),
        window_buckets=st.integers(1, 3),
        k=st.integers(1, 4),
        bipartite=st.booleans(),
    )
    def test_aggregator_windows(self, name, params, buckets, window_buckets, k, bipartite):
        if bipartite:
            # Re-draw each record's ends onto the two sides.
            buckets = [
                [
                    EdgeRecord(0.0, LEFT[PLAIN.index(r.src) % 3], RIGHT[PLAIN.index(r.dst) % 3], r.weight)
                    for r in bucket
                ]
                for bucket in buckets
            ]
        scheme = create_scheme(name, k=k, **params)
        aggregator = SlidingWindowAggregator(window_buckets=window_buckets, bipartite=bipartite)
        for bucket in buckets:
            aggregator.advance(RecordBatch.from_records(bucket, aggregator.labels))
            graph = aggregator.graph
            batch = scheme.compute_all(graph, graph.nodes())
            # The kernel ran on the columns: no dict rows were written.
            assert "_out" not in vars(graph)
            assert graph.cache_info().get("rows") is None
            for node, signature in batch.items():
                assert exact(signature) == exact(scheme.compute(graph, node))

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(
            st.tuples(st.sampled_from(PLAIN), st.sampled_from(PLAIN), WEIGHT), max_size=20
        ),
        data=st.data(),
        k=st.integers(1, 4),
    )
    def test_mutated_dict_graphs(self, name, params, records, data, k):
        graph = CommGraph()
        for src, dst, weight in records:
            graph.add_edge(src, dst, weight)
        for _ in range(data.draw(st.integers(0, 4))):
            edges = [(s, d) for s, d, _ in graph.edges()]
            op = data.draw(st.sampled_from(["set", "decrement", "remove_node"]))
            if op == "set":
                graph.set_edge_weight(
                    data.draw(st.sampled_from(PLAIN)), data.draw(st.sampled_from(PLAIN)), data.draw(WEIGHT)
                )
            elif op == "decrement" and edges:
                graph.decrement_edge(*data.draw(st.sampled_from(edges)), data.draw(WEIGHT))
            elif op == "remove_node" and graph.num_nodes:
                graph.remove_node(data.draw(st.sampled_from(graph.nodes())))
        assert_kernel_is_per_node(graph, create_scheme(name, k=k, **params))

    def test_order_sensitive_row_sum(self, name, params):
        # sum() of [1e16, 1.0, 1.0] is 1e16 left to right, but
        # 1.0000000000000002e16 compensated (Python 3.12+): the kernel
        # sums rows with the same builtin as per-node relevance.
        records = [EdgeRecord(0.0, "a", dst, w) for dst, w in (("x", 1e16), ("y", 1.0), ("z", 1.0))]
        aggregator = SlidingWindowAggregator()
        aggregator.advance(RecordBatch.from_records(records, aggregator.labels))
        assert_kernel_is_per_node(aggregator.graph, create_scheme(name, k=2, **params))

    def test_ties_self_loops_and_bipartite(self, name, params):
        graph = CommGraph(
            [("a", "a", 5.0), ("a", "x", 1.0), ("a", 1, 1.0), ("a", "1", 1.0), ("a", "y", 0.5)]
            + [("b", "x", 1.0), ("c", "x", 2.0), ("c", "a", 2.0)]
        )
        for k in (1, 2, 3, 10):
            assert_kernel_is_per_node(graph, create_scheme(name, k=k, **params))
        sides = BipartiteGraph([("a", "x", 0.1), ("a", "y", 0.2), ("b", "x", 0.7), (1, "1", 3.0)])
        sides.add_left_node("idle")
        assert_kernel_is_per_node(sides, create_scheme(name, k=1, **params))
