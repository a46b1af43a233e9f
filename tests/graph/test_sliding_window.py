"""Sliding-window aggregator and boundary-safe bucketing.

The exactness contract under test: every graph a
:class:`SlidingWindowAggregator` builds is *identical* — same node
order, same edge weights bit-for-bit, the same adjacency-row iteration
order — to fresh aggregation of each window's records, the stateless
:func:`split_records_into_windows` path.
"""

import copy
import random

import pytest

from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import GraphBuilder
from repro.graph.stream import EdgeRecord
from repro.graph.windows import (
    SlidingWindowAggregator,
    bucket_records,
    split_records_into_windows,
    window_index_of,
)


def random_trace(seed, num_windows=6, nodes=16, per_window=30, zero_weight_rate=0.1):
    """A churny trace: edges come and go, weights change, nodes churn."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    records = []
    for window in range(num_windows):
        # A shifting subset of nodes is active each window -> node churn.
        active = rng.sample(names, rng.randint(nodes // 2, nodes))
        for _ in range(per_window):
            src, dst = rng.sample(active, 2)
            weight = 0.0 if rng.random() < zero_weight_rate else rng.uniform(0.1, 5.0)
            records.append(
                EdgeRecord(time=window + rng.random() * 0.9, src=src, dst=dst, weight=weight)
            )
    records.sort()
    return records


def slide(records, num_windows, bipartite=False):
    """The graphs the aggregator builds over the trace's buckets."""
    aggregator, labels = SlidingWindowAggregator(bipartite=bipartite), LabelTable()
    graphs = []
    for bucket in bucket_records(records, num_windows):
        aggregator.advance(RecordBatch.from_records(bucket, labels))
        graphs.append(aggregator.graph)
    return graphs


class TestWindowIndexOf:
    # Regression cases found by randomized search: the naive
    # int((t - start) / width) rounds a record sitting exactly on a
    # float-evaluated boundary into the *earlier* window.
    BOUNDARY_CASES = [
        (0.0, 0.7, 6),  # 6 * 0.7 == 4.199999999999999; naive index = 5
        (84.4421851525048, 0.21201704712207997, 32),
        (0.0, 0.7, 29),
        (49.35778664653247, 0.3, 46),
    ]

    @pytest.mark.parametrize("start,width,index", BOUNDARY_CASES)
    def test_boundary_goes_to_later_window(self, start, width, index):
        boundary = start + index * width
        assert window_index_of(boundary, start, width) == index

    def test_interior_times(self):
        assert window_index_of(0.35, 0.0, 0.7) == 0
        assert window_index_of(1.05, 0.0, 0.7) == 1

    def test_randomized_invariant(self):
        # The returned index must satisfy the half-open interval property
        # against the float-evaluated boundaries themselves.
        rng = random.Random(99)
        for _ in range(500):
            start = rng.uniform(-100, 100)
            width = rng.uniform(0.05, 3.0)
            time = start + rng.uniform(0, 50)
            index = window_index_of(time, start, width)
            assert start + index * width <= time
            assert time < start + (index + 1) * width


class TestSlidingEqualsStateless:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_single_bucket_bitwise_and_row_order(self, seed):
        records = random_trace(seed)
        stateless = split_records_into_windows(records, num_windows=6)
        sliding = slide(records, 6)
        assert len(sliding) == len(stateless)
        for fresh, slid in zip(stateless, sliding):
            assert set(fresh.nodes()) == set(slid.nodes())
            # Same out-rows *in the same iteration order* with bitwise-equal
            # weights: order-sensitive float reductions over the rows must
            # agree across the two construction paths.
            for node in fresh.nodes():
                assert list(fresh.out_neighbors(node).items()) == list(
                    slid.out_neighbors(node).items()
                )
                assert list(fresh.in_neighbors(node).items()) == list(
                    slid.in_neighbors(node).items()
                )

    def test_bipartite_sliding(self):
        rng = random.Random(31)
        records = []
        for window in range(4):
            for _ in range(25):
                records.append(
                    EdgeRecord(
                        time=float(window),
                        src=f"u{rng.randint(0, 7)}",
                        dst=f"t{rng.randint(0, 11)}",
                        weight=rng.uniform(0.5, 2.0),
                    )
                )
        records.sort()
        sliding = slide(records, 4, bipartite=True)
        stateless = split_records_into_windows(records, num_windows=4, bipartite=True)
        for fresh, slid in zip(stateless, sliding):
            assert isinstance(slid, BipartiteGraph)
            assert slid.left_nodes == fresh.left_nodes
            assert slid.right_nodes == fresh.right_nodes
            for node in fresh.nodes():
                assert list(slid.out_neighbors(node).items()) == list(
                    fresh.out_neighbors(node).items()
                )


    def test_takes_no_bucket_count(self):
        with pytest.raises(TypeError):
            SlidingWindowAggregator(window_buckets=2)
        aggregator = SlidingWindowAggregator()
        for gone in ("hold", "relabel", "buckets_held", "labels"):
            assert not hasattr(aggregator, gone), gone


class TestStructuralCopy:
    def test_copy_preserves_row_iteration_order(self):
        # Build order b->z, a->y, a->z: a's row and z's in-row are not in
        # node order.
        builder = GraphBuilder()
        for node in ("a", "z", "b", "y"):
            builder.add_node(node)
        builder.add_edge("b", "z", 2.0)
        builder.add_edge("a", "y", 3.0)
        builder.add_edge("a", "z", 4.0)
        graph = builder.build()
        assert list(graph.in_neighbors("z")) == ["b", "a"]
        clone = copy.deepcopy(graph)
        for node in graph.nodes():
            assert list(clone.out_neighbors(node).items()) == list(
                graph.out_neighbors(node).items()
            )
            assert list(clone.in_neighbors(node).items()) == list(
                graph.in_neighbors(node).items()
            )

    def test_bipartite_copy_keeps_partitions(self):
        graph = BipartiteGraph([("u1", "t1", 1.0), ("u2", "t2", 2.0)])
        clone = copy.deepcopy(graph)
        assert isinstance(clone, BipartiteGraph)
        assert clone.left_nodes == graph.left_nodes
        assert clone.right_nodes == graph.right_nodes


class TestCommonNodes:
    def test_returns_list_in_first_window_order(self):
        records = random_trace(22)
        sequence = split_records_into_windows(records, num_windows=5)
        common = sequence.common_nodes()
        assert isinstance(common, list)
        order = {node: i for i, node in enumerate(sequence[0].nodes())}
        assert common == sorted(common, key=order.__getitem__)
