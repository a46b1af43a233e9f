"""The TT, UT, IT and RWR batch kernels against the definitions.

``compute_all`` runs ``_compute_batch``, the one implementation of each
scheme: for the row kernels one pass over the targets' CSR out-rows (IT:
in-rows), ``math.fsum`` row totals and one vectorised division or
scaling; for RWR a power iteration over walk blocks.  Every kernel hands
its candidates to ``top_k_pack``, the one ranker.  On every input, in
process and through a shm engine:

- **Values.** With ``k`` at the node count (every candidate kept), each
  owner's signature matches the ``Fraction`` reference of
  ``test_exact_reference.py`` within the bounds its docstring states.
  Unbounded RWR has no exact reference; its signature is the owner's
  ``_iterate`` column, walked alone, ranked by the rule below.
- **Ranking.** Each signature is the first ``k`` of that full signature
  under the explicit rule: weight descending, then ``str(label)``, then
  row position (labels by type, weights bit for bit).
- **One implementation.** ``compute`` is the owner's row of the batch,
  and the pack's fields are ``SignaturePack.from_signatures`` of its
  own rows.

Two domains of ROADMAP item 2 are left out of the value check, each a
strict xfail in ``test_exact_reference.py``: RWR where a walk row sum
is neither zero nor a normal float (``1 / row_sum`` overflows), and a
TT/IT owner whose reference bound is 1/2 or more, its self-loop
cancelling all but ``2**-39`` of its row total.
"""

import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import SignaturePack
from repro.core.scheme import create_scheme
from repro.graph import builders
from repro.graph.batch import LabelTable, RecordBatch
from repro.graph.bipartite import BipartiteGraph
from repro.graph.comm_graph import CommGraph, GraphBuilder
from repro.graph.stream import EdgeRecord
from repro.graph.windows import SlidingWindowAggregator
from repro.parallel.shm import ShmEngine
from repro.exceptions import PerturbationError
from repro.perturb import drop_random_nodes, insert_random_edges, jitter_weights
from test_exact_reference import assert_within, reference, window_of_graph
from test_rwr import occupancies

#: ``1`` and ``"1"`` are different nodes whose ``str`` forms tie.
PLAIN = ["a", "b", "c", 1, "1", 2.5]
LEFT = ["a", "b", 1]
RIGHT = ["x", "1", 2.5]
WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 0.1, 0.3, 1 / 3, 1e16, 1e-300]),
    st.floats(min_value=0.0, max_value=1e6),
)
#: Transforms whose outputs list rows in neither node nor record order.
PERTURBATIONS = [
    lambda graph, count, seed: insert_random_edges(graph, count, rng=seed),
    lambda graph, count, seed: jitter_weights(graph, count / 10, rng=seed),
    lambda graph, count, seed: drop_random_nodes(graph, count / 10, rng=seed),
]
SCHEMES = (
    [("tt", {})]
    + [("ut", {"scaling": name}) for name in ("inverse", "sqrt", "tfidf")]
    + [("it", {})]
    + [("rwr", {"reset_probability": 0.1, "max_hops": 3}), ("rwr", {})]
)


#: Each scheme in-process and through a shm engine; the in-process cases
#: keep the ids they had before the engine became a parameter.
CASES = [
    pytest.param(
        name, params, strategy, id=f"{name}-params{index}" + ("-shm" if strategy == "shm" else "")
    )
    for strategy in ("serial", "shm")
    for index, (name, params) in enumerate(SCHEMES)
]


@pytest.fixture(scope="module")
def engines():
    """``engines(strategy)``: ``None`` in-process, else one shared
    ``ShmEngine(jobs=2)``, opened on first use."""
    opened = []

    def engine(strategy):
        if strategy == "serial":
            return None
        if not opened:
            opened.append(ShmEngine(jobs=2))
        return opened[0]

    yield engine
    for shm in opened:
        shm.close()


def bits(entries):
    """Entries with labels by type and weights bit for bit."""
    return [(node, type(node), struct.pack("<d", weight)) for node, weight in entries]


def exact(signature):
    return signature.owner, bits(signature.entries)


def assert_same_pack(pack, reference):
    """Field for field: owners and member table (labels by type), CSR
    structure, and weights bit for bit."""
    assert [(o, type(o)) for o in pack.owners] == [(o, type(o)) for o in reference.owners]
    assert [(n, type(n)) for n in pack.node_table] == [
        (n, type(n)) for n in reference.node_table
    ]
    assert pack.indptr.tolist() == reference.indptr.tolist()
    assert pack.indices.tolist() == reference.indices.tolist()
    assert pack.data.tobytes() == reference.data.tobytes()


def ranked(entries, graph, name, owner):
    """``entries`` by the explicit rule: weight descending, then
    ``str(label)``, then row position (the owner's out-row, IT's in-row,
    RWR's node order)."""
    if name == "rwr":
        row = graph.nodes()
    elif owner not in graph:
        row = []
    else:
        row = graph.in_neighbors(owner) if name == "it" else graph.out_neighbors(owner)
    position = {label: index for index, label in enumerate(row)}
    return sorted(entries, key=lambda entry: (-entry[1], str(entry[0]), position[entry[0]]))


def walk_is_normal(window):
    """Every row sum of the walk (both ways on a bipartite graph) is zero
    or a normal float."""
    totals = {}
    for (src, dst), value in window.volume.items():
        totals[src] = totals.get(src, 0) + value
        if window.sides is not None:
            totals[dst] = totals.get(dst, 0) + value
    return all(total >= Fraction(2) ** -1022 for total in totals.values())


def walk_relevances(scheme, graph, owners):
    """RWR's candidates for each owner: its walk alone (``_iterate``'s
    column), without the owner, and a ``V1`` owner's without ``V1``."""
    present = [owner for owner in owners if owner in graph]
    columns = dict(zip(present, occupancies(scheme, graph, present) if present else []))
    left = set(graph.left_nodes) if isinstance(graph, BipartiteGraph) else set()
    right = set(graph.right_nodes) if left else set()
    relevances = {}
    for owner in owners:
        column = columns.get(owner, {})
        relevances[owner] = [
            (node, mass)
            for node, mass in column.items()
            if node != owner and (owner not in left or node in right)
        ]
    return relevances


def assert_kernel_is_the_scheme(graph, name, params, k, engine=None, targets=None):
    if targets is None:
        targets = graph.nodes() + ["absent"]
    scheme = create_scheme(name, k=k, **params)
    batch = scheme.compute_all(graph, targets, engine=engine)
    owners = list(dict.fromkeys(targets))
    assert list(batch) == owners
    whole = create_scheme(name, k=max(1, graph.num_nodes), **params)
    full = whole.compute_all(graph, owners)
    window = window_of_graph(graph)
    exact_of = reference(name, params)
    if name == "rwr" and not walk_is_normal(window):
        exact_of = None
    walks = walk_relevances(whole, graph, owners) if name == "rwr" else {}
    for owner in owners:
        entries = ranked(full[owner].entries, graph, name, owner)
        assert bits(full[owner].entries) == bits(entries)
        assert bits(batch[owner].entries) == bits(entries[:k])
        assert exact(scheme.compute(graph, owner)) == exact(batch[owner])
        if name == "rwr":
            assert bits(entries) == bits(ranked(walks[owner], graph, name, owner))
        expected = None if exact_of is None else exact_of(window, owner)
        if expected is not None and all(bound < Fraction(1, 2) for _, bound in expected.values()):
            assert_within(full[owner], expected, (name, owner))
    assert_same_pack(batch, SignaturePack.from_signatures(dict(batch.items())))


def records_of(srcs, dsts):
    record = st.builds(lambda s, d, w: EdgeRecord(0.0, s, d, w), srcs, dsts, WEIGHT)
    return st.lists(st.lists(record, max_size=14), min_size=1, max_size=5)


@pytest.mark.parametrize("name,params,strategy", CASES)
class TestKernelAgainstTheDefinitions:
    @settings(max_examples=60, deadline=None)
    @given(
        buckets=records_of(st.sampled_from(PLAIN), st.sampled_from(PLAIN)),
        k=st.integers(1, 4),
        bipartite=st.booleans(),
    )
    def test_aggregator_windows(
        self, name, params, strategy, engines, buckets, k, bipartite
    ):
        engine = engines(strategy)
        if bipartite:
            # Re-draw each record's ends onto the two sides.
            buckets = [
                [
                    EdgeRecord(0.0, LEFT[PLAIN.index(r.src) % 3], RIGHT[PLAIN.index(r.dst) % 3], r.weight)
                    for r in bucket
                ]
                for bucket in buckets
            ]
        aggregator, labels = SlidingWindowAggregator(bipartite=bipartite), LabelTable()
        for bucket in buckets:
            # Every window is built from its columns, never record by record.
            fallback = mock.patch.object(builders, "graph_from_edges", side_effect=AssertionError)
            with fallback:
                aggregator.advance(RecordBatch.from_records(bucket, labels))
            graph = aggregator.graph
            assert_kernel_is_the_scheme(graph, name, params, k, engine, graph.nodes())

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(
            st.tuples(st.sampled_from(PLAIN), st.sampled_from(PLAIN), WEIGHT), max_size=20
        ),
        data=st.data(),
        k=st.integers(1, 4),
    )
    def test_mutated_dict_graphs(self, name, params, strategy, engines, records, data, k):
        # Perturbed graphs: an inserted edge moves to the end of both its
        # rows, a jittered graph lists in-rows in out-row order, and
        # dropped nodes leave gaps.
        engine = engines(strategy)
        graph = CommGraph(records)
        for _ in range(data.draw(st.integers(0, 4))):
            perturb = data.draw(st.sampled_from(PERTURBATIONS))
            count, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**16))
            try:
                graph = perturb(graph, count, seed)
            except PerturbationError:
                pass  # no pair to insert an edge on
        assert_kernel_is_the_scheme(graph, name, params, k, engine)

    def test_order_sensitive_row_sum(self, name, params, strategy, engines):
        engine = engines(strategy)
        # sum() of [1e16, 1.0, 1.0] is 1e16 left to right, but
        # 1.0000000000000002e16 compensated (Python 3.12+) and in fsum:
        # the exact row total 1e16 + 2 is a float.
        records = [EdgeRecord(0.0, "a", dst, w) for dst, w in (("x", 1e16), ("y", 1.0), ("z", 1.0))]
        aggregator = SlidingWindowAggregator()
        aggregator.advance(RecordBatch.from_records(records, LabelTable()))
        assert_kernel_is_the_scheme(aggregator.graph, name, params, 2, engine)

    def test_ties_self_loops_and_bipartite(self, name, params, strategy, engines):
        engine = engines(strategy)
        graph = CommGraph(
            [("a", "a", 5.0), ("a", "x", 1.0), ("a", 1, 1.0), ("a", "1", 1.0), ("a", "y", 0.5)]
            + [("b", "x", 1.0), ("c", "x", 2.0), ("c", "a", 2.0)]
        )
        for k in (1, 2, 3, 10):
            assert_kernel_is_the_scheme(graph, name, params, k, engine)
        builder = GraphBuilder(bipartite=True)
        for src, dst, weight in [("a", "x", 0.1), ("a", "y", 0.2), ("b", "x", 0.7), (1, "1", 3.0)]:
            builder.add_edge(src, dst, weight)
        builder.add_left_node("idle")
        sides = builder.build()
        assert_kernel_is_the_scheme(sides, name, params, 1, engine)

    def test_id_order_is_not_str_order(self, name, params, strategy, engines):
        engine = engines(strategy)
        # "9" is interned before "10" and the int 10 before the int 9, so
        # neither id order nor label order is str order; 10 and "10" tie
        # in str and keep row order.  Every weight ties.
        ends = ["9", 10, "10", 9, "x"]
        records = [EdgeRecord(0.0, "a", dst, 1.0) for dst in ends]
        records += [EdgeRecord(0.0, "b", dst, 1.0) for dst in reversed(ends)]
        aggregator = SlidingWindowAggregator()
        aggregator.advance(RecordBatch.from_records(records, LabelTable()))
        graph = CommGraph(
            [("a", dst, 1.0) for dst in ends] + [("b", dst, 1.0) for dst in reversed(ends)]
        )
        for k in (1, 2, 3, 5):
            assert_kernel_is_the_scheme(aggregator.graph, name, params, k, engine)
            assert_kernel_is_the_scheme(graph, name, params, k, engine)

    def test_duplicate_targets_keep_their_first_place(self, name, params, strategy, engines):
        engine = engines(strategy)
        graph = CommGraph([("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 3.0), ("x", "a", 1.0)])
        targets = ["b", "a", "b", "absent", "a", "x", "absent"]
        assert_kernel_is_the_scheme(graph, name, params, 2, engine, targets)
        scheme = create_scheme(name, k=2, **params)
        assert list(scheme.compute_all(graph, targets, engine=engine)) == ["b", "a", "absent", "x"]


class TestRowTotals:
    """Every row total is ``math.fsum`` of the row, so TT and IT bytes are
    the same on every Python (the builtin float ``sum`` is compensated
    only from 3.12 on)."""

    def test_total_is_correctly_rounded(self):
        # Summed left to right, 2**53 + 1 rounds back to 2**53 twice; the
        # exact total 2**53 + 2 is a float.
        big = float(2**53)
        graph = CommGraph([("v", "x", big), ("v", "y", 1.0), ("v", "z", 1.0)])
        reversed_graph = CommGraph([("x", "v", big), ("y", "v", 1.0), ("z", "v", 1.0)])
        assert graph.out_strength("v") == reversed_graph.in_strength("v") == big + 2
        for scheme, owner in (("tt", graph), ("it", reversed_graph)):
            scheme = create_scheme(scheme, k=3)
            for signature in (scheme.compute(owner, "v"), scheme.compute_all(owner, ["v"])["v"]):
                assert dict(signature.entries)["y"] == 1.0 / (big + 2)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.one_of(WEIGHT, st.sampled_from([2.0**53, 2.0**60, 3.0])),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_every_kernel_row_total_is_fsum(self, edges):
        graph = CommGraph(edges)
        for name, rows in (("tt", graph.out_neighbors), ("it", graph.in_neighbors)):
            pack = create_scheme(name, k=5).compute_all(graph, graph.nodes())
            for node, signature in pack.items():
                row = rows(node)
                denominator = math.fsum(row.values()) - row.get(node, 0.0)
                for member, weight in signature.entries:
                    assert weight == row[member] / denominator, (name, node, member)
        for node in graph.nodes():
            assert graph.out_strength(node) == math.fsum(graph.out_neighbors(node).values())
            assert graph.in_strength(node) == math.fsum(graph.in_neighbors(node).values())
