"""A transformed graph's ``total_weight`` is the sum of its edges.

Every transform returns a newly built graph, so its total is its edge
weights added in ``edges()`` order, bit for bit — including a jittered
bipartite window, whose total once drifted from its edges by keeping a
running subtract-then-add total.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import HistorySignatureBuilder
from repro.core.top_talkers import TopTalkers
from repro.datasets.enterprise import EnterpriseFlowGenerator, EnterpriseParams
from repro.graph.builders import aggregate_records, combine_with_decay
from repro.graph.stream import EdgeRecord
from repro.perturb import (
    apply_masquerade,
    delete_weight_units,
    drop_random_nodes,
    insert_random_edges,
    jitter_weights,
    perturb_graph,
)


def edge_sum(graph) -> float:
    total = 0.0
    for _, _, weight in graph.edges():
        total += weight
    return total


def history(graphs):
    builder = HistorySignatureBuilder(TopTalkers(k=5), decay=0.5, prune_below=0.3)
    for graph in graphs:
        builder.push(graph)
    return builder.aggregate


TRANSFORMS = {
    "insert": lambda graph, other, seed: insert_random_edges(graph, 80, rng=seed),
    "delete": lambda graph, other, seed: delete_weight_units(graph, 60, rng=seed),
    "perturb": lambda graph, other, seed: perturb_graph(graph, 0.4, 0.4, rng=seed),
    "jitter": lambda graph, other, seed: jitter_weights(graph, 0.3, rng=seed),
    "drop": lambda graph, other, seed: drop_random_nodes(graph, 0.2, rng=seed),
    "masquerade": lambda graph, other, seed: apply_masquerade(graph, fraction=0.2, seed=seed)[0],
    "decay": lambda graph, other, seed: combine_with_decay([graph, other], decay=0.3),
    "history": lambda graph, other, seed: history([graph, other]),
}


@pytest.fixture(scope="module")
def inputs():
    params = EnterpriseParams(
        num_hosts=60, num_external=800, num_services=10, num_windows=2, num_alias_users=5, seed=5
    )
    windows = EnterpriseFlowGenerator(params).generate().graphs.graphs
    rng = np.random.default_rng(9)
    plain = [
        aggregate_records(
            EdgeRecord(0.0, f"n{s}", f"n{d}", float(w))
            for s, d, w in zip(
                rng.integers(0, 50, 400), rng.integers(0, 50, 400), rng.uniform(0.1, 9.0, 400)
            )
        )
        for _ in range(2)
    ]
    return {"bipartite": windows, "plain": plain}


@pytest.mark.parametrize("kind", ["bipartite", "plain"])
@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_total_weight_is_the_edge_sum(inputs, kind, name):
    graph, other = inputs[kind]
    for seed in range(5):
        transformed = TRANSFORMS[name](graph, other, seed)
        assert transformed.total_weight == edge_sum(transformed)
