"""Golden SHA-256 pins of every graph transform's output.

Each digest covers the output's node order, every out-row and in-row in
order (label plus weight bits), ``num_edges`` and, for a bipartite graph,
both sides in node order.  Row order is part of the contract: float sums
over a row are order-sensitive, and inserting onto an existing edge moves
that edge to the end of both of its rows.  The inputs are a seeded
enterprise window (bipartite, integer weights) and a seeded plain graph
(fractional weights, repeated pairs, one isolated node, in-rows not in
out-row traversal order).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.core.history import HistorySignatureBuilder
from repro.core.top_talkers import TopTalkers
from repro.datasets.enterprise import EnterpriseFlowGenerator, EnterpriseParams
from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import aggregate_records, combine_with_decay
from repro.graph.stream import EdgeRecord
from repro.perturb import (
    apply_masquerade,
    delete_weight_units,
    drop_random_nodes,
    insert_random_edges,
    jitter_weights,
    perturb_graph,
    relabel_graph,
)


def digest(graph) -> str:
    sha = hashlib.sha256()

    def put(text: str) -> None:
        sha.update(text.encode())
        sha.update(b"\0")

    nodes = graph.nodes()
    for node in nodes:
        put(repr(node))
    for rows in (graph.out_neighbors, graph.in_neighbors):
        for node in nodes:
            put("row")
            for label, weight in rows(node).items():
                put(repr(label))
                sha.update(struct.pack("<d", weight))
    put(f"edges={graph.num_edges}")
    if isinstance(graph, BipartiteGraph):
        put(f"left={graph.left_nodes!r}")
        put(f"right={graph.right_nodes!r}")
    return sha.hexdigest()


@pytest.fixture(scope="module")
def windows():
    params = EnterpriseParams(
        num_hosts=40,
        num_external=300,
        num_services=8,
        num_windows=3,
        num_alias_users=5,
        seed=7,
    )
    return EnterpriseFlowGenerator(params).generate().graphs.graphs


def plain_graph(seed: int):
    rng = np.random.default_rng(seed)
    names = [f"n{i:02d}" for i in range(30)]
    records = [
        EdgeRecord(0.0, names[s], names[d], float(w))
        for s, d, w in zip(
            rng.integers(0, 30, 160),
            rng.integers(0, 30, 160),
            np.round(rng.uniform(0.5, 6.0, 160), 3),
        )
    ]
    records.append(EdgeRecord(0.0, "n00", "isolated", 0.0))
    return aggregate_records(records)


@pytest.fixture(scope="module")
def plain():
    return plain_graph(11)


def outputs(window, others, plain, plain_other):
    """Every transform of both inputs, by name."""
    host = window.left_nodes
    result = {}
    for kind, graph in (("bipartite", window), ("plain", plain)):
        result[f"insert/{kind}"] = insert_random_edges(graph, 40, rng=1)
        result[f"delete/{kind}"] = delete_weight_units(graph, 60, rng=2)
        result[f"perturb/{kind}"] = perturb_graph(graph, alpha=0.4, beta=0.4, rng=3)
        result[f"jitter/{kind}"] = jitter_weights(graph, relative_std=0.3, rng=4)
        result[f"drop/{kind}"] = drop_random_nodes(graph, 0.2, rng=5)
        result[f"masquerade/{kind}"] = apply_masquerade(graph, fraction=0.2, seed=6)[0]
    result["relabel/bipartite"] = relabel_graph(window, {host[0]: host[1], host[1]: host[0]})
    result["relabel/plain"] = relabel_graph(plain, {"n01": "m01", "n02": "n01"})
    result["decay/bipartite"] = combine_with_decay([window, *others], decay=0.5)
    result["decay/plain"] = combine_with_decay([plain, plain_other], decay=0.3)
    for kind, graphs in (("bipartite", [window, *others]), ("plain", [plain, plain_other])):
        builder = HistorySignatureBuilder(TopTalkers(k=5), decay=0.5, prune_below=0.3)
        for graph in graphs:
            builder.push(graph)
        result[f"history/{kind}"] = builder.aggregate
    return result


GOLDEN = {
    "insert/bipartite": "efa21373ff8e191fa7579f28d533f5f43e693dbf58609b7378754388399c4a65",
    "delete/bipartite": "1f57d4477f70e1284c7cef04be85c689c5604f0445eb1161bea5df6f48281b3c",
    "perturb/bipartite": "032567263f04b3111680481136e8528e75629c4f9d353faa134648a994197725",
    "jitter/bipartite": "6041c9a469e7f269654cd5455158f5b1a1d2447cdfd8e9fc12203bf736c66650",
    "drop/bipartite": "1fbef4c918ead7cdf75ec310bc98f7b133c96b74deb343e0df368382cc3d57a5",
    "masquerade/bipartite": "45402efbcc3e2346200f685b1ef0e7c1348938555bbb6c7bfe07abf664ac69ee",
    "insert/plain": "62051d967d5e2244182ffaeb01d469f9c2002d316cceee58057abcbbb9ddc49a",
    "delete/plain": "dd7f26f3de1320aa67c5000b717ae4bd1fed57f1cf8239434a5bc6f47efbf1e2",
    "perturb/plain": "6c2e5b8ea4b7ab5b41bc6a2582d47f557f14c770563759b78a1d94e3d466e8a1",
    "jitter/plain": "4a0253af48d90475942d20df4ec38fab1cb110aec05f40847e50c24a625f3eea",
    "drop/plain": "6335a47f709a87757e3ba3cdd50db50e23d65cd64b4b45dc86ec4d4b908352c4",
    "masquerade/plain": "5afc50cf5f1b01591319e76e1be0bdaed97b94a8aca7b2248eeb7fabb8295a44",
    "relabel/bipartite": "b909e814ca23f3615c343b5605a387021e76584f4897d6f7cc9e838334fff6a1",
    "relabel/plain": "c7cafcbd7287976b96b90922ee068313f601b9ef42c877a9f69c2c83bd650ce3",
    "decay/bipartite": "3852a00068d6e9ef911f60ff5968c43b59ae359d1b4d44fae8fb507c5e7a222b",
    "decay/plain": "f0a1f4e8b558bae9f074b4c820f41dd99a126e59be612681256f1c5ce35d1619",
    "history/bipartite": "63ee0ea57c4cdc9929527e6ef3e6b32beda92ecaa9ad0a81b4ea01bc891ff6eb",
    "history/plain": "ec23f8a7b297a23ae9fa069f97d8fef07f9a666e06b141969e6c15ccd4cdd7eb",
}


INPUT_GOLDEN = {
    "bipartite": "fd1cf3020a50d66e1f255175cdfdb1271e4d2e3ff302506aa8c016e9003380bf",
    "plain": "0f41f2ecf5635aea4313a43c586a20f303fd0e7ba333202b683783212771cd64",
}


@pytest.fixture(scope="module")
def transformed(windows, plain):
    return outputs(windows[0], windows[1:], plain, plain_graph(12))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_transform_output_is_pinned(transformed, name):
    assert digest(transformed[name]) == GOLDEN[name]


def test_inputs_are_pinned(windows, plain):
    # The transforms are only pinned if their inputs are.
    assert digest(windows[0]) == INPUT_GOLDEN["bipartite"]
    assert digest(plain) == INPUT_GOLDEN["plain"]

