"""Observability: collect metrics and spans from a signature run.

The :mod:`repro.obs` registry is off by default (a shared no-op), so
nothing below changes how the library behaves elsewhere — activating a
collecting registry with ``obs.use_registry`` is all it takes to see the
kernel traffic and span tree of any computation.

Run:  python examples/observability.py
"""

import json

from repro import CommGraph, GraphBuilder, create_scheme, obs
from repro.core.properties import uniqueness_values


def build_window(num_hosts: int = 12) -> CommGraph:
    builder = GraphBuilder()
    for i in range(num_hosts):
        for j in range(1, 4):
            builder.add_edge(f"host{i}", f"peer{(i * j + j) % 9}", float(j))
    return builder.build()


def main() -> None:
    graph = build_window()
    hosts = [node for node in graph.nodes() if node.startswith("host")]
    scheme = create_scheme("tt", k=5)

    # 1. Collect: route instrumentation to a registry for the block.
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        with obs.span("example.run"):
            signatures = scheme.compute_all(graph, hosts)
            for distance in ("jaccard", "shel"):
                with obs.span("example.uniqueness", distance=distance):
                    uniqueness_values(signatures, distance)

    # 2. Inspect counters directly: the batch kernels report their traffic.
    print("kernel counters:")
    for key, value in registry.counters_flat("kernel.").items():
        print(f"  {key} = {value:g}")

    # 3. Export: a JSON payload (schema repro.obs/v2) with a nested span
    #    tree, and Prometheus text exposition for scrapers.
    payload = obs.build_payload(registry.snapshot(), meta={"example": "observability"})
    problems = obs.validate_payload(payload)
    print(f"\npayload schema {payload['schema']!r}, validation problems: {problems}")
    [root] = payload["spans"]
    print(f"span tree root: {root['name']} "
          f"({root['count']} call, {len(root['children'])} children)")
    print("\nprometheus sample:")
    for line in obs.to_prometheus(registry.snapshot()).splitlines()[:4]:
        print(f"  {line}")

    # 4. Time: every span node carries its call count and wall time.  For
    #    function-level hotspots, run a CLI command with --obs-profile.
    print("\nspan timings:")
    for child in root["children"]:
        print(f"  {child['name']}: {child['count']} call(s), {child['total_s']:.4f}s")

    # 5. The merged payload is plain JSON — ship it wherever you like.
    print(f"\npayload bytes: {len(json.dumps(payload))}")


if __name__ == "__main__":
    main()
