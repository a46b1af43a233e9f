"""Seeded enterprise flow traces: the benchmark's only input.

The setting is the paper's (PAPER.md §2): monitored hosts talking to a
universe of 400K external IPs, edge weight = TCP sessions, consecutive
5-day windows.  ``EnterpriseFlowGenerator`` needs about 13 s for one
300-host population, nearly all of it in popularity-weighted draws over the
400K IPs.  A run cannot afford that, so the benchmark keeps a fixed pool of
``POOL_SIZE`` populations (generator seeds ``0..POOL_SIZE-1``), generates
each once per checkout into ``.cache/`` and derives every run's trace from
the pool.  The 1x network is population 0; the 4x network is all four
side by side, sharing one Internet (the same external IPs and services),
with 1200 hosts in total.  The population is the same for every seed, so
that runs with different seeds do the same amount of work.  ``--seed``
chooses:

* a permutation of the host labels, which moves hosts between service
  shards and changes every sort order;
* the order of the records inside each window.

Each edge of weight ``w`` becomes ``w`` records of weight 1.0, one per
session; records are timestamped evenly across their window's 5 days, the
first at exactly 0 so fixed-length windows line up with the generator's.
Generation time is reported but excluded from every metric.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from common import CACHE_DIR, SRC

POOL_SIZE = 4
WINDOW_S = 5 * 86400.0


@dataclass(frozen=True)
class Population:
    """``EnterpriseParams`` of one pool population (one 1x network)."""

    num_hosts: int = 300
    num_external: int = 400_000
    num_windows: int = 6
    mean_sessions: float = 300.0
    num_alias_users: int = 20


PAPER = Population()
#: Smoke-test scale: 30 hosts, 2 windows.
TINY = Population(num_hosts=30, num_external=3_000, num_windows=2, num_alias_users=2)


def tiles_for(scale: int) -> List[int]:
    """Pool populations making up a ``scale``-x network."""
    if not 1 <= scale <= POOL_SIZE:
        raise ValueError(f"scale must be in 1..{POOL_SIZE}, got {scale}")
    return list(range(scale))


def _pool_path(population: Population, tile: int) -> Path:
    digest = hashlib.sha256()
    for name in ("enterprise.py", "profiles.py"):
        digest.update((SRC / "repro" / "datasets" / name).read_bytes())
    key = json.dumps(
        {"params": asdict(population), "seed": tile, "code": digest.hexdigest()},
        sort_keys=True,
    )
    return CACHE_DIR / f"enterprise-{tile}-{hashlib.sha256(key.encode()).hexdigest()[:16]}.npz"


def ensure_pool(population: Population, tiles: Sequence[int]) -> float:
    """Generate the missing pool populations; returns seconds spent."""
    spent = 0.0
    for tile in tiles:
        path = _pool_path(population, tile)
        if not path.exists():
            started = time.perf_counter()
            _generate(population, tile, path)
            spent += time.perf_counter() - started
    return spent


def _generate(population: Population, tile: int, path: Path) -> None:
    from repro.datasets import EnterpriseFlowGenerator, EnterpriseParams

    data = EnterpriseFlowGenerator(
        EnterpriseParams(**asdict(population), seed=tile)
    ).generate()
    vocabulary: Dict[str, int] = {}
    windows: List[int] = []
    sources: List[int] = []
    destinations: List[int] = []
    counts: List[int] = []
    for window, graph in enumerate(data.graphs.graphs):
        for src, dst, weight in graph.edges():
            if weight != int(weight) or not src.startswith("host-"):
                raise RuntimeError(f"unexpected generator edge {src}->{dst} ({weight})")
            windows.append(window)
            sources.append(int(src[len("host-"):]))
            destinations.append(vocabulary.setdefault(dst, len(vocabulary)))
            counts.append(int(weight))
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial.npz")
    np.savez(
        partial,
        window=np.asarray(windows, dtype=np.int32),
        src=np.asarray(sources, dtype=np.int32),
        dst=np.asarray(destinations, dtype=np.int32),
        count=np.asarray(counts, dtype=np.int32),
        vocabulary=np.asarray(list(vocabulary)),
    )
    os.replace(partial, path)


@dataclass
class Trace:
    """A run's records, in admission order, plus the generator's window graphs.

    ``labels`` holds every node label once; records and edges refer to
    nodes by index into it, and the first ``len(hosts)`` labels are the
    hosts.  Records are sorted by window and shuffled within it.
    """

    labels: List[str]
    hosts: List[str]
    src: np.ndarray
    dst: np.ndarray
    time: np.ndarray
    #: Per window, the generator's edges as ``(src, dst, sessions)`` arrays.
    edges: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def num_records(self) -> int:
        return int(self.src.size)

    @property
    def num_windows(self) -> int:
        return len(self.edges)

    def edge_records(self) -> list:
        """Every record as a :class:`repro.graph.stream.EdgeRecord`."""
        from repro.graph.stream import EdgeRecord

        labels = self.labels
        return [
            EdgeRecord(t, labels[s], labels[d], 1.0)
            for t, s, d in zip(self.time.tolist(), self.src.tolist(), self.dst.tolist())
        ]

    def rows(self, positions: np.ndarray) -> list:
        """``[time, src, dst, weight]`` rows (the ``/ingest`` wire format)
        for record positions of the cyclic stream."""
        index = positions % self.num_records
        labels = self.labels
        return [
            [t, labels[s], labels[d], 1.0]
            for t, s, d in zip(
                self.time[index].tolist(), self.src[index].tolist(), self.dst[index].tolist()
            )
        ]

    def window_graph(self, window: int):
        """The generator's own graph of ``window`` (reference input)."""
        from repro.graph.builders import graph_from_edges

        labels = self.labels
        src, dst, count = self.edges[window]
        return graph_from_edges(
            (
                (labels[s], labels[d], float(c))
                for s, d, c in zip(src.tolist(), dst.tolist(), count.tolist())
            ),
            bipartite=True,
        )

    def shape(self) -> Dict:
        used = np.unique(np.concatenate([dst for _, dst, _ in self.edges]))
        return {
            "hosts": len(self.hosts),
            "external_ips": sum(self.labels[i].startswith("ext-") for i in used.tolist()),
            "records": self.num_records,
            "nodes_per_window": [
                int(np.unique(src).size + np.unique(dst).size) for src, dst, _ in self.edges
            ],
            "edges_per_window": [int(src.size) for src, _, _ in self.edges],
        }


def build_trace(population: Population, scale: int, seed: int, windows: int) -> Trace:
    """The seeded trace of a ``scale``-x network over its first ``windows``
    windows (pool populations must exist: see :func:`ensure_pool`)."""
    if not 1 <= windows <= population.num_windows:
        raise ValueError(f"windows must be in 1..{population.num_windows}, got {windows}")
    rng = np.random.default_rng([seed, 1])
    per_tile = population.num_hosts
    names = rng.permutation(per_tile * scale)
    hosts = [f"host-{int(name):04d}" for name in names]
    labels = list(hosts)
    codes: Dict[str, int] = {}
    parts: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [[] for _ in range(windows)]
    for position, tile in enumerate(tiles_for(scale)):
        with np.load(_pool_path(population, tile)) as pool:
            vocabulary = pool["vocabulary"].tolist()
            window, src, dst, count = (pool[key] for key in ("window", "src", "dst", "count"))
        remap = np.empty(len(vocabulary), dtype=np.int64)
        for local, label in enumerate(vocabulary):
            if label not in codes:
                codes[label] = len(labels)
                labels.append(label)
            remap[local] = codes[label]
        for w in range(windows):
            mask = window == w
            parts[w].append((src[mask] + position * per_tile, remap[dst[mask]], count[mask]))

    edges, srcs, dsts, times = [], [], [], []
    for w, window_parts in enumerate(parts):
        src, dst, count = (np.concatenate(column) for column in zip(*window_parts))
        edges.append((src, dst, count))
        order = rng.permutation(np.repeat(np.arange(src.size), count))
        srcs.append(src[order])
        dsts.append(dst[order])
        times.append(w * WINDOW_S + np.arange(order.size) * (WINDOW_S / order.size))
    return Trace(
        labels=labels,
        hosts=hosts,
        src=np.concatenate(srcs),
        dst=np.concatenate(dsts),
        time=np.concatenate(times),
        edges=edges,
    )
