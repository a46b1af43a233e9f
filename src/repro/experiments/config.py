"""Shared experiment configuration and cached dataset construction.

Two scales are provided:

``"paper"``
    Mirrors the paper's populations (300 hosts / 851 users, k = 10 / 3).
    Used by the benchmark suite.
``"small"``
    A fast miniature with the same structure, for the test suite and
    examples.

Datasets are deterministic functions of their parameters, so they are
cached per scale for the lifetime of the process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.execution import execution_error
from repro.core.scheme import SignatureScheme, create_scheme
from repro.datasets.enterprise import EnterpriseDataset, EnterpriseFlowGenerator, EnterpriseParams
from repro.datasets.querylog import QueryLogDataset, QueryLogGenerator, QueryLogParams
from repro.exceptions import ExperimentError

#: The paper's signature lengths: half the average out-degree per dataset.
NETWORK_K = 10
QUERYLOG_K = 3

#: The paper's reset probability for all reported RWR runs.
RESET_PROBABILITY = 0.1

#: Hop counts reported in Figures 1-3.
RWR_HOPS: Tuple[int, ...] = (3, 5, 7)


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of knobs shared across experiment modules.

    ``jobs`` fans the (scheme x distance x window) experiment grid across
    worker processes via :mod:`repro.parallel`: ``1`` runs serially,
    ``N > 1`` uses up to ``N`` processes, ``0`` uses every CPU.
    Results are assembled in deterministic order regardless of ``jobs``.
    Each cell computes its signatures in-process.
    """

    scale: str = "paper"
    distances: Tuple[str, ...] = ("jaccard", "dice", "sdice", "shel")
    reset_probability: float = RESET_PROBABILITY
    rwr_hops: Tuple[int, ...] = RWR_HOPS
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.scale not in ("paper", "small"):
            raise ExperimentError(f"unknown scale {self.scale!r}; use 'paper' or 'small'")
        error = execution_error(self.jobs)
        if error is not None:
            raise ExperimentError(error)


_ENTERPRISE_PARAMS: Dict[str, EnterpriseParams] = {
    "paper": EnterpriseParams(),
    # The small scale shrinks populations only; the behavioural knobs
    # (activity, skew, noise, drift) stay at the calibrated defaults so the
    # paper's qualitative shapes survive the downscaling.
    "small": EnterpriseParams(
        num_hosts=60,
        num_external=600,
        num_services=10,
        num_windows=3,
        num_alias_users=6,
        seed=7,
    ),
}

_QUERYLOG_PARAMS: Dict[str, QueryLogParams] = {
    "paper": QueryLogParams(),
    "small": QueryLogParams(
        num_users=80,
        num_tables=120,
        num_windows=3,
        mean_queries=60.0,
        seed=11,
    ),
}


@functools.lru_cache(maxsize=None)
def get_enterprise_dataset(scale: str = "paper") -> EnterpriseDataset:
    """The enterprise flow dataset for a scale (cached; deterministic)."""
    if scale not in _ENTERPRISE_PARAMS:
        raise ExperimentError(f"unknown scale {scale!r}")
    return EnterpriseFlowGenerator(_ENTERPRISE_PARAMS[scale]).generate()


@functools.lru_cache(maxsize=None)
def get_querylog_dataset(scale: str = "paper") -> QueryLogDataset:
    """The query-log dataset for a scale (cached; deterministic)."""
    if scale not in _QUERYLOG_PARAMS:
        raise ExperimentError(f"unknown scale {scale!r}")
    return QueryLogGenerator(_QUERYLOG_PARAMS[scale]).generate()


def consecutive_signature_maps(
    scheme: SignatureScheme,
    graph_now,
    graph_next,
    population,
):
    """Signature maps of ``population`` for a consecutive window pair.

    The two windows are disjoint, so each map is computed in full.
    """
    signatures_now = scheme.compute_all(graph_now, population)
    signatures_next = scheme.compute_all(graph_next, population)
    return signatures_now, signatures_next


def make_schemes(
    k: int,
    reset_probability: float = RESET_PROBABILITY,
    hops: Tuple[int, ...] = RWR_HOPS,
    include_rwr: bool = True,
) -> Dict[str, SignatureScheme]:
    """The paper's scheme line-up: TT, UT and RWR_c^h for each ``h``.

    Keys follow the paper's labels (``"TT"``, ``"UT"``, ``"RWR^3"``...).
    """
    schemes: Dict[str, SignatureScheme] = {
        "TT": create_scheme("tt", k=k),
        "UT": create_scheme("ut", k=k),
    }
    if include_rwr:
        for hop_count in hops:
            schemes[f"RWR^{hop_count}"] = create_scheme(
                "rwr", k=k, reset_probability=reset_probability, max_hops=hop_count
            )
    return schemes


def application_schemes(k: int, reset_probability: float = RESET_PROBABILITY) -> Dict[str, SignatureScheme]:
    """The three-scheme line-up used by the application experiments.

    Section IV settles on RWR^3 as "the best representative of the RWR
    schemes"; Figures 5 and 6 compare TT, UT and that representative.
    """
    return {
        "TT": create_scheme("tt", k=k),
        "UT": create_scheme("ut", k=k),
        "RWR": create_scheme("rwr", k=k, reset_probability=reset_probability, max_hops=3),
    }
