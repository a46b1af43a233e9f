"""Delivery order never changes a pipeline's output.

The pipeline canonicalises each window's records by sorting them, and skips
the sort when the window's times already strictly increase; either way a
time-ordered, a shuffled and a reversed copy of one trace must write
byte-identical checkpoints.
"""

import random

import pytest

from repro.graph.stream import EdgeRecord
from repro.pipeline import (
    CheckpointStore,
    IterableRecordSource,
    PipelineConfig,
    SignaturePipeline,
)


def trace(distinct_times):
    rng = random.Random(4)
    records = []
    for index in range(600):
        time = index * 0.01 if distinct_times else float(index // 50) * 0.5
        records.append(
            EdgeRecord(
                time=time,
                src=f"h{rng.randrange(12)}",
                dst=f"e{rng.randrange(40)}",
                weight=rng.choice([1.0, 0.1, 1e-3, 7.25]),
            )
        )
    return records


def checkpoint_digests(records, directory, config):
    pipeline = SignaturePipeline(
        IterableRecordSource(records), CheckpointStore(directory), config
    )
    report = pipeline.run().report
    return [window.sha256 for window in report.windows]


@pytest.mark.parametrize("distinct_times", [True, False])
@pytest.mark.parametrize("bipartite", [False, True])
def test_ordered_shuffled_and_reversed_traces_checkpoint_identically(
    tmp_path, distinct_times, bipartite
):
    config = PipelineConfig(scheme="tt", k=5, bipartite=bipartite, window_length=1.0)
    ordered = trace(distinct_times)
    shuffled = list(ordered)
    random.Random(9).shuffle(shuffled)
    digests = [
        checkpoint_digests(records, tmp_path / name, config)
        for name, records in (
            ("ordered", ordered),
            ("shuffled", shuffled),
            ("reversed", ordered[::-1]),
        )
    ]
    assert len(digests[0]) == 6
    assert digests[0] == digests[1] == digests[2]
