"""The pipeline's incremental engine: equivalence, resume, run-state guard.

Three contracts:

* ``PipelineConfig(incremental=True)`` produces the same signatures as
  the full engine (the schemes' byte-identity contract, end to end);
* a crash + ``resume=True`` yields in-memory results *and checkpoint
  bytes* identical to an uninterrupted incremental run (the aggregator
  state is reconstructed by replaying the checkpointed prefix);
* resuming onto checkpoints written by an incompatible engine/scheme is
  refused via the checkpoint's run-state stamp.
"""

import random

import pytest

from repro.exceptions import CheckpointError
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    PipelineConfig,
    SignaturePipeline,
    mean_topk_overlap,
)
from repro.pipeline.report import MODE_EXACT


def make_records(num_windows=6, hosts=9, per_window=36, seed=2):
    rng = random.Random(seed)
    records = []
    for window in range(num_windows):
        for i in range(per_window):
            records.append(
                EdgeRecord(
                    time=float(window),
                    src=f"h{rng.randint(0, hosts - 1)}",
                    dst=f"e{rng.randint(0, 14)}",
                    weight=round(rng.uniform(0.5, 3.0), 3),
                )
            )
    return records


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_edge_records(make_records(), path)
    return path


def make_pipeline(trace, directory, scheme="tt", incremental=True, hooks=(), **params):
    return SignaturePipeline(
        CsvRecordSource(trace),
        CheckpointStore(directory),
        PipelineConfig(
            scheme=scheme, k=5, scheme_params=params, incremental=incremental
        ),
        hooks=hooks,
    )


def checkpoint_bytes(directory):
    store = CheckpointStore(directory)
    return {
        entry.window: store.window_path(entry.window).read_bytes()
        for entry in store.scan().good
    }


class Boom(RuntimeError):
    pass


def crash_at(window_index):
    def hook(window, report):
        if window == window_index:
            raise Boom(f"injected crash after window {window}")

    return hook


class TestEquivalence:
    @pytest.mark.parametrize(
        "scheme,params",
        [("tt", {}), ("ut", {}), ("rwr-push", {}), ("rwr", {"max_hops": 3})],
    )
    def test_matches_full_engine(self, trace, tmp_path, scheme, params):
        # Both engines compute a window's population as one batch, so even
        # the walk's order-sensitive sums agree bit for bit.
        full = make_pipeline(
            trace, tmp_path / "full", scheme=scheme, incremental=False, **params
        ).run()
        inc = make_pipeline(
            trace, tmp_path / "inc", scheme=scheme, incremental=True, **params
        ).run()
        assert len(inc.signatures) == len(full.signatures)
        assert inc.signatures == full.signatures
        assert [
            {owner: signature.entries for owner, signature in window.items()}
            for window in inc.signatures
        ] == [
            {owner: signature.entries for owner, signature in window.items()}
            for window in full.signatures
        ]
        assert all(report.mode == MODE_EXACT for report in inc.report.windows)

    def test_rwr_matches_full_engine_topk(self, trace, tmp_path):
        # Unbounded RWR: both engines build the same window graphs, but the
        # full engine walks one query at a time and the incremental engine
        # runs the batched walk, whose sums group differently and whose
        # convergence test spans the batch: cross-engine weights agree only
        # to round-off and near-ties may reorder.  The incremental contract
        # proper (same graph, delta vs full) is exercised in
        # tests/core/test_incremental.py and
        # tests/core/test_delta_chain_reorders.py; within-engine
        # byte-identity across resume is covered by TestResume below.
        params = {"max_hops": None}
        full = make_pipeline(
            trace, tmp_path / "full", scheme="rwr", incremental=False, **params
        ).run()
        inc = make_pipeline(
            trace, tmp_path / "inc", scheme="rwr", incremental=True, **params
        ).run()
        assert len(inc.signatures) == len(full.signatures)
        for full_map, inc_map in zip(full.signatures, inc.signatures):
            assert inc_map.keys() == full_map.keys()
            assert mean_topk_overlap(full_map, inc_map) >= 0.99

    def test_incremental_metrics_reported(self, trace, tmp_path):
        result = make_pipeline(trace, tmp_path / "ckpt").run()
        assert "incremental.dirty_nodes{scheme=tt}" in result.report.metrics
        assert "incremental.reused_signatures{scheme=tt}" in result.report.metrics


class TestResume:
    @pytest.mark.parametrize(
        "scheme,params", [("tt", {}), ("rwr", {"max_hops": 3})]
    )
    def test_resume_is_byte_identical(self, trace, tmp_path, scheme, params):
        baseline = make_pipeline(
            trace, tmp_path / "baseline", scheme=scheme, **params
        ).run()

        crashing = make_pipeline(
            trace, tmp_path / "crashed", scheme=scheme, hooks=[crash_at(2)], **params
        )
        with pytest.raises(Boom):
            crashing.run()

        resumed = make_pipeline(
            trace, tmp_path / "crashed", scheme=scheme, **params
        ).run(resume=True)
        assert resumed.report.resumed_from == 3
        assert resumed.signatures == baseline.signatures
        # The durable artifacts match too: resuming reconstructs the
        # aggregator by replaying the checkpointed prefix, so windows
        # computed after the crash checkpoint identically.
        assert checkpoint_bytes(tmp_path / "crashed") == checkpoint_bytes(
            tmp_path / "baseline"
        )

    def test_fresh_run_after_crash_also_identical(self, trace, tmp_path):
        baseline = make_pipeline(trace, tmp_path / "baseline").run()
        crashing = make_pipeline(trace, tmp_path / "again", hooks=[crash_at(1)])
        with pytest.raises(Boom):
            crashing.run()
        fresh = make_pipeline(trace, tmp_path / "again").run()  # resume=False
        assert fresh.report.resumed_from is None
        assert fresh.signatures == baseline.signatures


class TestRunStateGuard:
    def test_engine_mismatch_rejected(self, trace, tmp_path):
        make_pipeline(trace, tmp_path / "ckpt", incremental=False).run()
        resuming = make_pipeline(trace, tmp_path / "ckpt", incremental=True)
        with pytest.raises(CheckpointError, match="engine"):
            resuming.run(resume=True)

    def test_scheme_mismatch_rejected(self, trace, tmp_path):
        make_pipeline(trace, tmp_path / "ckpt", scheme="tt").run()
        resuming = make_pipeline(trace, tmp_path / "ckpt", scheme="ut")
        with pytest.raises(CheckpointError, match="scheme"):
            resuming.run(resume=True)

    def test_fresh_run_ignores_stale_state(self, trace, tmp_path):
        make_pipeline(trace, tmp_path / "ckpt", incremental=False).run()
        # resume=False clears the store, so no conflict arises.
        result = make_pipeline(trace, tmp_path / "ckpt", incremental=True).run()
        assert len(result.signatures) == 6
