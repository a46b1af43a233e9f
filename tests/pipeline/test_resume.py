"""Crash and resume: byte-identical output and the run-state guard.

* a crash + ``resume=True`` yields in-memory results *and checkpoint
  bytes* identical to an uninterrupted run;
* resuming onto checkpoints written under an incompatible scheme is
  refused via the checkpoint's run-state stamp, while a stamp key this
  run does not write (the ``engine`` key of older runs) is ignored.
"""

import random

import pytest

from repro.core.packed import SignaturePack
from repro.exceptions import CheckpointError
from repro.graph.stream import EdgeRecord, write_edge_records
from repro.pipeline import (
    CheckpointStore,
    CsvRecordSource,
    PipelineConfig,
    SignaturePipeline,
)


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


def make_pipeline(trace, directory, scheme="tt", hooks=(), **params):
    return SignaturePipeline(
        CsvRecordSource(trace),
        CheckpointStore(directory),
        PipelineConfig(scheme=scheme, k=5, scheme_params=params),
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
        # The durable artifacts match too: each window is computed from
        # its own records, so windows computed after the crash checkpoint
        # identically.
        assert checkpoint_bytes(tmp_path / "crashed") == checkpoint_bytes(
            tmp_path / "baseline"
        )

    @pytest.mark.parametrize("budget", [None, 1], ids=["exact", "degraded"])
    def test_resumed_windows_are_packs_equal_to_the_uninterrupted_run(
        self, trace, tmp_path, budget
    ):
        def pipeline(directory, hooks=()):
            config = PipelineConfig(scheme="tt", k=5, max_memory_cells=budget)
            return SignaturePipeline(
                CsvRecordSource(trace), CheckpointStore(directory), config, hooks=hooks
            )

        baseline = pipeline(tmp_path / "baseline").run()
        with pytest.raises(Boom):
            pipeline(tmp_path / "crashed", hooks=[crash_at(2)]).run()
        resumed = pipeline(tmp_path / "crashed").run(resume=True)

        assert resumed.report.resumed_from == 3
        modes = {window.mode for window in baseline.report.windows}
        assert modes == {"degraded-streaming" if budget else "exact"}
        assert len(resumed.signatures) == len(baseline.signatures) == 6
        for got, want in zip(resumed.signatures, baseline.signatures):
            assert isinstance(got, SignaturePack) and isinstance(want, SignaturePack)
            assert sorted(got) == sorted(want)
            for owner in want:
                # Weights bit for bit, entries in signature order.
                assert [(m, w.hex()) for m, w in got[owner].entries] == [
                    (m, w.hex()) for m, w in want[owner].entries
                ]

    def test_fresh_run_after_crash_also_identical(self, trace, tmp_path):
        baseline = make_pipeline(trace, tmp_path / "baseline").run()
        crashing = make_pipeline(trace, tmp_path / "again", hooks=[crash_at(1)])
        with pytest.raises(Boom):
            crashing.run()
        fresh = make_pipeline(trace, tmp_path / "again").run()  # resume=False
        assert fresh.report.resumed_from is None
        assert fresh.signatures == baseline.signatures


class TestRunStateGuard:
    def test_scheme_mismatch_rejected(self, trace, tmp_path):
        make_pipeline(trace, tmp_path / "ckpt", scheme="tt").run()
        resuming = make_pipeline(trace, tmp_path / "ckpt", scheme="ut")
        with pytest.raises(CheckpointError, match="scheme"):
            resuming.run(resume=True)

    def test_fresh_run_ignores_stale_state(self, trace, tmp_path):
        make_pipeline(trace, tmp_path / "ckpt", scheme="ut").run()
        # resume=False clears the store, so no conflict arises.
        result = make_pipeline(trace, tmp_path / "ckpt", scheme="tt").run()
        assert len(result.signatures) == 6

    @pytest.mark.parametrize("engine", ["incremental", "full"])
    def test_stamp_with_an_engine_key_resumes(self, trace, tmp_path, engine):
        # Runs that had two exact engines stamped which one wrote the
        # checkpoints; both wrote the same bytes, so either stamp resumes.
        baseline = make_pipeline(trace, tmp_path / "baseline").run()
        store = CheckpointStore(tmp_path / "crashed")
        crashing = make_pipeline(trace, store.directory, hooks=[crash_at(2)])
        with pytest.raises(Boom):
            crashing.run()
        store.set_run_state({**store.run_state(), "engine": engine})

        resumed = make_pipeline(trace, store.directory).run(resume=True)
        assert resumed.report.resumed_from == 3
        assert resumed.signatures == baseline.signatures
        assert checkpoint_bytes(store.directory) == checkpoint_bytes(
            tmp_path / "baseline"
        )
