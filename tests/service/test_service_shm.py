"""Service integration of the shared-memory recompute engine.

The supervisor owns one :class:`ShmEngine` pool for the whole shard fleet
(``jobs`` above one); shards borrow it per window advance.  Signatures —
including after a crash/rebuild cycle — must be byte-identical to the
serial service, and closing the service must release the pool.
"""

import multiprocessing
import random

import pytest

from repro.exceptions import ServiceError
from repro.graph.batch import RecordBatch
from repro.graph.stream import EdgeRecord
from repro.parallel import pmap
from repro.parallel.shm import ShmEngine, active_segment_names
from repro.service import ServiceConfig, ShardSupervisor, SignatureService


def make_bucket(size, seed):
    rng = random.Random(seed)
    return [
        EdgeRecord(
            time=float(t),
            src=f"h{rng.randrange(12)}",
            dst=f"h{rng.randrange(12)}",
            weight=float(rng.randrange(1, 5)),
        )
        for t in range(size)
    ]


def run_service(jobs, buckets=3):
    config = ServiceConfig(
        scheme="tt",
        k=5,
        num_shards=2,
        window_records=32,
        jobs=jobs,
    )
    service = SignatureService(config)
    try:
        for seed in range(buckets):
            assert service.ingest(make_bucket(32, seed))
            service.pump()
        return {
            state.shard_id: {
                node: sig.entries for node, sig in state.engine.signatures.items()
            }
            for state in service.supervisor.shards
        }
    finally:
        service.close()


class TestServiceShmStrategy:
    def test_byte_identical_to_serial(self):
        assert run_service(jobs=2) == run_service(jobs=1)

    def test_close_releases_segments(self):
        run_service(jobs=2)
        assert active_segment_names() == []

    def test_supervisor_close_stops_workers(self):
        supervisor = ShardSupervisor(
            ServiceConfig(k=5, num_shards=2, window_records=32, jobs=2)
        )
        try:
            for seed in range(2):
                supervisor.ingest(
                    RecordBatch.from_records(make_bucket(32, seed), supervisor.labels)
                )
            assert multiprocessing.active_children()
        finally:
            supervisor.close()
        assert active_segment_names() == []
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self):
        config = ServiceConfig(jobs=2)
        service = SignatureService(config)
        service.close()
        service.close()

    def test_fleet_shares_one_engine(self):
        service = SignatureService(ServiceConfig(jobs=2))
        try:
            supervisor = service.supervisor
            assert isinstance(supervisor.compute_engine, ShmEngine)
            for state in supervisor.shards:
                assert state.engine.compute_engine is supervisor.compute_engine
        finally:
            service.close()

    def test_rebuild_uses_shared_pool(self):
        config = ServiceConfig(
            scheme="tt", k=5, num_shards=1, window_records=32, jobs=2,
        )
        service = SignatureService(config)
        try:
            for seed in range(2):
                service.ingest(make_bucket(32, seed))
                service.pump()
            state = service.supervisor.shards[0]
            before = {n: s.entries for n, s in state.engine.signatures.items()}
            # The restart path must construct the new engine with the same
            # shared pool and converge to identical signatures.
            service.supervisor._try_restart(state, opportunistic=False)
            rebuilt = service.supervisor.shards[0].engine
            assert rebuilt.compute_engine is service.supervisor.compute_engine
            after = {n: s.entries for n, s in rebuilt.signatures.items()}
            assert after == before
        finally:
            service.close()

    def test_serial_config_has_no_pool(self):
        service = SignatureService(ServiceConfig())
        try:
            assert service.supervisor.compute_engine is None
        finally:
            service.close()

    def test_all_cpus_follows_the_host(self, monkeypatch):
        monkeypatch.setattr(pmap, "available_cpus", lambda: 1)
        supervisor = ShardSupervisor(ServiceConfig(jobs=0))
        try:
            assert supervisor.compute_engine is None
        finally:
            supervisor.close()
        monkeypatch.setattr(pmap, "available_cpus", lambda: 2)
        supervisor = ShardSupervisor(ServiceConfig(jobs=0))
        try:
            assert isinstance(supervisor.compute_engine, ShmEngine)
            assert supervisor.compute_engine.workers == 2
        finally:
            supervisor.close()

    def test_negative_jobs_rejected(self):
        with pytest.raises(ServiceError, match="jobs"):
            ServiceConfig(jobs=-1)
