"""Service persistence through the history store: restart, endpoints.

The acceptance bar: a killed-and-restarted service process (same store
directory, fresh objects) answers ``/signature`` and ``/history`` from the
store alone, and keeps numbering windows correctly as new traffic arrives.
A checkpoint directory and a history directory are the same store.
"""

from __future__ import annotations

import json

import pytest

from repro.core.packed import SignaturePack
from repro.service import STATE_CLOSED, ServiceConfig
from repro.service.http import SignatureService


@pytest.fixture
def config():
    return ServiceConfig(num_shards=2, window_records=8)


@pytest.fixture
def fill(records_factory):
    def _fill(service, *, count=32, seed=0, start=0.0):
        assert service.ingest(records_factory(count, seed=seed, start=start))
        return service.pump()

    return _fill


def make_service(config, tmp_path):
    return SignatureService(
        config,
        checkpoint_dir=tmp_path / "ckpt",
        history_dir=tmp_path / "hist",
    )


def get(service, path):
    status, _, body = service.respond("GET", path)
    return status, json.loads(body)


class TestHistoryEndpoints:
    def test_history_endpoint_answers(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service)
        node = "h1"
        status, payload = get(service, f"/history/{node}")
        assert status == 200
        assert payload["node"] == node
        assert payload["window"] == service.supervisor.window
        assert not payload["partial"]
        for match in payload["matches"]:
            assert match["node"] != node
            assert match["distance"] >= 0.0
        service.close()

    def test_trajectory_endpoint_covers_all_windows(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        closed = fill(service)
        assert closed == 4
        status, payload = get(service, "/trajectory/h1")
        assert status == 200
        assert payload["windows"] == sorted(payload["windows"])
        assert payload["windows"][-1] <= service.supervisor.window
        for point in payload["trajectory"]:
            assert point["signature"], "stored trajectory points carry entries"
        service.close()

    def test_trajectory_range_params(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service)
        status, payload = get(service, "/trajectory/h1?from=1&to=3")
        assert status == 200
        assert all(1 <= w < 3 for w in payload["windows"])
        service.close()

    def test_unknown_node_is_404(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service)
        status, _ = get(service, "/history/no-such-node")
        assert status == 404
        status, _ = get(service, "/trajectory/no-such-node")
        assert status == 404
        service.close()

    def test_without_store_directory_is_404(self, config, fill):
        service = SignatureService(config)
        fill(service)
        status, payload = get(service, "/history/h1")
        assert status == 404
        assert "history store" in payload["error"]
        service.close()


class TestServiceRestart:
    def test_restart_answers_from_store_alone(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service)
        signatures = {}
        histories = {}
        for node in ("h1", "h2", "h3"):
            _, signatures[node] = get(service, f"/signature/{node}")
            _, histories[node] = get(service, f"/history/{node}")
        window = service.supervisor.window
        service.close()

        # "Kill" the process: fresh objects, no in-memory state carried over.
        revived = make_service(config, tmp_path)
        assert revived.supervisor.window == window
        for node in ("h1", "h2", "h3"):
            status, payload = get(revived, f"/signature/{node}")
            assert status == 200
            assert payload["signature"] == signatures[node]["signature"]
            assert not payload["approximate"]
            status, payload = get(revived, f"/history/{node}")
            assert status == 200
            assert payload["matches"] == histories[node]["matches"]
        revived.close()

    def test_restart_answers_every_read_endpoint_unchanged(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service, count=64)
        nodes = sorted(
            {owner for state in service.supervisor.shards for owner in state.engine.signatures}
        )
        paths = [
            f"/{endpoint}/{node}"
            for node in nodes
            for endpoint in ("signature", "anomaly", "similar", "history")
        ] + [f"/similar/{node}?k=20" for node in nodes] + [
            f"/history/{node}?k=20&window=5" for node in nodes
        ]
        before = {path: service.respond("GET", path)[::2] for path in paths}
        window = service.supervisor.window
        service.close()

        revived = make_service(config, tmp_path)
        assert revived.supervisor.window == window
        for state in revived.supervisor.shards:
            # The restored windows are pack views over the stored columns.
            assert isinstance(state.engine.signatures, SignaturePack)
            assert isinstance(state.engine.prev_signatures, SignaturePack)
        assert {path: revived.respond("GET", path)[::2] for path in paths} == before
        assert sum(status == 200 for status, _body in before.values()) > 3 * len(nodes)
        revived.close()

    def test_ingest_after_restart_continues_numbering(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service)
        window = service.supervisor.window
        service.close()

        revived = make_service(config, tmp_path)
        fill(revived, seed=1, start=100.0)
        assert revived.supervisor.window == window + 4
        status, payload = get(revived, "/trajectory/h1")
        assert status == 200
        assert payload["windows"][-1] > window
        revived.close()

    def test_approximate_answers_after_restart_name_the_window(
        self, config, tmp_path, fill, records_factory
    ):
        """Regression: the sketch tier started counting at -1 after a
        restart, so one close later its answers named window 0."""
        service = make_service(config, tmp_path)
        fill(service, count=24)
        service.close()

        revived = make_service(config, tmp_path)
        assert revived.supervisor.window == 2
        fill(revived, count=8, seed=1, start=100.0)
        node = records_factory(8, seed=1, start=100.0)[0].src
        state = revived.supervisor.state_for(node)
        while state.breaker.state == STATE_CLOSED:
            state.breaker.record_failure()
        status, payload = get(revived, f"/signature/{node}")
        assert status == 200
        assert payload["approximate"]
        assert payload["window"] == 3
        _, payload = get(revived, f"/anomaly/{node}")
        assert payload["approximate"]
        assert payload["window"] == 3
        revived.close()

    def test_crash_rebuild_after_restart_keeps_state(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        fill(service)
        service.close()

        revived = make_service(config, tmp_path)
        fill(revived, seed=1, start=100.0)
        supervisor = revived.supervisor
        for state in supervisor.shards:
            before = {
                owner: dict(sig.entries)
                for owner, sig in state.engine.signatures.items()
            }
            window_before = state.engine.window
            supervisor._try_restart(state, opportunistic=False)
            assert state.engine is not None, state.last_error
            assert state.engine.window == window_before
            after = {
                owner: dict(sig.entries)
                for owner, sig in state.engine.signatures.items()
            }
            assert before == after, (
                f"shard {state.shard_id} diverged in a rebuild after restart"
            )
        revived.close()

    def test_heal_before_any_ingest_after_restart_keeps_both_windows(
        self, config, tmp_path, fill
    ):
        """Regression: a rebuild over an empty log re-seeded only the
        restored window, so a heal right after a restart lost the window
        before it and ``/anomaly`` answered no persistence."""
        service = make_service(config, tmp_path)
        fill(service, count=64)
        nodes = sorted(
            {owner for state in service.supervisor.shards for owner in state.engine.signatures}
        )
        service.close()

        revived = make_service(config, tmp_path)
        before = {node: revived.respond("GET", f"/anomaly/{node}")[::2] for node in nodes}
        for shard in range(config.num_shards):
            assert revived.supervisor.heal(shard)
        assert {node: revived.respond("GET", f"/anomaly/{node}")[::2] for node in nodes} == before
        assert any(json.loads(body)["persistence"] is not None for _, body in before.values())
        revived.close()

    def test_checkpoint_dir_alone_restores_and_answers_history(
        self, config, tmp_path, fill
    ):
        service = SignatureService(config, checkpoint_dir=tmp_path / "ckpt")
        fill(service)
        _, signature = get(service, "/signature/h1")
        _, history = get(service, "/history/h1")
        window = service.supervisor.window
        service.close()

        revived = SignatureService(config, checkpoint_dir=tmp_path / "ckpt")
        assert revived.supervisor.window == window
        status, payload = get(revived, "/signature/h1")
        assert status == 200
        assert payload["signature"] == signature["signature"]
        status, payload = get(revived, "/history/h1")
        assert status == 200
        assert payload["matches"] == history["matches"]
        revived.close()

    def test_restart_with_empty_history_is_fresh(self, config, tmp_path, fill):
        service = make_service(config, tmp_path)
        assert service.supervisor.window == -1
        fill(service)
        service.close()
