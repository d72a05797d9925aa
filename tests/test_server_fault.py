"""Tests for the fault-tolerance primitives (message log, heartbeats, checkpointer)."""

import numpy as np
import pytest

from repro.nn import Adam, MLPConfig, build_mlp, state_dict_equal
from repro.server.checkpointing import ServerCheckpointer
from repro.server.fault import HeartbeatMonitor, MessageLog
from repro.utils.exceptions import CheckpointError


def register(log, client_id, time_step):
    """One key through ``register_many``; True when the key was new."""
    return log.register_many(np.array([client_id]), np.array([time_step])) is None


def test_message_log_deduplicates():
    log = MessageLog()
    assert register(log, 1, 1)
    assert register(log, 1, 2)
    assert not register(log, 1, 1)  # duplicate after client restart
    assert register(log, 2, 1)      # other client, same step index: not a duplicate
    assert log.duplicates_discarded == 1
    assert log.count(1) == 2
    assert log.received_steps(1) == {1, 2}


def test_message_log_state_roundtrip():
    log = MessageLog()
    for step in range(5):
        register(log, 7, step)
    state = log.state()
    restored = MessageLog()
    restored.restore(state)
    assert restored.received_steps(7) == set(range(5))
    assert not register(restored, 7, 3)


def test_heartbeat_monitor_detects_silent_clients():
    monitor = HeartbeatMonitor(timeout=10.0)
    monitor.touch(1, timestamp=0.0)
    monitor.touch(2, timestamp=5.0)
    unresponsive = monitor.unresponsive_clients(now=12.0)
    assert [cid for cid, _ in unresponsive] == [1]
    silence = dict(unresponsive)[1]
    assert silence == pytest.approx(12.0)


def test_heartbeat_monitor_ignores_finished_clients():
    monitor = HeartbeatMonitor(timeout=1.0)
    monitor.touch(1, timestamp=0.0)
    monitor.mark_finished(1)
    assert monitor.unresponsive_clients(now=100.0) == []
    assert monitor.tracked_clients() == [1]


def test_heartbeat_monitor_progress_monotone():
    monitor = HeartbeatMonitor()
    monitor.touch(3, progress=5.0, timestamp=0.0)
    monitor.touch(3, progress=2.0, timestamp=1.0)
    assert monitor._clients[3].progress == 5.0


def _model():
    return build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=4, seed=0))


def test_server_checkpointer_save_restore(tmp_path):
    model = _model()
    optimizer = Adam(model.parameters(), lr=1e-3)
    log = MessageLog()
    register(log, 0, 1)
    checkpointer = ServerCheckpointer(directory=tmp_path, interval_batches=10, rank=0)
    assert not checkpointer.should_checkpoint(5)
    assert checkpointer.should_checkpoint(10)
    checkpointer.save(model, optimizer, batches_trained=10, samples_trained=100, message_log=log)

    fresh_model = build_mlp(MLPConfig(in_features=3, hidden_sizes=(8,), out_features=4, seed=9))
    fresh_optimizer = Adam(fresh_model.parameters(), lr=1e-3)
    fresh_log = MessageLog()
    metadata = ServerCheckpointer(directory=tmp_path, rank=0).restore(
        fresh_model, fresh_optimizer, fresh_log
    )
    assert metadata["batches_trained"] == 10
    assert state_dict_equal(model.state_dict(), fresh_model.state_dict())
    assert not register(fresh_log, 0, 1)  # dedup state survived the restart


def test_server_checkpointer_prunes_old_generations(tmp_path):
    model = _model()
    checkpointer = ServerCheckpointer(directory=tmp_path, interval_batches=1, rank=0, keep_last=2)
    for generation in range(4):
        checkpointer.save(model, None, batches_trained=generation, samples_trained=0)
    archives = list(tmp_path.glob("*.npz"))
    assert len(archives) == 2


def test_server_checkpointer_restore_without_checkpoint(tmp_path):
    with pytest.raises(CheckpointError):
        ServerCheckpointer(directory=tmp_path, rank=0).restore(_model())


def test_server_checkpointer_per_rank_namespacing(tmp_path):
    model = _model()
    ServerCheckpointer(directory=tmp_path, rank=0).save(model, None, 1, 10)
    ServerCheckpointer(directory=tmp_path, rank=1).save(model, None, 2, 20)
    meta0 = ServerCheckpointer(directory=tmp_path, rank=0).restore(_model())
    meta1 = ServerCheckpointer(directory=tmp_path, rank=1).restore(_model())
    assert meta0["batches_trained"] == 1
    assert meta1["batches_trained"] == 2
