"""Columnar ingestion: adoption semantics and the record compatibility view.

The SoA data plane carries :class:`ColumnBatch` chunks from the wire to the
forward pass.  These tests pin its contracts: an adopted chunk is copied
**exactly once** into the column store, a chunk whose widths differ from the
buffer's columns is refused and counted without stopping ingestion, and
:class:`SampleRecord` remains available everywhere as a thin view over the
columns — same fields, same ``key()``, zero extra copies.
"""

import logging

import numpy as np
import pytest

from repro.buffers import FIFOBuffer, make_buffer
from repro.buffers.columns import ColumnBatch, ColumnStore, SampleRecord
from repro.parallel.messages import (
    ClientFinished,
    ClientHello,
    TimeStepMessage,
    column_batch_to_messages,
    columnize,
    pack_many,
    unpack_columns,
    unpack_many,
)
from repro.parallel.mp_transport import MultiprocessTransport
from repro.parallel.transport import MessageRouter
from repro.server.aggregator import DataAggregator
from repro.server.fault import MessageLog

FIELD_LEN = 6


def make_steps(count, client_id=0, start=0, field_len=FIELD_LEN):
    return [
        TimeStepMessage(
            client_id=client_id,
            time_step=start + index,
            time_value=(start + index) * 0.5,
            parameters=(1.5, -2.0),
            payload=np.arange(field_len, dtype=np.float32) * (start + index + 1),
            sequence_number=100 + start + index,
        )
        for index in range(count)
    ]


# ------------------------------------------------------------ wire decoding
def test_unpack_columns_matches_unpack_many_fieldwise():
    wire = pack_many(make_steps(9, client_id=3))
    chunk = unpack_columns(wire)
    messages = unpack_many(wire)
    assert chunk is not None and len(chunk) == len(messages)
    for row, message in enumerate(messages):
        assert chunk.source_ids[row] == message.client_id
        assert chunk.time_steps[row] == message.time_step
        assert chunk.sequence_numbers[row] == message.sequence_number
        np.testing.assert_array_equal(chunk.targets[row], message.payload)
        np.testing.assert_array_equal(
            chunk.inputs[row], [*message.parameters, message.time_value]
        )


def test_unpack_columns_owns_its_memory():
    wire = pack_many(make_steps(4))
    chunk = unpack_columns(wire)
    wire_bytes = np.frombuffer(wire, dtype=np.uint8)
    for column in (chunk.inputs, chunk.targets, chunk.source_ids, chunk.time_steps):
        assert not np.shares_memory(column, wire_bytes)
    assert chunk.inputs.dtype == np.float64
    assert chunk.targets.dtype == np.float32


def test_unpack_columns_declines_control_and_ragged_batches():
    steps = make_steps(3)
    assert unpack_columns(pack_many([ClientHello(client_id=0)])) is None
    assert unpack_columns(pack_many([*steps, ClientFinished(client_id=0)])) is None
    ragged = steps + make_steps(1, start=3, field_len=FIELD_LEN + 2)
    assert unpack_columns(pack_many(ragged)) is None


def test_columnize_and_back_round_trips_message_runs():
    steps = make_steps(5, client_id=2)
    mixed = [ClientHello(client_id=2), *steps, ClientFinished(client_id=2)]
    items = columnize(mixed)
    assert isinstance(items[0], ClientHello)
    assert isinstance(items[1], ColumnBatch) and len(items[1]) == 5
    assert isinstance(items[2], ClientFinished)
    assert column_batch_to_messages(items[1]) == steps


# ---------------------------------------------------------------- ColumnBatch
def test_column_batch_slices_are_views_not_copies():
    chunk = unpack_columns(pack_many(make_steps(8)))
    part = chunk[2:6]
    assert len(part) == 4
    assert np.shares_memory(part.inputs, chunk.inputs)
    assert np.shares_memory(part.targets, chunk.targets)
    np.testing.assert_array_equal(part.time_steps, [2, 3, 4, 5])


def test_column_batch_compress_and_concat():
    chunk = unpack_columns(pack_many(make_steps(6)))
    keep = np.array([True, False, True, True, False, True])
    kept = chunk.compress(keep)
    np.testing.assert_array_equal(kept.time_steps, [0, 2, 3, 5])
    rejoined = ColumnBatch.concat([kept[:2], kept[2:]])
    np.testing.assert_array_equal(rejoined.time_steps, kept.time_steps)
    np.testing.assert_array_equal(rejoined.targets, kept.targets)
    assert chunk.compatible_with(kept)


def test_column_batch_records_view_is_zero_copy_and_key_compatible():
    chunk = unpack_columns(pack_many(make_steps(5, client_id=7)))
    records = chunk.records()
    assert [record.key() for record in records] == chunk.keys()
    for row, record in enumerate(records):
        assert isinstance(record, SampleRecord)
        assert record.inputs.base is chunk.inputs
        assert record.target.base is chunk.targets
        assert record.source_id == 7 and record.time_step == row


def test_from_records_round_trip():
    original = unpack_columns(pack_many(make_steps(4)))
    rebuilt = ColumnBatch.from_records(original.records())
    np.testing.assert_array_equal(rebuilt.inputs, original.inputs)
    np.testing.assert_array_equal(rebuilt.targets, original.targets)
    np.testing.assert_array_equal(rebuilt.source_ids, original.source_ids)


# ----------------------------------------------------------------- ColumnStore
def test_store_insert_copies_the_chunk_exactly_once():
    """put_many(ColumnBatch) adopts by one vectorized copy into the columns;
    mutating the source afterwards must not reach the stored rows."""
    buffer = FIFOBuffer(capacity=16)
    chunk = unpack_columns(pack_many(make_steps(6)))
    assert buffer.put_many(chunk) == 6
    store = buffer._store
    assert not np.shares_memory(store.targets, chunk.targets)
    assert not np.shares_memory(store.inputs, chunk.inputs)
    chunk.targets[:] = -1.0  # the store must hold its own copy
    batch = buffer.get_batch_columns(6, timeout=1.0)
    np.testing.assert_array_equal(
        batch.targets[2], np.arange(FIELD_LEN, dtype=np.float32) * 3
    )


def test_gathered_batches_survive_slot_recycling():
    """A drawn batch owns its rows: refilling the freed slots cannot corrupt
    batches already handed to the trainer."""
    buffer = FIFOBuffer(capacity=4)
    buffer.put_many(unpack_columns(pack_many(make_steps(4))))
    first = buffer.get_batch_columns(4, timeout=1.0)
    snapshot = first.targets.copy()
    buffer.put_many(unpack_columns(pack_many(make_steps(4, start=50))))
    buffer.get_batch_columns(4, timeout=1.0)
    np.testing.assert_array_equal(first.targets, snapshot)


@pytest.mark.parametrize("kind", ["fifo", "firo", "reservoir"])
def test_column_insert_equals_record_insert(kind):
    """Inserting a chunk and putting its records one by one are indistinguishable."""
    chunk = unpack_columns(pack_many(make_steps(12)))
    by_columns = make_buffer(kind, capacity=32, threshold=0, seed=11)
    by_records = make_buffer(kind, capacity=32, threshold=0, seed=11)
    assert by_columns.put_many(chunk) == 12
    for record in chunk.records():
        by_records.put(record)
    assert by_columns.snapshot() == by_records.snapshot()
    for buffer in (by_columns, by_records):
        buffer.signal_reception_over()
    a = by_columns.get_batch_columns(12, timeout=1.0)
    b = by_records.get_batch_columns(12, timeout=1.0)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.source_ids, b.source_ids)
    np.testing.assert_array_equal(a.time_steps, b.time_steps)


def test_ragged_chunk_is_refused_counted_and_survived(caplog):
    """A chunk whose target width differs from the buffer's columns is
    dropped with a warning and counted; the chunks after it still land, and
    routed = ingested + duplicates + dropped holds.  Fed once as separate
    in-process messages (columnize) and once as one packed wire batch that
    mixes control messages with a width change."""
    steps = [
        *make_steps(4),
        *make_steps(3, start=4, field_len=FIELD_LEN + 2),
        *make_steps(4, start=7),
    ]
    stream = [ClientHello(client_id=0), *steps, ClientFinished(client_id=0)]
    inproc = MessageRouter(num_server_ranks=1)
    for message in stream:
        inproc.push(0, message)
    wire = MultiprocessTransport(num_server_ranks=1)
    try:
        wire.push_many(0, stream)
        for transport in (inproc, wire):
            items = []
            while len(items) < 5:
                polled = transport.poll_batches(0, max_messages=64, timeout=5.0)
                assert polled, "transport delivered nothing"
                items.extend(polled)
            assert not any(isinstance(item, TimeStepMessage) for item in items)
            assert [len(item) for item in items[1:4]] == [4, 3, 4]

            buffer = FIFOBuffer(capacity=64)
            aggregator = DataAggregator(
                rank=0,
                router=transport,
                buffer=buffer,
                expected_clients=1,
                message_log=MessageLog(),
            )
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.server.aggregator"):
                aggregator._handle_items(items)
            assert "dropping 3 samples" in caplog.text
            stats = aggregator.stats
            assert stats.samples_received == 8
            assert stats.samples_dropped == 3
            assert stats.duplicates_discarded == 0
            routed = transport.stats.per_rank_messages[0] - 2  # minus hello/finished
            accounted = stats.samples_received + stats.duplicates_discarded + stats.samples_dropped
            assert routed == accounted == 11
            assert stats.clients_finished == {0}
            assert buffer.reception_over
            batch = buffer.get_batch_columns(16, timeout=1.0)
            assert batch.time_steps.tolist() == [0, 1, 2, 3, 7, 8, 9, 10]
    finally:
        wire.shutdown()


def test_record_at_copies_dense_rows_out():
    store = ColumnStore(2)
    row = ColumnBatch.from_records([SampleRecord(np.ones(3), np.ones(2, np.float32), 5, 9)])
    store.admit(row)
    store.write_batch(np.array([0]), row)
    record = store.record_at(0)
    assert record.key() == (5, 9)
    store.inputs[0] = -1.0
    np.testing.assert_array_equal(record.inputs, np.ones(3))
