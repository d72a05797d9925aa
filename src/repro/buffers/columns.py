"""Columnar (structure-of-arrays) sample storage shared by the data plane.

The wire format is already columnar — a packed batch carries one contiguous
float64 params block and one float32 payload block — and the training loop
consumes matrices, so the only reason per-message Python objects ever existed
between the two was the buffer API.  This module removes that reason:

* :class:`ColumnBatch` is the unit that flows through the hot path: one
  ``(n, d_in)`` float64 inputs matrix, one ``(n, d_out)`` float32 targets
  matrix and int64 ``source_id``/``time_step`` vectors, all arrival-ordered.
  A drained wire chunk becomes a ``ColumnBatch`` with a single block copy
  (the adoption copy), the buffer inserts it with fancy-indexed row writes,
  and a gathered batch hands the forward pass its two matrices as-is.
* :class:`ColumnStore` is the preallocated backing storage of one training
  buffer: dense column blocks addressed by row slot.  Buffer policies map
  logical order (FIFO ring, FIRO list, Reservoir seen/unseen) to slot
  indices; the store only reads and writes rows.

:class:`SampleRecord` lives here too, as the thin per-sample compatibility
view: ``records()``/``record_at`` materialise row views over the column
blocks so every pre-columnar consumer (``buffer.get()``, occurrence
tracking, tests) keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.exceptions import RaggedBatchError

Array = np.ndarray

__all__ = ["SampleRecord", "ColumnBatch", "ColumnStore"]


@dataclass(frozen=True)
class SampleRecord:
    """One training sample held by a buffer.

    Attributes
    ----------
    inputs:
        The surrogate input vector ``(X, t)``.
    target:
        The flattened field ``u_t_X`` (float32).
    source_id:
        Identifier of the producing simulation (ensemble member).
    time_step:
        Time-step index within that simulation.
    """

    inputs: Array
    target: Array
    source_id: int = -1
    time_step: int = -1

    def key(self) -> Tuple[int, int]:
        """Unique identity of the sample within a study."""
        return (self.source_id, self.time_step)


class ColumnBatch:
    """An arrival-ordered run of samples as parallel columns.

    ``inputs`` is ``(n, d_in)`` float64 and ``targets`` ``(n, d_out)``
    float32; every row of a batch has the same widths (a step run whose
    widths change is split into several batches).  ``sequence_numbers`` is
    optional — the buffers do not store it, so batches gathered from a store
    carry ``None``.

    A batch owns its columns (or shares them with sibling slices); nothing
    downstream mutates them, which is what lets slices and row views be
    handed out freely.
    """

    __slots__ = ("inputs", "targets", "source_ids", "time_steps", "sequence_numbers")

    def __init__(
        self,
        inputs: Array,
        targets: Array,
        source_ids: Array,
        time_steps: Array,
        sequence_numbers: Optional[Array] = None,
    ) -> None:
        self.inputs = inputs
        self.targets = targets
        self.source_ids = source_ids
        self.time_steps = time_steps
        self.sequence_numbers = sequence_numbers

    def __len__(self) -> int:
        return len(self.source_ids)

    def __getitem__(self, index: slice) -> "ColumnBatch":
        """Slice into a sub-batch of column *views* (no copies)."""
        if not isinstance(index, slice):
            raise TypeError("ColumnBatch supports slice indexing only")
        seq = self.sequence_numbers
        return ColumnBatch(
            self.inputs[index],
            self.targets[index],
            self.source_ids[index],
            self.time_steps[index],
            None if seq is None else seq[index],
        )

    def compatible_with(self, other: "ColumnBatch") -> bool:
        """True when ``other``'s rows could be rows of this batch (concat-safe)."""
        return (
            self.inputs.dtype == other.inputs.dtype
            and self.targets.dtype == other.targets.dtype
            and self.inputs.shape[1:] == other.inputs.shape[1:]
            and self.targets.shape[1:] == other.targets.shape[1:]
        )

    def compress(self, keep: Array) -> "ColumnBatch":
        """Rows where the boolean ``keep`` mask is True, as fresh columns."""
        seq = self.sequence_numbers
        return ColumnBatch(
            self.inputs[keep],
            self.targets[keep],
            self.source_ids[keep],
            self.time_steps[keep],
            None if seq is None else seq[keep],
        )

    def keys(self) -> List[Tuple[int, int]]:
        """Per-row ``(source_id, time_step)`` identities, in order."""
        return list(zip(self.source_ids.tolist(), self.time_steps.tolist()))

    def records(self) -> List[SampleRecord]:
        """The per-sample compatibility view: one record per row.

        Records hold row views sharing this batch's blocks, so a batch of
        ``n`` records costs ``n`` small objects but zero copies.
        """
        ids = self.source_ids.tolist()
        steps = self.time_steps.tolist()
        inputs = self.inputs
        targets = self.targets
        return [
            SampleRecord(inputs[row], targets[row], ids[row], steps[row])
            for row in range(len(ids))
        ]

    @classmethod
    def concat(cls, chunks: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate compatible chunks (see :meth:`compatible_with`)."""
        if len(chunks) == 1:
            return chunks[0]
        seqs = [chunk.sequence_numbers for chunk in chunks]
        return cls(
            np.concatenate([chunk.inputs for chunk in chunks]),
            np.concatenate([chunk.targets for chunk in chunks]),
            np.concatenate([chunk.source_ids for chunk in chunks]),
            np.concatenate([chunk.time_steps for chunk in chunks]),
            None if any(seq is None for seq in seqs) else np.concatenate(seqs),
        )

    @classmethod
    def from_records(cls, records: Sequence[SampleRecord]) -> "ColumnBatch":
        """Columnise a record list (one-row puts, tests and benchmarks).

        Raises ``ValueError`` unless every record holds 1-D inputs and
        targets of the same widths.
        """
        inputs = np.stack([np.asarray(r.inputs, dtype=np.float64) for r in records])
        targets = np.stack([np.asarray(r.target, dtype=np.float32) for r in records])
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError("records must hold 1-D inputs and targets")
        count = len(records)
        return cls(
            inputs,
            targets,
            np.fromiter((r.source_id for r in records), np.int64, count),
            np.fromiter((r.time_step for r in records), np.int64, count),
        )


class ColumnStore:
    """Preallocated structure-of-arrays backing one training buffer.

    The store is pure storage: it never tracks which rows are live.  The
    owning buffer's policy maps logical positions to row slots and is the
    single reader/writer, holding the buffer lock around every call — in
    particular a policy frees slots and gathers their rows under the *same*
    lock acquisition, so a freed slot can never be overwritten before its
    row has been copied out.

    The column blocks are allocated on the first write, since the row
    widths are only known then, and fix the store's widths for good:
    :meth:`admit` refuses a batch of other widths with
    :class:`RaggedBatchError` before the policy allocates any slot for it.
    Writes copy the row data (cast to the column dtypes); that is the single
    adoption copy of the put path.
    """

    __slots__ = ("capacity", "inputs", "targets", "source_ids", "time_steps")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self.inputs: Optional[Array] = None
        self.targets: Optional[Array] = None
        self.source_ids = np.full(self.capacity, -1, dtype=np.int64)
        self.time_steps = np.full(self.capacity, -1, dtype=np.int64)

    def admit(self, batch: ColumnBatch) -> None:
        """Check that ``batch`` fits the columns, allocating them on first use."""
        if self.inputs is None:
            self.inputs = np.empty((self.capacity, batch.inputs.shape[1]), dtype=np.float64)
            self.targets = np.empty((self.capacity, batch.targets.shape[1]), dtype=np.float32)
        elif (
            batch.inputs.shape[1] != self.inputs.shape[1]
            or batch.targets.shape[1] != self.targets.shape[1]
        ):
            raise RaggedBatchError(
                f"batch widths (inputs {batch.inputs.shape[1]}, targets "
                f"{batch.targets.shape[1]}) differ from the buffer's (inputs "
                f"{self.inputs.shape[1]}, targets {self.targets.shape[1]})"
            )

    def write_batch(self, slots: Array, batch: ColumnBatch, offset: int = 0) -> None:
        """Insert ``batch[offset:offset + len(slots)]`` at ``slots``.

        One fancy-indexed write per column; ``batch`` must have passed
        :meth:`admit`.
        """
        rows = slice(offset, offset + len(slots))
        self.inputs[slots] = batch.inputs[rows]
        self.targets[slots] = batch.targets[rows]
        self.source_ids[slots] = batch.source_ids[rows]
        self.time_steps[slots] = batch.time_steps[rows]

    # ------------------------------------------------------------------ reads
    def gather(self, slots: Array) -> ColumnBatch:
        """Rows at ``slots`` as a fresh :class:`ColumnBatch`.

        Fancy indexing copies, so the returned batch owns its columns and
        stays valid after the slots are recycled.
        """
        ids = self.source_ids[slots]
        steps = self.time_steps[slots]
        if self.inputs is None:
            return ColumnBatch(
                np.empty((0, 0), dtype=np.float64),
                np.empty((0, 0), dtype=np.float32),
                ids,
                steps,
            )
        return ColumnBatch(self.inputs[slots], self.targets[slots], ids, steps)

    def record_at(self, slot: int) -> SampleRecord:
        """One row as a standalone record (the row is copied out)."""
        return SampleRecord(
            self.inputs[slot].copy(),
            self.targets[slot].copy(),
            int(self.source_ids[slot]),
            int(self.time_steps[slot]),
        )
