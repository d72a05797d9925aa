"""Instrumentation installed by the benchmark, from outside the program.

Two pieces, both installed in the study process before ``OnlineStudy.run``:

* :class:`StalenessStamps` -- the only instrumentation of a measured run.  It
  stamps ``ClientAPI.send`` of each ``(client, step)`` and the first batch
  returned by ``TrainingBuffer.get_batch_columns`` that holds it.
* :class:`Tracer` -- the traced run's spans.  It wraps the public functions of
  each layer, records per-thread span time, self time (span time minus child
  spans) and call counts.

Forked client processes inherit both through ``fork``.  The accumulators live
in anonymous shared mappings (:class:`SharedBlock`) made before launch, so a
client writes its stamps and spans where the study process reads them.  Each
client process writes only its own row, so no lock crosses a process
boundary and a killed client cannot wedge the others.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.buffers.base import TrainingBuffer
from repro.buffers.stats import OccurrenceTracker
from repro.client.api import ClientAPI
from repro.client.simulation_client import SimulationClient
from repro.launcher.launcher import Launcher
from repro.nn.containers import Sequential
from repro.nn.losses import MSELoss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.parallel.transport import Transport
from repro.server import trainer as trainer_module
from repro.server.trainer import TrainingWorker
from repro.server.validation import Validator
from repro.solvers.heat2d import HeatEquationSolver

Array = np.ndarray


class SharedBlock:
    """A float64 array in an anonymous ``MAP_SHARED`` mapping.

    Made before the launcher forks, it is the same memory in the study
    process and in every forked client.
    """

    def __init__(self, shape: Tuple[int, ...], fill: float = 0.0) -> None:
        size = int(np.prod(shape)) * 8
        self._map = mmap.mmap(-1, max(size, 8))
        self.array = np.frombuffer(self._map, dtype=np.float64, count=size // 8).reshape(shape)
        if fill:
            self.array.fill(fill)
        #: Flat view for cheap scalar updates on the hot path.
        self.flat = memoryview(self._map).cast("d")


# --------------------------------------------------------------------- stamps
class StalenessStamps:
    """Send and first-use times of every ``(client, step)`` sample, on two clocks.

    Staleness is the time from ``ClientAPI.send`` of a step to the first
    batch that holds it.  Each stamp reads two clocks:

    * ``time.monotonic``, one wall clock for every process on the host;
    * the CPU-time clock of the study process (Linux's per-process CPU clock,
      which its forked clients can read too).  It advances only while the
      study process runs, so the time a shared host takes its cores away
      does not count; the benchmark gates staleness on this clock.

    A resend after a client restart keeps the first send times.
    """

    def __init__(self, num_clients: int, num_steps: int) -> None:
        self.num_steps = int(num_steps)
        self._cpu_clock = ((~os.getpid()) << 3) | 2  # MAKE_PROCESS_CPUCLOCK(pid, SCHED)
        self.sent = SharedBlock((2, num_clients, num_steps), fill=np.nan)
        self.first_used = np.full((2, num_clients, num_steps), np.nan)
        self._lock = threading.Lock()

    def _now(self) -> Tuple[float, float]:
        return time.monotonic(), time.clock_gettime(self._cpu_clock)

    def on_send(self, client_id: int, time_step: int) -> None:
        index = client_id * self.num_steps + time_step - 1
        flat = self.sent.flat
        if flat[index] != flat[index]:  # NaN: first send of this step
            flat[index], flat[index + self.sent.array[0].size] = self._now()

    def on_batch(self, source_ids: Array, time_steps: Array) -> None:
        now = np.asarray(self._now())
        rows = np.asarray(source_ids, dtype=np.intp)
        cols = np.asarray(time_steps, dtype=np.intp) - 1
        with self._lock:
            fresh = np.isnan(self.first_used[0, rows, cols])
            self.first_used[:, rows[fresh], cols[fresh]] = now[:, None]

    def staleness_ms(self) -> Tuple[Array, Array]:
        """Wall and study-CPU staleness of every sample sent and trained on."""
        delta = (self.first_used - self.sent.array) * 1000.0
        both = np.isfinite(delta).all(axis=0)
        return delta[0][both], delta[1][both]

    def install(self) -> None:
        stamps = self
        send = ClientAPI.send
        get_batch_columns = TrainingBuffer.get_batch_columns

        def stamped_send(self, time_step, time_value, parameters, field):
            stamps.on_send(self.client_id, time_step)
            return send(self, time_step, time_value, parameters, field)

        def stamped_get_batch_columns(self, batch_size, timeout=None):
            batch = get_batch_columns(self, batch_size, timeout)
            if len(batch):
                stamps.on_batch(batch.source_ids, batch.time_steps)
            return batch

        ClientAPI.send = stamped_send
        TrainingBuffer.get_batch_columns = stamped_get_batch_columns


# ---------------------------------------------------------------------- spans
#: Span metrics: wall time per call, self time and call count are recorded.
SPANS = (
    "solvers.factor_s",
    "solvers.step_s",
    "client.send_s",
    "client.finalize_s",
    "launcher.client_lifetime_s",
    "parallel.poll_s",
    "buffers.put_s",
    "buffers.get_s",
    "nn.forward_s",
    "nn.loss_s",
    "nn.backward_s",
    "nn.zero_grad_s",
    "optim.step_s",
    "ddp.sync_s",
    "validation.evaluate_s",
    "trainer.bookkeeping_s",
    "trainer.run_s",
)
#: Plain counters, recorded in the count column of their own row.
COUNTERS = (
    "parallel.poll_empty",
    "buffers.put_samples",
    "buffers.get_batches",
    "ddp.sync_calls",
    "ddp.bytes",
)
#: Trainer-thread spans that wait on other threads rather than compute.
TRAINER_WAITS = ("buffers.get_s", "ddp.sync_s")

_TOTAL, _SELF, _COUNT = 0, 1, 2


class Tracer:
    """Per-thread span accumulators in a shared block.

    Rows ``[0, thread_rows)`` belong to threads of the study process, in the
    order they first record a span.  Row ``thread_rows + client_id`` belongs
    to a forked client process; the last row catches anything else.
    """

    def __init__(self, num_clients: int, thread_rows: int = 64) -> None:
        self.names: List[str] = list(SPANS) + list(COUNTERS)
        self.index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self.thread_rows = int(thread_rows)
        self.rows = self.thread_rows + int(num_clients) + 1
        self.block = SharedBlock((self.rows, len(self.names), 3))
        self._flat = self.block.flat
        self._width = len(self.names) * 3
        self._local = threading.local()
        self._row_lock = threading.Lock()
        self._next_row = 0
        self._generation = 0
        self._child_row: Optional[int] = None
        os.register_at_fork(after_in_child=self._after_fork)

    # ----------------------------------------------------------- thread state
    def _after_fork(self) -> None:
        self._generation += 1
        self._child_row = self.rows - 1

    def enter_client_process(self, client_id: int) -> None:
        """Route the spans of this forked client to its own row."""
        self._child_row = self.thread_rows + int(client_id)
        self._generation += 1

    def _state(self):
        local = self._local
        if getattr(local, "generation", -1) != self._generation:
            local.generation = self._generation
            local.stack = []
            if self._child_row is not None:
                local.row = self._child_row
            else:
                with self._row_lock:
                    row = self._next_row
                    self._next_row += 1
                local.row = row if row < self.thread_rows else self.rows - 1
        return local

    def _record(self, row: int, metric: int, total: float, own: float) -> None:
        base = row * self._width + metric * 3
        flat = self._flat
        flat[base] += total
        flat[base + 1] += own
        flat[base + 2] += 1.0

    def count(self, name: str, amount: float = 1.0) -> None:
        row = self._state().row
        self._flat[row * self._width + self.index[name] * 3 + _COUNT] += amount

    # ------------------------------------------------------------------ spans
    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable[[object, tuple], None]] = None) -> Callable:
        """Wrap ``fn`` in a span; ``after(result, args)`` may count its result.

        A call made inside a span of the same metric (a subclass delegating
        to its base) is not counted again.
        """
        metric = self.index[name]
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            if stack and stack[-1][0] == metric:
                return fn(*args, **kwargs)
            frame = [metric, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer._record(local.row, metric, elapsed, elapsed - frame[1])
            if after is not None:
                after(result, args)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time each ``next()`` of the generator ``fn`` returns, not the consumer."""
        metric = self.index[name]
        tracer = self

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                local = tracer._state()
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                elapsed = time.perf_counter() - start
                if local.stack:
                    local.stack[-1][1] += elapsed
                tracer._record(local.row, metric, elapsed, elapsed)
                yield item

        return traced

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every layer's public entry points (process-wide, irreversible)."""
        # Every transport backend must be imported for its class to be found.
        import repro.parallel.mp_transport  # noqa: F401
        import repro.parallel.shm_ring  # noqa: F401
        import repro.parallel.tcp_transport  # noqa: F401
        import repro.server.sharding  # noqa: F401

        tracer = self
        setattr(HeatEquationSolver, "__init__",
                self.wrap(HeatEquationSolver.__init__, "solvers.factor_s"))
        setattr(HeatEquationSolver, "iter_steps",
                self.wrap_generator(HeatEquationSolver.iter_steps, "solvers.step_s"))
        setattr(ClientAPI, "send", self.wrap(ClientAPI.send, "client.send_s"))
        setattr(ClientAPI, "finalize_communication",
                self.wrap(ClientAPI.finalize_communication, "client.finalize_s"))
        setattr(Launcher, "_run_client",
                self.wrap(Launcher._run_client, "launcher.client_lifetime_s"))

        run_client = SimulationClient.run

        def client_run(client, *args, **kwargs):
            if tracer._child_row is not None:
                tracer.enter_client_process(client.client_id)
            return run_client(client, *args, **kwargs)

        setattr(SimulationClient, "run", client_run)

        def count_poll(items, args):
            if not items:
                tracer.count("parallel.poll_empty")

        # Backends inherit ``poll_batches`` from mixins as well as from
        # ``Transport``: wrap every class on their MROs that defines one.
        owners = {owner for cls in [Transport, *_subclasses(Transport)]
                  for owner in cls.__mro__ if "poll_batches" in vars(owner)}
        for owner in owners:
            setattr(owner, "poll_batches",
                    self.wrap(vars(owner)["poll_batches"], "parallel.poll_s", count_poll))

        setattr(TrainingBuffer, "put_many", self.wrap(
            TrainingBuffer.put_many, "buffers.put_s",
            lambda inserted, args: tracer.count("buffers.put_samples", inserted)))
        setattr(TrainingBuffer, "get_batch_columns", self.wrap(
            TrainingBuffer.get_batch_columns, "buffers.get_s",
            lambda batch, args: tracer.count("buffers.get_batches") if len(batch) else None))

        setattr(Sequential, "forward", self.wrap(Sequential.forward, "nn.forward_s"))
        setattr(Sequential, "backward", self.wrap(Sequential.backward, "nn.backward_s"))
        setattr(Module, "zero_grad", self.wrap(Module.zero_grad, "nn.zero_grad_s"))
        setattr(MSELoss, "forward", self.wrap(MSELoss.forward, "nn.loss_s"))
        setattr(MSELoss, "backward", self.wrap(MSELoss.backward, "nn.loss_s"))
        setattr(Adam, "step", self.wrap(Adam.step, "optim.step_s"))

        def count_sync(result, args):
            model = args[0]
            tracer.count("ddp.sync_calls")
            tracer.count("ddp.bytes", sum(p.data.nbytes for p in model.parameters()))

        # The trainer calls ``sync_gradients`` through its own module's name,
        # and agrees with its peers on whether to continue once per batch;
        # both are rank synchronisation points.
        setattr(trainer_module, "sync_gradients",
                self.wrap(trainer_module.sync_gradients, "ddp.sync_s", count_sync))
        setattr(TrainingWorker, "_collective_continue",
                self.wrap(TrainingWorker._collective_continue, "ddp.sync_s"))
        setattr(Validator, "evaluate", self.wrap(Validator.evaluate, "validation.evaluate_s"))

        # Per-batch bookkeeping of the training loop: batch staging,
        # occurrence counting, buffer population snapshots.
        setattr(TrainingWorker, "_stack_batch",
                self.wrap(TrainingWorker._stack_batch, "trainer.bookkeeping_s"))
        setattr(OccurrenceTracker, "record_columns",
                self.wrap(OccurrenceTracker.record_columns, "trainer.bookkeeping_s"))
        for cls in [TrainingBuffer, *_subclasses(TrainingBuffer)]:
            if "snapshot" in vars(cls):
                setattr(cls, "snapshot",
                        self.wrap(vars(cls)["snapshot"], "trainer.bookkeeping_s"))
        setattr(TrainingWorker, "run", self.wrap(TrainingWorker.run, "trainer.run_s"))

    # ---------------------------------------------------------------- results
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-metric span time (``total``) and ``count``, summed over every row."""
        data = self.block.array.sum(axis=0)
        return {name: {"total": float(data[i, _TOTAL]), "count": float(data[i, _COUNT])}
                for i, name in enumerate(self.names)}

    def trainer_share(self, name: str) -> float:
        """Self time of span ``name`` on the training threads, over their wall time.

        For ``trainer.run_s`` this is the part of ``TrainingWorker.run`` that
        no other span covers.
        """
        data = self.block.array
        run = self.index["trainer.run_s"]
        rows = data[data[:, run, _COUNT] > 0]
        wall = float(rows[:, run, _TOTAL].sum())
        return float(rows[:, self.index[name], _SELF].sum()) / wall if wall > 0 else 0.0


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
