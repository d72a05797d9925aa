"""The benchmark's workloads and the inputs each one is generated from.

Every workload is a closed loop: a client sends its next time step when its
previous ``ClientAPI.send`` returned, and a full Reservoir buffer or bounded
transport channel (``CHANNEL_MESSAGES``) pushes back.  All run the
heat-equation case on a 32x32 grid with batch size 10, no artificial delays
and at most two clients at once (one per core of the reference host),
launched from one launcher.  Forked clients run under the program's
heartbeat watchdog, which restarts a client that hangs.

The seed is the only input the benchmark takes.  :func:`make_inputs` turns a
``(seed, study)`` pair into the ensemble parameters, the validation
parameters and the model/buffer seeds; the program receives only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Temperatures are drawn in the paper's range, [100, 500] K.
PARAMETER_LOW, PARAMETER_HIGH = 100.0, 500.0
NUM_PARAMETERS = 5
GRID = 32
BATCH_SIZE = 10
MAX_CONCURRENT_CLIENTS = 2
#: Messages each server rank's transport channel holds.  A client whose
#: channel is full blocks in ``send``, which closes the loop; with the
#: program's default (100 000) no channel fills in a study, the backlog grows
#: for the whole study and staleness measures the study's length.
CHANNEL_MESSAGES = 1000
#: Held-out samples of the validation set: 40 simulations of 50 steps, or 20
#: of 100.  The paper uses 10 simulations; with 10, which ones were drawn
#: moved the validation MSE of ``train_bound`` by up to 2x between seeds.
VALIDATION_SAMPLES = 2000


@dataclass(frozen=True)
class Workload:
    """One closed-loop online study shape."""

    name: str
    why: str
    #: The layer expected to block the result; the traced run confirms it.
    blocking_layer: str
    transport: str
    hidden_sizes: Tuple[int, ...]
    num_clients: int
    num_steps: int
    num_ranks: int = 1
    num_shards: int = 1
    #: Forked clients only: the program kills and restarts a client the
    #: server has not heard from for this long (``TransportConfig``).  Without
    #: it about one 200-client study in twenty never ends: a forked client
    #: blocks for good in its first SuperLU solve, with no CPU used.
    heartbeat_timeout_s: Optional[float] = None
    #: A study still running after this many seconds is killed and all of
    #: its samples count as failed.
    wall_bound_s: float = 60.0

    @property
    def samples(self) -> int:
        """Samples one study attempts: clients x steps."""
        return self.num_clients * self.num_steps


#: ``train_bound`` and ``scaleout_tcp`` are the gated workloads (BENCHMARK.json).
#: ``ingest_bound`` runs the same way but is not gated: three workloads do not
#: fit the benchmark's time budget with runs long enough to be steady.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="train_bound",
            why=("inproc thread clients, 1 rank, the paper's 256x256 MLP: producers wait on "
                 "a full buffer, so the blocking layer is the trainer (nn, nn.optim)"),
            blocking_layer="nn",
            transport="inproc",
            hidden_sizes=(256, 256),
            num_clients=200,
            num_steps=50,
            wall_bound_s=40.0,
        ),
        Workload(
            name="ingest_bound",
            why=("shm forked clients, 1 rank, one 16-wide hidden layer: the data path "
                 "(solver, client, launcher, ring, put_many) blocks"),
            blocking_layer="solvers/client/parallel",
            transport="shm",
            hidden_sizes=(16,),
            num_clients=200,
            num_steps=100,
            heartbeat_timeout_s=5.0,
            wall_bound_s=25.0,
        ),
        Workload(
            name="scaleout_tcp",
            why=("tcp forked clients, 2 shards x 2 ranks, 16-wide MLP: the front door, "
                 "hash-ring routing and a per-batch allreduce; blocking layer server.ddp "
                 "(slower rank sets the pace)"),
            blocking_layer="server.ddp",
            transport="tcp",
            hidden_sizes=(16,),
            num_clients=100,
            num_steps=100,
            num_ranks=2,
            num_shards=2,
            heartbeat_timeout_s=5.0,
            wall_bound_s=30.0,
        ),
    )
}


@dataclass(frozen=True)
class StudyInputs:
    """Everything one study receives, generated from ``(seed, study)``."""

    seed: int
    study: int
    ensemble: np.ndarray
    validation_parameters: np.ndarray
    model_seed: int
    buffer_seed: int


def latin_hypercube(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` parameter vectors, one in each of ``count`` strata per parameter.

    Stratifying every temperature keeps a small design (the ten validation
    simulations) from drifting to one corner of the space, which would make
    the validation MSE depend on the seed more than on the program.
    """
    strata = np.stack([rng.permutation(count) for _ in range(NUM_PARAMETERS)], axis=1)
    unit = (strata + rng.random((count, NUM_PARAMETERS))) / count
    return PARAMETER_LOW + unit * (PARAMETER_HIGH - PARAMETER_LOW)


def make_inputs(workload: Workload, seed: int, study: int) -> StudyInputs:
    """Generate the inputs of study number ``study`` of a run seeded ``seed``.

    The same pair always gives the same inputs; studies of one run draw
    different ensembles, so a run's medians span several of them.
    """
    rng = np.random.default_rng([int(seed), int(study)])
    ensemble = latin_hypercube(rng, workload.num_clients)
    validation = latin_hypercube(rng, VALIDATION_SAMPLES // workload.num_steps)
    model_seed, buffer_seed = (int(value) for value in rng.integers(0, 2**31 - 1, size=2))
    return StudyInputs(seed=int(seed), study=int(study), ensemble=ensemble,
                       validation_parameters=validation, model_seed=model_seed,
                       buffer_seed=buffer_seed)
