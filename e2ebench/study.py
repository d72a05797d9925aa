"""Run one online study of a workload in this process and write its result.

    python3 e2ebench/study.py --workload NAME --seed N --study I --trace 0|1 --out FILE

``run.py`` starts this script once per study, in a fresh process group with a
wall bound, so the figures are those of the first study in a process (what a
user pays).  The script builds the study from the generated inputs
``SETUPS`` times and runs the last build (``setup_s`` is the median CPU time of
a build, so mostly a warm one), installs the staleness stamps and, when tracing, the spans,
runs ``OnlineStudy.run()`` and checks the outputs.  It writes one JSON object
to ``--out``.  SIGUSR1 dumps the stack of every thread here and in every
forked client to stderr.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.config import OnlineStudyConfig, SurrogateArchitecture  # noqa: E402
from repro.core.heat_usecase import HeatSurrogateCase, HeatSurrogateSpec  # noqa: E402
from repro.core.study import OnlineStudy  # noqa: E402
from repro.parallel.transport import ShardOptions, TransportConfig  # noqa: E402
from repro.server.validation import ValidationSet  # noqa: E402
from repro.solvers.heat2d import HeatEquationConfig  # noqa: E402

from spans import TRAINER_WAITS, StalenessStamps, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_SIZE,
    CHANNEL_MESSAGES,
    GRID,
    MAX_CONCURRENT_CLIENTS,
    WORKLOADS,
    StudyInputs,
    Workload,
    make_inputs,
)


#: Set-ups built (and timed) per study; one set-up is too short to time steadily.
SETUPS = 3


class SeededHeatCase(HeatSurrogateCase):
    """The heat case, fed the benchmark's generated ensemble."""

    def __init__(self, spec: HeatSurrogateSpec, ensemble: np.ndarray) -> None:
        super().__init__(spec)
        self._ensemble = np.asarray(ensemble)

    def sample_parameters(self, count: int) -> np.ndarray:
        return self._ensemble[:count]


class HangingStudy(OnlineStudy):
    """Fault injection for the harness's own test: client 0 hangs after one step."""

    def _build_specs(self):
        specs = super()._build_specs()
        specs[0].hang_at_step = 1
        return specs


def build_case(workload: Workload, inputs: StudyInputs) -> SeededHeatCase:
    spec = HeatSurrogateSpec(
        solver=HeatEquationConfig(nx=GRID, ny=GRID, num_steps=workload.num_steps),
        architecture=SurrogateArchitecture(hidden_sizes=workload.hidden_sizes),
        seed=inputs.model_seed,
    )
    return SeededHeatCase(spec, inputs.ensemble)


def build_validation(case: HeatSurrogateCase, inputs: StudyInputs) -> ValidationSet:
    times, fields = [], []
    for row in inputs.validation_parameters:
        sim_times, sim_fields = case.run_simulation(row)
        times.append(sim_times)
        fields.append(sim_fields)
    return ValidationSet.from_simulations(list(inputs.validation_parameters), times, fields)


def build_config(workload: Workload, inputs: StudyInputs) -> OnlineStudyConfig:
    return OnlineStudyConfig(
        num_simulations=workload.num_clients,
        max_concurrent_clients=MAX_CONCURRENT_CLIENTS,
        num_ranks=workload.num_ranks,
        buffer_kind="reservoir",
        batch_size=BATCH_SIZE,
        transport=TransportConfig(backend=workload.transport, queue_size=CHANNEL_MESSAGES,
                                  shard=ShardOptions(num_shards=workload.num_shards),
                                  heartbeat_timeout=workload.heartbeat_timeout_s),
        client_step_delay=0.0,
        inter_series_delay=0.0,
        batch_compute_delay=0.0,
        seed=inputs.buffer_seed,
    )


def check_outputs(workload: Workload, result, val_mse: float) -> List[str]:
    """Names of the output checks that failed (empty when all hold)."""
    failures = []
    launcher = result.launcher
    server = result.server
    steps = launcher.per_client_steps
    if (len(steps) != workload.num_clients
            or any(steps.get(cid) != workload.num_steps for cid in range(workload.num_clients))):
        failures.append("per_client_steps")
    ingested = sum(s.samples_received for s in server.aggregator_stats)
    if ingested != workload.samples:
        failures.append("unique_samples")
    # Accounting identity, per rank: every routed time step was ingested,
    # discarded as a duplicate or dropped by the aggregator.  The transport
    # also routes one hello and one finished marker per client to every rank
    # of its shard, and one more hello per restart; what it dropped or tore
    # is counted globally, so the residuals may only add up to that.
    stats = server.transport_stats
    residuals = []
    for rank, agg in enumerate(server.aggregator_stats):
        control = 2 * len(agg.clients_finished)
        residuals.append(stats.per_rank_messages.get(rank, 0) - control - agg.samples_received
                         - agg.duplicates_discarded - agg.samples_dropped)
    slack = (stats.dropped_messages + stats.torn_batches
             + launcher.restarts * workload.num_ranks)
    if min(residuals) < 0 or sum(residuals) > slack:
        failures.append(f"accounting(residuals={residuals})")
    if not math.isfinite(val_mse):
        failures.append("val_mse_finite")
    return failures


def layer_metrics(tracer: Tracer, workload: Workload, result, trained: int,
                  unique: int) -> Dict[str, float]:
    totals = tracer.totals()
    stats = result.server.transport_stats
    launcher = result.launcher
    metrics = {
        name: totals[name]["total"] for name in totals if name.endswith("_s")
    }
    metrics.update({
        "solvers.steps": totals["solvers.step_s"]["count"],
        "client.send_calls": totals["client.send_s"]["count"],
        "launcher.clients_completed": launcher.clients_completed,
        "launcher.clients_failed": launcher.clients_failed,
        "launcher.restarts": launcher.restarts,
        "parallel.poll_calls": totals["parallel.poll_s"]["count"],
        "parallel.poll_empty": totals["parallel.poll_empty"]["count"],
        "parallel.messages_routed": stats.messages_routed,
        "parallel.bytes_routed": stats.bytes_routed,
        "parallel.dropped": stats.dropped_messages,
        "parallel.torn": stats.torn_batches,
        "parallel.ring_depth_high_water": max(stats.ring_depth_high_water.values(), default=0),
        "buffers.put_samples": totals["buffers.put_samples"]["count"],
        "aggregator.duplicates": result.server.duplicates_discarded,
        "buffers.get_batches": totals["buffers.get_batches"]["count"],
        "buffers.reuse_ratio": trained / unique if unique else 0.0,
        "optim.steps": totals["optim.step_s"]["count"],
        "ddp.sync_calls": totals["ddp.sync_calls"]["count"],
        "ddp.bytes": totals["ddp.bytes"]["count"],
        "ddp.sync_share": tracer.trainer_share("ddp.sync_s"),
        "sharding.sample_imbalance": _imbalance(launcher.per_shard_steps, workload),
    })
    # Training-thread wall time: waiting for data or peer ranks, covered by
    # no span, and computing (the rest).
    wait = sum(tracer.trainer_share(name) for name in TRAINER_WAITS)
    unattributed = tracer.trainer_share("trainer.run_s")
    metrics.update({"trainer.wait_share": wait, "trainer.unattributed_share": unattributed,
                    "trainer.busy_share": 1.0 - wait - unattributed})
    return {key: float(value) for key, value in metrics.items()}


def _imbalance(per_shard_steps: Dict[int, int], workload: Workload) -> float:
    """Max over mean per-shard steps (1.0 for an unsharded study)."""
    if workload.num_shards <= 1 or not per_shard_steps:
        return 1.0
    counts = [per_shard_steps.get(shard, 0) for shard in range(workload.num_shards)]
    return max(counts) / (sum(counts) / len(counts))


def _cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (forked clients)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--study", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--fault", choices=("none", "hang"), default="none")
    parser.add_argument("--clients", type=int, default=None, help="override the ensemble size")
    parser.add_argument("--steps", type=int, default=None, help="override the steps per client")
    parser.add_argument("--heartbeat", type=float, default=None,
                        help="override the client heartbeat timeout in seconds (0: none)")
    args = parser.parse_args(argv)
    faulthandler.register(signal.SIGUSR1, all_threads=True)

    workload = WORKLOADS[args.workload]
    workload = replace(workload, num_clients=args.clients or workload.num_clients,
                       num_steps=args.steps or workload.num_steps)
    if args.heartbeat is not None:
        workload = replace(workload, heartbeat_timeout_s=args.heartbeat or None)
    inputs = make_inputs(workload, args.seed, args.study)

    study_cls = HangingStudy if args.fault == "hang" else OnlineStudy
    setup_times = []
    for _ in range(SETUPS):
        start = time.process_time()
        case = build_case(workload, inputs)
        validation = build_validation(case, inputs)
        config = build_config(workload, inputs)
        study = study_cls(case, config, validation)
        setup_times.append(time.process_time() - start)
    setup_s = statistics.median(setup_times)

    stamps = StalenessStamps(workload.num_clients, workload.num_steps)
    stamps.install()
    tracer = None
    if args.trace:
        tracer = Tracer(workload.num_clients)
        tracer.install()

    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    result = study.run()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start

    trained = int(result.server.summary["total_samples"])
    unique = int(sum(s.samples_received for s in result.server.aggregator_stats))
    val_mse = float(result.metrics.losses.final_validation_loss)
    staleness_ms, staleness_cpu_ms = stamps.staleness_ms()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "study": args.study,
        "trace": args.trace,
        "attempted": workload.samples,
        "ingested": unique,
        "trained": trained,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "val_mse": val_mse,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "staleness_ms": np.round(staleness_ms, 3).tolist(),
        "staleness_cpu_ms": np.round(staleness_cpu_ms, 3).tolist(),
        "failed_checks": check_outputs(workload, result, val_mse),
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, workload, result, trained, unique)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
