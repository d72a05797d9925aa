"""End-to-end benchmark of whole online studies.

    python3 e2ebench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs real ``OnlineStudy`` campaigns of one workload (see ``workloads.py``)
for about ``S`` seconds, each study in a fresh process group under a wall
bound, and prints every end-to-end metric by name and unit with its median,
quartiles and sample count, then the output checks.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(in samples) and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` traced and untraced studies alternate;
the metrics are the per-layer spans and counts of the traced studies, the
tracing overhead (traced minus untraced, per end-to-end metric), the
wall-clock rates and staleness of the untraced studies (``wallclock.*``) and
the host-calibration probe.  ``--workload all`` runs every workload named in
``BENCHMARK.json`` in turn; its last line maps each name to its result.

Every study's stderr, the per-study records and the run report are kept under
``.e2ebench_runs/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: With the default multi-threaded OpenBLAS pool, a client forked while the
#: trainer thread is inside a BLAS call deadlocks in ``fork``; nearly every
#: forked-client study hung on the reference host.  The benchmark, its host
#: probe and its studies therefore use one BLAS thread unless the caller's
#: environment says otherwise.  Set before numpy loads; studies inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

RUNS_DIR = ROOT / ".e2ebench_runs"

#: End-to-end metrics: name -> (unit, better).  Rates and staleness are on
#: CPU clocks (see ``study_values``), which a shared host's noise moves far
#: less than the wall clock.
END_TO_END = {
    "trained_samples_per_cpu_s": ("samples/cpu-s", "higher"),
    "unique_samples_per_cpu_s": ("samples/cpu-s", "higher"),
    "staleness_p50_cpu_ms": ("cpu-ms", "lower"),
    "staleness_p99_cpu_ms": ("cpu-ms", "lower"),
    "val_rmse_k": ("K", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
#: The same rates and staleness on the wall clock: printed with every report
#: and recorded by the traced run as ``wallclock.*``, but not gated.
WALLCLOCK = {
    "trained_samples_per_s": ("samples/s", "higher"),
    "unique_samples_per_s": ("samples/s", "higher"),
    "staleness_p50_ms": ("ms", "lower"),
    "staleness_p99_ms": ("ms", "lower"),
}

#: Seconds each process of a study past its bound gets to dump its stacks.
DUMP_GRACE_S = 0.3


@dataclass
class StudyOutcome:
    """What one study process left behind."""

    index: int
    traced: bool
    pgid: int
    status: str  # "ok", "timeout" or "crashed"
    duration_s: float
    attempted: int
    failed: int
    record: Optional[dict]
    stderr_path: Path
    stderr_lines: int


# ------------------------------------------------------------------ processes
def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def _reap_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill whatever is left of group ``pgid`` and wait until none of it runs."""
    deadline = time.monotonic() + timeout
    while True:
        members = _group_members(pgid)
        if not members:
            return
        if time.monotonic() >= deadline:
            raise RuntimeError(f"processes {members} of study group {pgid} survived SIGKILL")
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_study(workload: Workload, seed: int, index: int, traced: bool, out_dir: Path,
              wall_bound_s: float, extra_args: Sequence[str] = ()) -> StudyOutcome:
    """Run one study in its own process group; kill it at the wall bound.

    Past the bound, SIGUSR1 makes the study and its forked clients dump every
    thread's stack to the study's stderr file, then the whole group is
    killed.  No process of the group survives this function: it raises if
    one does.
    """
    stem = f"{workload.name}-seed{seed}-study{index}"
    record_path = out_dir / f"{stem}.json"
    stderr_path = out_dir / f"{stem}.stderr"
    record_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "study.py"), "--workload", workload.name,
               "--seed", str(seed), "--study", str(index), "--trace", str(int(traced)),
               "--clients", str(workload.num_clients), "--steps", str(workload.num_steps),
               "--heartbeat", str(workload.heartbeat_timeout_s or 0),
               "--out", str(record_path), *extra_args]
    start = time.monotonic()
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=stderr,
                                   stderr=stderr, cwd=ROOT, start_new_session=True)
        try:
            process.wait(timeout=wall_bound_s)
            status = "ok" if process.returncode == 0 else "crashed"
        except subprocess.TimeoutExpired:
            status = "timeout"
            # One process at a time, so that the dumps do not interleave.
            for pid in _group_members(process.pid):
                try:
                    os.kill(pid, signal.SIGUSR1)
                except ProcessLookupError:
                    continue
                time.sleep(DUMP_GRACE_S)
        duration = time.monotonic() - start
        _reap_group(process.pid)
        process.wait()
    with open(stderr_path, "rb") as stderr:
        stderr_lines = sum(1 for _ in stderr)
    record = None
    if status == "ok":
        try:
            record = json.loads(record_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            status = "crashed"
    attempted = workload.samples if record is None else record["attempted"]
    if record is None or record["failed_checks"]:
        failed = attempted
    else:
        failed = attempted - record["ingested"]
    return StudyOutcome(index=index, traced=traced, pgid=process.pid, status=status,
                        duration_s=duration, attempted=attempted, failed=failed, record=record,
                        stderr_path=stderr_path, stderr_lines=stderr_lines)


def run_studies(workload: Workload, seed: int, seconds: float, trace: bool,
                out_dir: Path, log=print) -> List[StudyOutcome]:
    """Run studies for about ``seconds``: one starts only if it should end in time.

    When tracing, traced and untraced studies alternate, traced first.
    """
    minimum = 2 if trace else 1
    start = time.monotonic()
    outcomes: List[StudyOutcome] = []
    while True:
        outcome = run_study(workload, seed, len(outcomes), trace and len(outcomes) % 2 == 0,
                            out_dir, workload.wall_bound_s)
        outcomes.append(outcome)
        log(f"# study {outcome.index}: {outcome.status} in {outcome.duration_s:.2f} s"
            f"{' (traced)' if outcome.traced else ''}, failed {outcome.failed}/"
            f"{outcome.attempted} samples, stderr {outcome.stderr_lines} lines "
            f"({outcome.stderr_path.name})")
        if outcome.record and outcome.record["failed_checks"]:
            log(f"#   failed checks: {', '.join(outcome.record['failed_checks'])}")
        done = [o.duration_s for o in outcomes if o.status == "ok"] or [outcome.duration_s]
        expected = statistics.median(done)
        if len(outcomes) >= minimum and time.monotonic() - start + expected > seconds:
            return outcomes


# -------------------------------------------------------------- host probe
def host_calibration(repeats: int = 5) -> Dict[str, float]:
    """Best of a few fixed float32 matmul and memcpy loops.

    Recorded with every report, not gated: it tells runner drift apart from
    a regression of the program.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256), dtype=np.float32)
    b = rng.standard_normal((256, 256), dtype=np.float32)
    src = np.ones(16 * 2**20, dtype=np.uint8)
    dst = np.empty_like(src)
    matmul_s = memcpy_s = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(40):
            a @ b
        matmul_s = min(matmul_s, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(8):
            np.copyto(dst, src)
        memcpy_s = min(memcpy_s, time.perf_counter() - start)
    return {
        "host.matmul_gflop_s": 40 * 2 * 256**3 / matmul_s / 1e9,
        "host.memcpy_gb_s": 8 * src.nbytes / memcpy_s / 1e9,
    }


# ---------------------------------------------------------------- reporting
def study_values(record: dict) -> Dict[str, float]:
    """The end-to-end and wall-clock metrics of one completed study.

    ``cpu_s`` is the CPU time of the study process and of its forked clients
    during ``OnlineStudy.run()``; CPU-clock staleness is read on the study
    process's CPU clock (see ``spans.StalenessStamps``).
    """
    cpu = np.asarray(record["staleness_cpu_ms"], dtype=float)
    wall = np.asarray(record["staleness_ms"], dtype=float)
    return {
        "trained_samples_per_cpu_s": record["trained"] / record["cpu_s"],
        "unique_samples_per_cpu_s": record["ingested"] / record["cpu_s"],
        "staleness_p50_cpu_ms": float(np.percentile(cpu, 50)),
        "staleness_p99_cpu_ms": float(np.percentile(cpu, 99)),
        "val_rmse_k": math.sqrt(record["val_mse"]),
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "trained_samples_per_s": record["trained"] / record["wall_s"],
        "unique_samples_per_s": record["ingested"] / record["wall_s"],
        "staleness_p50_ms": float(np.percentile(wall, 50)),
        "staleness_p99_ms": float(np.percentile(wall, 99)),
    }


def per_study(studies: Sequence[StudyOutcome]) -> Dict[str, List[float]]:
    """Every metric's per-study values, in study order."""
    values = [study_values(o.record) for o in studies]
    return {name: [v[name] for v in values] for name in values[0]}


def medians(studies: Sequence[StudyOutcome]) -> Dict[str, float]:
    """Every metric as its median over studies, so one slow study moves none."""
    return {name: statistics.median(v) for name, v in per_study(studies).items()}


def _quartiles(values: Sequence[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"per study: median {statistics.median(values):.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
            f"n={len(values)}")


def summarize(workload: Workload, outcomes: Sequence[StudyOutcome], trace: bool,
              calibration: Dict[str, float], log=print) -> Optional[dict]:
    """Print the report and return the result object (``None`` if nothing completed)."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    ok = [o for o in outcomes if o.record is not None]
    # A study whose outputs failed a check counts as failed samples only.
    clean = [o for o in ok if not o.record["failed_checks"]]
    measured = [o for o in clean if not o.traced]
    traced = [o for o in clean if o.traced]
    if not measured or (trace and not traced):
        log("# no study completed with correct outputs; nothing to report")
        return None
    details = per_study(measured)
    values = {name: statistics.median(v) for name, v in details.items()}
    stamped = statistics.median(len(o.record["staleness_ms"]) for o in measured)

    log(f"# workload {workload.name}: {workload.why}")
    log(f"# expected blocking layer: {workload.blocking_layer}")
    log(f"# {len(outcomes)} studies ({len(measured)} measured untraced, {len(traced)} traced) of "
        f"{workload.num_clients} clients x {workload.num_steps} steps; each study is the first "
        "in a fresh process; every figure is the median over measured studies")
    for table, gated in ((END_TO_END, True), (WALLCLOCK, False)):
        for name, (unit, better) in table.items():
            note = _quartiles(details[name])
            if name.startswith("staleness"):
                note += f"; about {stamped:.0f} stamped samples per study"
            if not gated:
                note += "; wall clock, not gated"
            log(f"{name:<26} {values[name]:>12.6g} {unit:<13} ({better} is better)  {note}")
    log(f"{'failed_sample_share':<26} {failed / attempted:>12.6g} {'ratio':<13} "
        f"(lower is better)  {failed} of {attempted} samples; the result's failed/attempted, "
        "not a metric")
    val_mse = [o.record["val_mse"] for o in measured]
    log(f"{'val_mse (detail)':<26} {statistics.median(val_mse):>12.6g} {'K2':<13} "
        f"{_quartiles(val_mse)}")
    for key, value in calibration.items():
        log(f"{key:<26} {value:>12.6g} {CALIBRATION_UNITS[key]:<13} (host calibration, not gated)")
    checks = [f"study {o.index}: {', '.join(o.record['failed_checks']) or 'ok'}" for o in ok]
    log("# output checks (per_client_steps, unique_samples, accounting, val_mse_finite): "
        + "; ".join(checks))
    correct = all(not o.record["failed_checks"] for o in ok)

    if not trace:
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    else:
        metrics = layer_report(workload, traced, values, medians(traced), log)
        metrics.update({f"wallclock.{name}": {"value": values[name], "unit": unit}
                        for name, (unit, _) in WALLCLOCK.items()})
        metrics.update({key: {"value": value, "unit": CALIBRATION_UNITS[key]}
                        for key, value in calibration.items()})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_report(workload: Workload, traced: Sequence[StudyOutcome],
                 untraced_values: Dict[str, float], traced_values: Dict[str, float],
                 log=print) -> Dict[str, dict]:
    layers = {name: statistics.median(o.record["layers"][name] for o in traced)
              for name in traced[0].record["layers"]}
    metrics = {}
    log(f"# per-layer spans (median over {len(traced)} traced studies; times are summed "
        "over threads and client processes)")
    for name, value in sorted(layers.items()):
        unit = LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
        metrics[name] = {"value": value, "unit": unit}
        log(f"{name:<32} {value:>14.6g} {unit}")
    for name, (unit, _) in END_TO_END.items():
        delta = traced_values[name] - untraced_values[name]
        metrics[f"overhead.{name}"] = {"value": delta, "unit": unit}
        log(f"{'overhead.' + name:<32} {delta:>14.6g} {unit} (traced minus untraced)")
    log(f"# bottleneck check for {workload.name}: {bottleneck_check(workload, layers)}")
    return metrics


CALIBRATION_UNITS = {"host.matmul_gflop_s": "GFLOP/s", "host.memcpy_gb_s": "GB/s"}

#: Units of the per-layer metrics that are neither seconds nor counts.
LAYER_UNITS = {
    "buffers.reuse_ratio": "ratio",
    "ddp.sync_share": "ratio",
    "ddp.bytes": "B-computed",
    "parallel.bytes_routed": "B",
    "sharding.sample_imbalance": "ratio",
    "trainer.busy_share": "ratio",
    "trainer.wait_share": "ratio",
    "trainer.unattributed_share": "ratio",
}


def bottleneck_check(workload: Workload, layers: Dict[str, float]) -> str:
    """Whether the traced run shows the workload's expected blocking layer."""
    reuse = layers["buffers.reuse_ratio"]
    if workload.name == "train_bound":
        shown = reuse < 1.1 and layers["buffers.put_s"] > layers["buffers.get_s"]
        detail = (f"reuse_ratio {reuse:.3f} (~1 expected), buffers.put_s "
                  f"{layers['buffers.put_s']:.3g} s > buffers.get_s "
                  f"{layers['buffers.get_s']:.3g} s")
    elif workload.name == "ingest_bound":
        shown = reuse > 1.1
        detail = f"reuse_ratio {reuse:.3f} (> 1 expected)"
    else:
        shown = layers["ddp.sync_share"] > 0.05
        detail = f"ddp.sync_share {layers['ddp.sync_share']:.3f} of trainer wall (visible expected)"
    return ("shown" if shown else "NOT shown") + f": {detail}"


# --------------------------------------------------------------------- main
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Optional[dict]:
    """Run, report and record one workload; its result object, or ``None``."""
    out_dir = RUNS_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    calibration = host_calibration()
    outcomes = run_studies(workload, seed, seconds, trace, out_dir)
    result = summarize(workload, outcomes, trace, calibration)
    if result is not None:
        report = {"workload": workload.name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "calibration": calibration, "result": result,
                  "studies": [{"index": o.index, "traced": o.traced, "status": o.status,
                               "duration_s": o.duration_s, "stderr_lines": o.stderr_lines,
                               "record": o.record} for o in outcomes]}
        (out_dir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *sorted(WORKLOADS)],
                        help="a workload, or 'all' for every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "study.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for entry in spec["workloads"]:
        results[entry["name"]] = run_workload(WORKLOADS[entry["name"]], args.seed,
                                              args.seconds, bool(args.trace))
        print()
    print(json.dumps(results))
    return 0 if all(result is not None for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
