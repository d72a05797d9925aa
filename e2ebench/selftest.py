"""The benchmark's own tests.

    python3 -m pytest -q e2ebench/selftest.py

They cover the harness, not the program: seeded inputs, a study forced past
its wall bound, the heartbeat restart of a hung forked client, and the
refusal to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import study  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _validation_data(workload, seed, index):
    inputs = make_inputs(workload, seed, index)
    validation = study.build_validation(study.build_case(workload, inputs), inputs)
    return inputs, validation


def test_one_seed_gives_identical_inputs_and_another_seed_different_ones():
    workload = dataclasses.replace(WORKLOADS["train_bound"], num_clients=8, num_steps=5)
    first, first_validation = _validation_data(workload, 3, 0)
    again, again_validation = _validation_data(workload, 3, 0)
    other, other_validation = _validation_data(workload, 4, 0)

    np.testing.assert_array_equal(first.ensemble, again.ensemble)
    np.testing.assert_array_equal(first.validation_parameters, again.validation_parameters)
    np.testing.assert_array_equal(first_validation.inputs, again_validation.inputs)
    np.testing.assert_array_equal(first_validation.targets, again_validation.targets)
    assert (first.model_seed, first.buffer_seed) == (again.model_seed, again.buffer_seed)

    assert not np.array_equal(first.ensemble, other.ensemble)
    assert not np.array_equal(first_validation.inputs, other_validation.inputs)
    assert not np.array_equal(first_validation.targets, other_validation.targets)
    assert (first.model_seed, first.buffer_seed) != (other.model_seed, other.buffer_seed)
    # Studies of one run draw different ensembles too.
    assert not np.array_equal(first.ensemble, make_inputs(workload, 3, 1).ensemble)


def test_study_past_its_wall_bound_is_killed_counted_and_the_run_goes_on(tmp_path):
    # Without the heartbeat, nothing in the program ends the hung client.
    workload = dataclasses.replace(WORKLOADS["ingest_bound"], num_clients=4, num_steps=20,
                                   heartbeat_timeout_s=None)
    hung = run.run_study(workload, seed=1, index=0, traced=False, out_dir=tmp_path,
                         wall_bound_s=8.0, extra_args=("--fault", "hang"))
    assert hung.status == "timeout"
    assert hung.failed == hung.attempted == 80
    assert run._group_members(hung.pgid) == []
    dump = hung.stderr_path.read_text(errors="replace")
    # The study and its hanging forked client both dumped their stacks.
    assert "in _watch_client_process" in dump
    assert "in run" in dump and "simulation_client.py" in dump
    assert hung.stderr_lines == dump.count("\n")

    done = run.run_study(workload, seed=1, index=1, traced=False, out_dir=tmp_path,
                         wall_bound_s=60.0)
    assert done.status == "ok", done.stderr_path.read_text(errors="replace")[-2000:]
    assert done.failed == 0 and done.record["failed_checks"] == []
    assert run._group_members(done.pgid) == []

    result = run.summarize(workload, [hung, done], trace=False, calibration={},
                           log=lambda line: None)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (160, 80)


def test_heartbeat_restarts_a_hung_forked_client_and_the_study_completes(tmp_path):
    workload = dataclasses.replace(WORKLOADS["scaleout_tcp"], num_clients=4, num_steps=10)
    study_run = run.run_study(workload, seed=1, index=0, traced=False, out_dir=tmp_path,
                              wall_bound_s=30.0, extra_args=("--fault", "hang"))
    assert study_run.status == "ok", study_run.stderr_path.read_text(errors="replace")[-2000:]
    assert study_run.failed == 0 and study_run.record["failed_checks"] == []
    assert "missed its heartbeat deadline" in study_run.stderr_path.read_text(errors="replace")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable, *command[1:], "--workload", "ingest_bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_benchmark_json_names_the_workloads_with_their_rationale():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    for entry in spec["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]
    gated = {entry["name"] for entry in spec["end_to_end"]}
    assert gated == set(run.END_TO_END)


def test_traced_study_collects_spans_from_forked_clients(tmp_path):
    workload = dataclasses.replace(WORKLOADS["ingest_bound"], num_clients=4, num_steps=20)
    traced = run.run_study(workload, seed=2, index=0, traced=True, out_dir=tmp_path,
                           wall_bound_s=60.0)
    assert traced.status == "ok", traced.stderr_path.read_text(errors="replace")[-2000:]
    layers = traced.record["layers"]
    # Sends and solver steps happen in the forked client processes.
    assert layers["client.send_calls"] == layers["solvers.steps"] == 80
    assert layers["client.send_s"] > 0 and layers["solvers.step_s"] > 0
    assert layers["buffers.put_samples"] == 80
    assert layers["optim.steps"] == layers["buffers.get_batches"] > 0
    assert layers["trainer.unattributed_share"] < 0.1
    assert len(traced.record["staleness_ms"]) == len(traced.record["staleness_cpu_ms"]) == 80
