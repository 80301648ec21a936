"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import REFERENCE_S, HostSampler, probe_s  # noqa: E402
from tracer import LAYER_TARGETS, SpanTable, Tracer, _resolve, layer_sum_check, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    SIZES,
    WORKLOADS,
    campus_config,
    episode_seeds,
    fleet_config,
    slice_seeds,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


def run_child(workload: str, traced: bool, tmp_path: Path) -> dict:
    command = [
        sys.executable,
        str(PERFBENCH / "child.py"),
        "--workload", workload,
        "--seed", "3",
        "--size", "tiny",
        "--scratch", str(tmp_path / "scratch"),
        "--spawned-at", repr(time.perf_counter()),
        "--host-samples", f"{time.perf_counter()!r}:{probe_s()!r}",
    ]
    if traced:
        command.append("--traced")
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_reports_every_end_to_end_metric(workload: str) -> None:
    done = run_bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0",
                      "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {spec["name"] for spec in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_traced_tiny_run_reports_every_per_layer_metric() -> None:
    done = run_bench("--workload", "campus-contended", "--seed", "1", "--seconds", "0",
                      "--trace", "1", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {spec["name"] for spec in SPEC["per_layer"]}
    assert result["metrics"]["sched.placement.attempts"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_digests_match(workload: str, tmp_path: Path) -> None:
    plain = run_child(workload, False, tmp_path)
    traced = run_child(workload, True, tmp_path)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert traced["layers"]["sim.traced_wall_s"] > 0
    if workload == "campus-contended":
        assert traced["layers"]["sweep.cache_misses"] == traced["layers"]["sweep.cells"] > 0
        assert traced["layers"]["sweep.warm.cache_misses"] == 0
        assert traced["layers"]["sweep.warm.traces_synthesized"] == 0


def _bound_attributes() -> dict[tuple[int, str], object]:
    """Every attribute a target names, plus every module alias of a function."""
    bound: dict[tuple[int, str], object] = {}
    for entries in LAYER_TARGETS.values():
        for module_name, path in entries:
            for owner, attr, _label in _resolve(module_name, path):
                bound[(id(owner), attr)] = owner.__dict__[attr]
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for key, value in vars(module).items():
                if callable(value):
                    bound[(id(module), key)] = value
    return bound


def test_install_then_uninstall_restores_every_original() -> None:
    import repro.sched  # noqa: F401  (load every module the tracer reaches)
    import repro.sweep  # noqa: F401

    before = _bound_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        from repro.sched.base import Scheduler
        from repro.sim import simulator
        from repro.sweep import runner

        assert getattr(Scheduler.try_place, "__wrapped_by_perfbench__", False)
        assert getattr(simulator.summarize, "__wrapped_by_perfbench__", False)
        assert getattr(runner.run_cell, "__wrapped_by_perfbench__", False)
    finally:
        tracer.uninstall()
    assert _bound_attributes() == before


def test_seed_changes_the_generated_trace() -> None:
    from repro.workload.fleet import fleet_trace
    from repro.workload.synth import TraceSynthesizer

    seeds_a, seeds_b = episode_seeds(0, 2), episode_seeds(1, 2)
    assert seeds_a == episode_seeds(0, 2)
    assert not set(seeds_a) & set(seeds_b)

    campus = campus_config(1.0)

    def campus_rows(seed: int) -> tuple:
        return TraceSynthesizer(campus, seed=seed).generate().frozen_rows()

    assert campus_rows(seeds_a[0]) == campus_rows(seeds_a[0])
    assert campus_rows(seeds_a[0]) != campus_rows(seeds_b[0])

    fleet = fleet_config(0.25, 64)

    def fleet_rows(seed: int) -> tuple:
        return fleet_trace(fleet, seed=seed).frozen_rows()

    assert fleet_rows(seeds_a[0]) == fleet_rows(seeds_a[0])
    assert fleet_rows(seeds_a[0]) != fleet_rows(seeds_b[0])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("size", ("full", "tiny"))
def test_slices_partition_the_batch(workload: str, size: str) -> None:
    params = SIZES[workload][size]
    assert params["episodes"] % params["slices"] == 0
    joined = [s for i in range(params["slices"]) for s in slice_seeds(5, params, i)]
    assert joined == episode_seeds(5, params["episodes"])


def test_host_sampler_rescales_to_the_reference_speed() -> None:
    # Samples at t=0, 1, 2, 3: the host runs at half speed from t=2 on.
    costs = (REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S)
    host = HostSampler(periodic=False, earlier=list(enumerate(costs)))
    assert host.speed(0.0, 1.0) == 1.0
    assert host.speed(2.0, 3.0) == 0.5
    # The samples' own time inside the window is taken out before rescaling.
    assert host.rescale(1.5, 3.5) == pytest.approx((2.0 - 4 * REFERENCE_S) * 0.5)
    # A window with no sample inside uses the nearest samples.
    assert host.speed(0.2, 0.3) == 1.0
    with HostSampler(periodic=True) as live:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(live.costs) >= 2 and all(cost > 0 for cost in live.costs)


def _table(spans: list[tuple[str, int, float, float]]) -> SpanTable:
    names = sorted({name for name, *_ in spans})
    return SpanTable(
        names,
        array("l", [names.index(name) for name, *_ in spans]),
        array("l", [parent for _, parent, _, _ in spans]),
        array("d", [start for *_, start, _ in spans]),
        array("d", [end for *_, end in spans]),
        array("l", [0] * len(spans)),
    )


def test_layer_sum_check_accepts_nested_spans_and_rejects_overlap() -> None:
    good = _table(
        [
            ("sim.run", -1, 0.0, 10.0),
            ("sim.engine.dispatch", 0, 1.0, 9.0),
            ("sched.placement", 1, 2.0, 5.0),
        ]
    )
    totals = layer_totals(good)
    assert totals.sim_run_s == 10.0
    assert totals.self_s["sim.engine.dispatch"] == 5.0
    assert layer_sum_check(totals, 10.0, 0.01) == []
    assert layer_sum_check(totals, 12.0, 0.01) != []

    overlapping = _table(
        [
            ("sim.run", -1, 0.0, 10.0),
            ("sched.placement", 0, 1.0, 8.0),
            ("sched.placement", 0, 4.0, 10.0),
        ]
    )
    assert any("negative" in problem for problem in layer_sum_check(layer_totals(overlapping), None, 0.01))


def test_run_refuses_a_checkout_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "fleet-32k", "--seed", "0", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
