"""The slowdown memo returns exactly what the uncached model computes.

:meth:`ExecutionModel.slowdown` caches its value per model instance, keyed
by every input the value reads.  A key missing an input would serve one
shape's value for another; these tests compare the memoized value bit for
bit with a fresh (empty-memo) model on every start of a heterogeneous run
and on hand-built shapes chosen so that each key component matters.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_tacc_cluster
from repro.errors import ValidationError
from repro.execlayer.speedup import ExecModelConfig, ExecutionModel, UnitExecutionModel
from repro.experiments.common import run_policy
from repro.sched import EasyBackfillScheduler
from repro.workload.models import assign_models
from repro.workload.synth import TraceSynthesizer, tacc_campus
from tests.conftest import make_job


def _uncached(model: ExecutionModel, job, placement, cluster) -> float:
    return ExecutionModel(model.config).slowdown(job, placement, cluster)


class _CheckedModel(ExecutionModel):
    """Default model that cross-checks every memoized value."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def slowdown(self, job, placement, cluster):
        value = super().slowdown(job, placement, cluster)
        assert value.hex() == _uncached(self, job, placement, cluster).hex(), job.job_id
        self.calls += 1
        return value


def test_every_start_of_a_heterogeneous_run_matches_uncached():
    trace = TraceSynthesizer(tacc_campus(days=2.0), seed=4).generate()
    assign_models(trace, seed=4)
    model = _CheckedModel()
    result = run_policy(EasyBackfillScheduler(), trace, exec_model=model)
    assert model.calls >= result.metrics.jobs_completed > 100
    # The memo actually serves repeats: far fewer shapes than starts.
    assert len(model._slowdowns) < model.calls // 2


@pytest.fixture
def cluster():
    return build_tacc_cluster()


# Each pair differs in what one key component captures (rack spread, NIC
# speed, granted width, requested type, model, per-node split); both orders
# are checked against the uncached value, so a key that ignored the
# component would serve the first case's value for the second.
CASES = {
    "same-rack": (dict(num_gpus=16, gpus_per_node=8), {"v100-000": 8, "v100-001": 8}),
    "cross-rack": (dict(num_gpus=16, gpus_per_node=8), {"v100-000": 8, "v100-005": 8}),
    "mixed-nic": (dict(num_gpus=16, gpus_per_node=8), {"a100-80-000": 8, "v100-000": 8}),
    "uniform-nic": (dict(num_gpus=16, gpus_per_node=8), {"a100-80-000": 8, "a100-80-001": 8}),
    "elastic-full": (dict(num_gpus=8, elastic_min_gpus=2), {"v100-000": 8}),
    "elastic-partial": (dict(num_gpus=8, elastic_min_gpus=2), {"v100-000": 4}),
    "typed": (dict(num_gpus=4, gpu_type="a100-80"), {"rtx3090-000": 4}),
    "untyped": (dict(num_gpus=4), {"rtx3090-000": 4}),
    "named-model": (dict(num_gpus=16, model_name="gpt2-xl"), {"v100-000": 8, "v100-005": 8}),
    "size-default": (dict(num_gpus=16), {"v100-000": 8, "v100-005": 8}),
    "split-4-4": (dict(num_gpus=8), {"v100-000": 4, "v100-001": 4}),
    "split-6-2": (dict(num_gpus=8), {"v100-000": 6, "v100-001": 2}),
}
PAIRS = [
    ("same-rack", "cross-rack"),
    ("mixed-nic", "uniform-nic"),
    ("elastic-full", "elastic-partial"),
    ("typed", "untyped"),
    ("named-model", "size-default"),
    ("split-4-4", "split-6-2"),
]


def _case(name: str):
    kwargs, placement = CASES[name]
    return make_job(f"job-{name}", **kwargs), placement


@pytest.mark.parametrize("first, second", PAIRS + [(b, a) for a, b in PAIRS])
def test_hand_built_shapes_match_uncached(cluster, first, second):
    model = ExecutionModel()
    values = []
    for name in (first, second, first, second):
        job, placement = _case(name)
        value = model.slowdown(job, placement, cluster)
        assert value.hex() == _uncached(model, job, placement, cluster).hex(), name
        values.append(value)
    # The pair's values differ, so a collision would have been caught.
    assert values[0] != values[1]
    assert len(model._slowdowns) == 2


def test_invalid_placements_raise_after_their_key_is_cached(cluster):
    model = ExecutionModel()
    elastic = make_job("elastic", num_gpus=8, elastic_min_gpus=2)
    model.slowdown(elastic, {"v100-000": 4}, cluster)
    # Same model, width, request and shape: the key is cached, but a rigid
    # job may not run on half its GPUs.
    rigid = make_job("rigid", num_gpus=8)
    with pytest.raises(ValidationError):
        model.slowdown(rigid, {"v100-000": 4}, cluster)
    with pytest.raises(ValidationError):
        model.slowdown(elastic, {"v100-000": 1}, cluster)
    with pytest.raises(ValidationError):
        model.slowdown(elastic, {}, cluster)


def test_models_with_different_configs_share_no_entries(cluster):
    job, placement = _case("cross-rack")
    default = ExecutionModel()
    oblivious = ExecutionModel(ExecModelConfig(placement_aware=False))
    cross = default.slowdown(job, placement, cluster)
    assert oblivious.slowdown(job, placement, cluster) == _uncached(
        oblivious, job, placement, cluster
    ) != cross
    assert default._slowdowns is not oblivious._slowdowns


def test_unit_model_is_unaffected(cluster):
    model = UnitExecutionModel()
    for name in CASES:
        job, placement = _case(name)
        assert model.slowdown(job, placement, cluster) == 1.0
    assert model._slowdowns == {}
