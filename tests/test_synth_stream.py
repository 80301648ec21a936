"""Same-stream pins for the scalar synthesizers.

The per-job sampling in :mod:`repro.workload.synth`, :mod:`~repro.workload.models`
and :mod:`~repro.workload.pipelines` draws with cheap exact equivalents of
``rng.choice`` / ``rng.uniform()`` / scalar ``np.clip``.  Every golden
depends on those draws returning the same values *and* consuming the same
random stream, so this module keeps a copy of the straightforward
``rng.choice``/``np.clip`` formulation and asserts, over presets, seeds
and edge-case configurations:

* identical serialisation rows (exact float equality, identical types);
* an identical ``bit_generator.state`` afterwards, since callers may pass
  their own :class:`numpy.random.Generator` and continue drawing from it.

If a numpy release changes how ``Generator.choice`` maps a draw to an
index, these tests fail before any golden does.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.workload import (
    DurationModel,
    PipelineSynthesizer,
    PipelineTraceConfig,
    Trace,
    TraceSynthesizer,
    assign_models,
    deadline_cycle,
    expected_gpu_seconds_per_job,
    helios_like,
    philly_like,
    tacc_campus,
)
from repro.workload.job import (
    FailureCategory,
    FailurePlan,
    Job,
    JobTier,
    ResourceRequest,
)
from repro.workload.models import _DEFAULT_MIX_LARGE, _DEFAULT_MIX_MEDIUM, _DEFAULT_MIX_SMALL
from repro.workload.pipelines import _TEMPLATES
from repro.workload.synth import Categorical, hourly_rates, uniform_pick

# --------------------------------------------------------------------------
# Reference formulation: one rng.choice / rng.uniform / np.clip per field.
# --------------------------------------------------------------------------


def _reference_hourly_rates(cfg) -> np.ndarray:
    hours = int(np.ceil(cfg.days * 24))
    profile = np.asarray(cfg.diurnal_profile, dtype=float)
    profile = profile / profile.mean()
    rates = np.empty(hours)
    for hour in range(hours):
        day = hour // 24
        weekday = (cfg.start_weekday + day) % 7
        day_factor = cfg.weekend_factor if weekday >= 5 else 1.0
        if cfg.daily_seasonality:
            day_factor *= cfg.daily_seasonality[day % len(cfg.daily_seasonality)]
        rates[hour] = cfg.jobs_per_day / 24.0 * profile[hour % 24] * day_factor
    return rates


def _reference_duration(model, num_gpus: int, rng: np.random.Generator) -> float:
    median_s = model.median_for(num_gpus) * 60.0
    value = float(rng.lognormal(mean=np.log(median_s), sigma=model.sigma))
    return float(np.clip(value, model.min_seconds, model.max_seconds))


def _reference_failure_plan(cfg, rng: np.random.Generator):
    if rng.uniform() >= cfg.failure_fraction:
        return None
    if rng.uniform() < cfg.failure_user_error_share:
        return FailurePlan(FailureCategory.USER_ERROR, float(rng.beta(1.2, 20.0)) or 0.01)
    return FailurePlan(FailureCategory.OOM, float(np.clip(rng.uniform(0.05, 0.95), 0.01, 1.0)))


def reference_generate(cfg, seed) -> tuple[Trace, np.random.Generator]:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    users: list[str] = []
    labs: list[str] = []
    for lab_index in range(cfg.num_labs):
        count = max(1, int(rng.poisson(cfg.mean_users_per_lab)))
        for user_index in range(count):
            users.append(f"user-{lab_index:02d}-{user_index:02d}")
            labs.append(f"lab-{lab_index:02d}")
    weights = np.arange(1, len(users) + 1, dtype=float) ** (-cfg.user_activity_zipf)
    weights = weights[np.argsort(rng.permutation(len(users)))]
    weights /= weights.sum()

    times: list[float] = []
    for hour, rate in enumerate(_reference_hourly_rates(cfg)):
        count = int(rng.poisson(rate))
        if count:
            times.extend(hour * 3600.0 + rng.uniform(0.0, 3600.0, size=count))
    arrivals = np.sort(np.asarray(times))
    arrivals = arrivals[arrivals < cfg.days * 86400.0]

    demands = list(cfg.gpu_demand_pmf)
    demand_probs = list(cfg.gpu_demand_pmf.values())
    types = list(cfg.gpu_type_preferences)
    type_probs = list(cfg.gpu_type_preferences.values())
    jobs: list[Job] = []
    user_indices = rng.choice(len(users), size=len(arrivals), p=weights)
    for index, (submit_time, user_index) in enumerate(zip(arrivals, user_indices)):
        interactive = bool(rng.uniform() < cfg.interactive_fraction)
        if interactive:
            num_gpus = int(rng.choice([1, 1, 1, 2]))
            duration = float(
                np.clip(
                    rng.lognormal(np.log(12 * 60.0), 0.9),
                    60.0,
                    cfg.interactive_max_minutes * 60.0,
                )
            )
        else:
            num_gpus = int(rng.choice(demands, p=demand_probs))
            duration = _reference_duration(cfg.duration, num_gpus, rng)
        tier = (
            JobTier.GUARANTEED if rng.uniform() < cfg.guaranteed_fraction else JobTier.OPPORTUNISTIC
        )
        elastic_min = None
        preemptible = None
        if not interactive and num_gpus >= 4 and rng.uniform() < cfg.elastic_fraction:
            elastic_min = max(1, num_gpus // 4)
            preemptible = True
        dataset_gb = 0.0
        if not interactive:
            dataset_gb = float(rng.lognormal(np.log(cfg.dataset_gb_median), cfg.dataset_gb_sigma))
        request = ResourceRequest(
            num_gpus=num_gpus,
            gpus_per_node=min(num_gpus, cfg.gpus_per_node_cap)
            if num_gpus > cfg.gpus_per_node_cap
            else None,
            gpu_type=str(rng.choice(types, p=type_probs)) or None,
            cpus_per_gpu=int(rng.choice([2, 4, 4, 8])),
            memory_gb_per_gpu=float(rng.choice([16.0, 32.0, 32.0, 64.0])),
        )
        factor = float(
            rng.lognormal(
                mean=np.log(cfg.walltime_overestimate_mean),
                sigma=cfg.walltime_overestimate_sigma,
            )
        )
        jobs.append(
            Job(
                job_id=f"job-{index:06d}",
                user_id=users[user_index],
                lab_id=labs[user_index],
                request=request,
                submit_time=float(submit_time),
                duration=duration,
                tier=tier,
                walltime_estimate=duration * max(1.0, factor),
                interactive=interactive,
                preemptible=preemptible,
                failure_plan=_reference_failure_plan(cfg, rng),
                elastic_min_gpus=elastic_min,
                dataset_gb=dataset_gb,
                name=f"{'notebook' if interactive else 'train'}-{index}",
            )
        )
    return Trace(jobs, name=cfg.name, metadata={"config": cfg.name, "days": cfg.days}), rng


def reference_expected_gpu_seconds(cfg, samples: int = 4000, seed: int = 12345) -> float:
    rng = np.random.default_rng(seed)
    demands = np.array(list(cfg.gpu_demand_pmf), dtype=int)
    probs = np.array(list(cfg.gpu_demand_pmf.values()))
    total = 0.0
    for _ in range(samples):
        if rng.uniform() < cfg.interactive_fraction:
            gpus = int(rng.choice([1, 1, 1, 2]))
            duration = float(
                np.clip(
                    rng.lognormal(np.log(12 * 60.0), 0.9),
                    60.0,
                    cfg.interactive_max_minutes * 60.0,
                )
            )
        else:
            gpus = int(rng.choice(demands, p=probs))
            duration = _reference_duration(cfg.duration, gpus, rng)
        total += gpus * duration
    return total / samples


def reference_assign_models(trace: Trace, rng: np.random.Generator) -> None:
    for job in trace:
        if job.model_name:
            continue
        if job.num_gpus <= 2:
            mix = _DEFAULT_MIX_SMALL
        elif job.num_gpus <= 8:
            mix = _DEFAULT_MIX_MEDIUM
        else:
            mix = _DEFAULT_MIX_LARGE
        job.model_name = str(rng.choice(mix))


class ReferencePipelineSynthesizer(PipelineSynthesizer):
    """The stage-level draws with ``rng.choice(p=...)`` and ``np.clip``."""

    def _sample_duration(self) -> float:
        cfg = self.config
        value = float(
            self.rng.lognormal(mean=np.log(cfg.stage_median_minutes * 60.0), sigma=cfg.stage_sigma)
        )
        return float(np.clip(value, cfg.min_stage_seconds, cfg.max_stage_seconds))

    def _stage_request(self) -> ResourceRequest:
        cfg = self.config
        demands = list(cfg.stage_gpu_pmf)
        num_gpus = int(self.rng.choice(demands, p=list(cfg.stage_gpu_pmf.values())))
        return ResourceRequest(
            num_gpus=num_gpus,
            gpus_per_node=min(num_gpus, cfg.gpus_per_node_cap)
            if num_gpus > cfg.gpus_per_node_cap
            else None,
        )

    def _build_workflow(self, index: int, submit_time: float) -> list[Job]:
        cfg = self.config
        template = str(
            self.rng.choice(list(cfg.template_mix), p=list(cfg.template_mix.values()))
        )
        low, high = cfg.chain_length if template == "chain" else cfg.fan_width
        stages = _TEMPLATES[template](int(self.rng.integers(low, high + 1)))
        workflow_id = f"{cfg.id_prefix}-{index:05d}"
        lab_index = int(self.rng.integers(cfg.num_labs))
        tier = (
            JobTier.GUARANTEED
            if self.rng.uniform() < cfg.guaranteed_fraction
            else JobTier.OPPORTUNISTIC
        )
        has_dependents = {upstream for _, upstreams in stages for upstream in upstreams}
        return [
            Job(
                job_id=f"{workflow_id}-s{stage_index:02d}",
                user_id=f"user-{lab_index:02d}-wf",
                lab_id=f"lab-{lab_index:02d}",
                request=self._stage_request(),
                submit_time=float(submit_time),
                duration=self._sample_duration(),
                tier=tier,
                workflow_id=workflow_id,
                depends_on=tuple(f"{workflow_id}-s{upstream:02d}" for upstream in upstreams),
                artifact_bytes=(
                    self._sample_artifact_bytes() if stage_index in has_dependents else 0.0
                ),
                name=f"{template}:{stage_name}",
            )
            for stage_index, (stage_name, upstreams) in enumerate(stages)
        ]


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def typed_rows(trace: Trace) -> list[list[tuple[str, type, object]]]:
    """Rows with each value's exact type, so 1 vs 1.0 or np.float64 differ."""
    return [[(key, type(value), value) for key, value in row.items()] for row in trace.frozen_rows()]


def assert_same_stream(config, seed: int) -> None:
    expected, expected_rng = reference_generate(config, seed)
    synthesizer = TraceSynthesizer(config, seed=seed)
    actual = synthesizer.generate()
    assert len(actual) == len(expected) > 0
    assert typed_rows(actual) == typed_rows(expected)
    assert actual.name == expected.name and actual.metadata == expected.metadata
    assert synthesizer.rng.bit_generator.state == expected_rng.bit_generator.state


PRESETS = {
    "tacc": lambda: tacc_campus(days=2.0),
    "philly": lambda: philly_like(days=2.0),
    "helios": lambda: helios_like(days=2.0),
}

# --------------------------------------------------------------------------
# The synthesizer
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 7, 1234])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_same_rows_and_stream(preset, seed):
    assert_same_stream(PRESETS[preset](), seed)


@pytest.mark.parametrize(
    "overrides",
    [
        {"elastic_fraction": 0.3},
        {"interactive_fraction": 0.0},
        {"interactive_fraction": 1.0},
        {"gpu_demand_pmf": {4: 1.0}},
        {"gpu_demand_pmf": {16: 1.0}, "elastic_fraction": 1.0, "failure_fraction": 1.0},
        {"gpu_type_preferences": {"v100": 1.0}, "failure_user_error_share": 0.0},
        {"gpu_demand_pmf": {1: 0.0, 2: 0.5, 8: 0.0, 64: 0.5}},
        {"interactive_max_minutes": 0.5},
        {"duration": DurationModel(median_minutes={1: 30, 4: 90}, min_seconds=600, max_seconds=3600)},
    ],
    ids=[
        "elastic",
        "no-interactive",
        "all-interactive",
        "single-demand",
        "wide-elastic-failing",
        "one-type-oom",
        "zero-probabilities",
        "notebook-cap-below-floor",
        "int-duration-bounds",
    ],
)
def test_edge_configs_same_rows_and_stream(overrides):
    assert_same_stream(tacc_campus(days=1.5, **overrides), seed=11)


@pytest.mark.parametrize("start_weekday", [0, 4, 6])
def test_seasonality_same_rows_and_stream(start_weekday):
    config = tacc_campus(
        days=30.0,
        jobs_per_day=40.0,
        daily_seasonality=deadline_cycle(),
        start_weekday=start_weekday,
    )
    assert_same_stream(config, seed=5)


def test_fractional_horizon_same_rows_and_stream():
    assert_same_stream(helios_like(days=1.37, weekend_factor=0.0, start_weekday=4), seed=2)


def test_caller_generator_continues_on_the_same_stream():
    config = philly_like(days=1.0)
    mine = np.random.default_rng(99)
    theirs = np.random.default_rng(99)
    TraceSynthesizer(config, seed=mine).generate()
    reference_generate(config, theirs)
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert mine.random() == theirs.random()


def test_hourly_rates_match_the_per_hour_loop():
    for config in (
        tacc_campus(days=7.0),
        philly_like(days=2.5, start_weekday=3),
        helios_like(days=60.0, daily_seasonality=deadline_cycle(), start_weekday=6),
    ):
        assert hourly_rates(config).tolist() == _reference_hourly_rates(config).tolist()


# --------------------------------------------------------------------------
# Load calibration and model assignment
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        tacc_campus(days=1.0),
        philly_like(days=1.0),
        helios_like(days=1.0),
        tacc_campus(days=1.0, interactive_fraction=1.0),
        tacc_campus(days=1.0, gpu_demand_pmf={8: 1.0}),
    ],
    ids=["tacc", "philly", "helios", "all-interactive", "single-demand"],
)
def test_expected_gpu_seconds_is_bit_identical(config):
    for seed in (12345, 0):
        assert expected_gpu_seconds_per_job(config, samples=1500, seed=seed) == (
            reference_expected_gpu_seconds(config, samples=1500, seed=seed)
        )


def test_assign_models_same_names_and_stream():
    trace = TraceSynthesizer(tacc_campus(days=2.0), seed=4).generate()
    expected = Trace.from_rows(trace.frozen_rows())
    expected.jobs[0].model_name = "gpt2-xl"  # pre-assigned jobs draw nothing
    trace.jobs[0].model_name = "gpt2-xl"
    mine = np.random.default_rng(8)
    theirs = np.random.default_rng(8)
    assign_models(trace, seed=mine)
    reference_assign_models(expected, theirs)
    assert [job.model_name for job in trace] == [job.model_name for job in expected]
    assert all(type(job.model_name) is str for job in trace)
    assert mine.bit_generator.state == theirs.bit_generator.state


# --------------------------------------------------------------------------
# Pipelines and the draw primitives themselves
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"template_mix": {"chain": 0.0, "fan-out": 0.0, "fan-in": 0.0, "rag": 1.0}},
        {"stage_gpu_pmf": {16: 1.0}, "min_stage_seconds": 3600.0},
    ],
    ids=["default", "rag-only", "wide-stages"],
)
def test_pipeline_same_rows_and_stream(overrides):
    config = replace(PipelineTraceConfig(days=2.0, workflows_per_day=30.0), **overrides)
    mine = PipelineSynthesizer(config, seed=6)
    theirs = ReferencePipelineSynthesizer(config, seed=6)
    assert typed_rows(mine.generate()) == typed_rows(theirs.generate())
    assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state


def test_categorical_draw_matches_choice():
    pmfs = [
        {1: 0.55, 2: 0.15, 4: 0.12, 8: 0.10, 16: 0.05, 32: 0.02, 64: 0.01},
        {"": 0.70, "a100-80": 0.10, "v100": 0.10, "rtx3090": 0.10},
        {"only": 1.0},
        {"a": 0.0, "b": 0.25, "c": 0.0, "d": 0.75, "e": 0.0},
        {k: 1.0 / 3.0 for k in range(3)},
    ]
    for pmf in pmfs:
        categorical = Categorical(pmf)
        for seed in range(40):
            mine = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for _ in range(50):
                expected = theirs.choice(list(pmf), p=list(pmf.values())).item()
                assert categorical.draw(mine) == expected
            assert mine.bit_generator.state == theirs.bit_generator.state


class _FixedDraws:
    """Stands in for a Generator whose next ``random()`` values are known."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0)


def test_categorical_boundaries_match_searchsorted_right():
    """At a draw equal to a cdf step, choice takes the key after it, so a
    zero-probability key is never drawn, even by a draw of exactly 0.0."""
    pmf = {"a": 0.0, "b": 0.25, "c": 0.0, "d": 0.75}
    categorical = Categorical(pmf)
    draws = [0.0, 0.25, 0.5, 0.999]
    assert [categorical.draw(_FixedDraws([u])) for u in draws] == ["b", "d", "d", "d"]
    cdf = np.asarray(list(pmf.values())).cumsum()
    keys = list(pmf)
    assert [keys[cdf.searchsorted(u, side="right")] for u in draws] == ["b", "d", "d", "d"]


def test_uniform_pick_and_random_match_choice_and_uniform():
    for seq in ((1, 1, 1, 2), (2, 4, 4, 8), (16.0, 32.0, 32.0, 64.0), ("x",), tuple("abcdefg")):
        for seed in range(40):
            mine = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for _ in range(50):
                assert uniform_pick(seq, mine) == theirs.choice(list(seq)).item()
                assert mine.random() == theirs.uniform()
            assert mine.bit_generator.state == theirs.bit_generator.state
