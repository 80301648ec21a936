"""DNN model profiles for placement-sensitive performance modelling.

Distributed training alternates compute (forward/backward) with gradient
synchronisation, so how much a job suffers from a spread-out placement
depends on its gradient size relative to its compute time.  This module
carries a small catalogue of representative model profiles (communication-
light CNNs through communication-heavy transformers) and helpers to assign
them to trace jobs, which the execution layer (:mod:`repro.execlayer`) turns
into slowdown factors and the F9 locality experiment sweeps.

Numbers are representative of published per-iteration measurements on V100
hardware; only their *ratios* matter to the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .synth import uniform_pick
from .trace import Trace


@dataclass(frozen=True)
class ModelProfile:
    """Per-iteration profile of one training workload.

    Attributes:
        name: Catalogue key.
        gradient_mb: Bytes exchanged per iteration per replica (MB).
        compute_ms: Forward+backward time per iteration on one reference
            GPU (V100), milliseconds.
        batch_memory_gb: Approximate per-GPU working set, used by the
            schema layer to sanity-check memory requests.
    """

    name: str
    gradient_mb: float
    compute_ms: float
    batch_memory_gb: float

    def __post_init__(self) -> None:
        if self.gradient_mb <= 0 or self.compute_ms <= 0:
            raise ConfigError(f"model profile {self.name} has non-positive fields")

    @property
    def comm_intensity(self) -> float:
        """MB of gradient per millisecond of compute — higher = more
        sensitive to placement."""
        return self.gradient_mb / self.compute_ms


MODEL_CATALOG: dict[str, ModelProfile] = {
    profile.name: profile
    for profile in [
        ModelProfile("resnet50", gradient_mb=98.0, compute_ms=160.0, batch_memory_gb=9.0),
        ModelProfile("vgg16", gradient_mb=528.0, compute_ms=210.0, batch_memory_gb=11.0),
        ModelProfile("bert-base", gradient_mb=418.0, compute_ms=185.0, batch_memory_gb=12.0),
        ModelProfile("bert-large", gradient_mb=1340.0, compute_ms=340.0, batch_memory_gb=15.0),
        ModelProfile("gpt2-medium", gradient_mb=1420.0, compute_ms=310.0, batch_memory_gb=16.0),
        ModelProfile("gpt2-xl", gradient_mb=6200.0, compute_ms=720.0, batch_memory_gb=28.0),
        ModelProfile("dlrm", gradient_mb=2200.0, compute_ms=95.0, batch_memory_gb=20.0),
        ModelProfile("pointnet", gradient_mb=14.0, compute_ms=60.0, batch_memory_gb=4.0),
    ]
}

#: Default model mix by GPU demand class: small jobs are mostly small CNNs /
#: notebooks, wide jobs skew to large transformers.
_DEFAULT_MIX_SMALL = ("resnet50", "pointnet", "bert-base", "vgg16")
_DEFAULT_MIX_MEDIUM = ("resnet50", "bert-base", "bert-large", "vgg16", "dlrm")
_DEFAULT_MIX_LARGE = ("bert-large", "gpt2-medium", "gpt2-xl", "dlrm")


def get_model_profile(name: str) -> ModelProfile:
    """Catalogue lookup with a helpful error on a miss."""
    try:
        return MODEL_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_CATALOG))
        raise ConfigError(f"unknown model {name!r}; known models: {known}") from None


def default_profile_for(num_gpus: int) -> ModelProfile:
    """Deterministic fallback profile for jobs without an assigned model."""
    if num_gpus <= 2:
        return MODEL_CATALOG["resnet50"]
    if num_gpus <= 8:
        return MODEL_CATALOG["bert-base"]
    return MODEL_CATALOG["bert-large"]


def assign_models(trace: Trace, seed: int | np.random.Generator = 0) -> Trace:
    """Assign a model name to every job in *trace* (in place; returns it).

    Jobs that already carry a ``model_name`` are left untouched so traces
    loaded from disk replay identically.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    for job in trace:
        if job.model_name:
            continue
        if job.num_gpus <= 2:
            mix = _DEFAULT_MIX_SMALL
        elif job.num_gpus <= 8:
            mix = _DEFAULT_MIX_MEDIUM
        else:
            mix = _DEFAULT_MIX_LARGE
        job.model_name = uniform_pick(mix, rng)
    return trace


def profile_of(job) -> ModelProfile:
    """Resolve a job's model profile (catalogue entry or size-based default)."""
    if getattr(job, "model_name", ""):
        return get_model_profile(job.model_name)
    return default_profile_for(job.num_gpus)
