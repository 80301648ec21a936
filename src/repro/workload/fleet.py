"""Vectorized fleet-scale trace synthesis: ~1M jobs in seconds.

The scalar :class:`~repro.workload.synth.TraceSynthesizer` draws every job
field one ``rng`` call at a time — perfect for campus-sized traces and
pinned by golden tests, but at about 32 us per job, against 9 us for the
vectorized path (Job construction included, measured on a 2-CPU Xeon
host), a million-job month would spend half a minute in per-call Python
overhead rather than in the random draws.
:class:`FleetTraceSynthesizer` generates the same *kind* of
workload (same :class:`~repro.workload.synth.SyntheticTraceConfig`
parameterisation: NHPP diurnal arrivals, power-of-two demand, log-normal
durations, two tiers, scripted failures) array-at-a-time:

* **One independent RNG stream per lab**, spawned from the root seed via
  ``np.random.SeedSequence.spawn`` — labs are statistically independent,
  and the same seed always reproduces the same jobs regardless of how the
  arrays are later merged.
* **Array-at-a-time sampling**: each lab draws its full arrival vector and
  every per-job field as one vectorized call.
* **Interned requests**: jobs overwhelmingly share a handful of request
  shapes, so identical shapes share one frozen
  :class:`~repro.workload.job.ResourceRequest` instance — at a million
  jobs this is the difference between ~100 MB of duplicate objects and a
  dict of a few hundred.

Determinism contract: *self*-deterministic (same seed + config → the same
trace, byte for byte), **not** stream-compatible with the scalar
synthesizer — existing golden tests keep using ``TraceSynthesizer``
untouched.  Job ids use eight digits (``job-00000000``) because the
simulator's tiebreaks compare ids lexicographically and six digits stop
sorting numerically past 999 999 jobs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .columnar import COLUMN_NAMES, ColumnarTrace, materialize_jobs
from .synth import (
    CPUS_PER_GPU,
    MEMORY_GB_PER_GPU,
    NOTEBOOK_GPUS,
    NOTEBOOK_LOG_MEDIAN_S,
    NOTEBOOK_SIGMA,
    SyntheticTraceConfig,
    hourly_rates,
)
from .trace import Trace

#: Zipf exponent for lab *volume* shares (mild skew: big labs submit more).
LAB_SHARE_ZIPF = 0.8


class FleetTraceSynthesizer:
    """Array-at-a-time trace generation for fleet-scale simulations.

    >>> from repro.workload.synth import tacc_campus
    >>> trace = FleetTraceSynthesizer(tacc_campus(days=1), seed=0).generate()
    >>> len(trace) > 0
    True
    """

    def __init__(self, config: SyntheticTraceConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = int(seed)

    # -- population ----------------------------------------------------------

    def _lab_shares(self) -> np.ndarray:
        ranks = np.arange(1, self.config.num_labs + 1, dtype=float)
        shares = ranks**-LAB_SHARE_ZIPF
        return shares / shares.sum()

    def _user_weights(self) -> np.ndarray:
        """Within-lab user activity (Zipf over a fixed-size roster)."""
        count = max(1, int(round(self.config.mean_users_per_lab)))
        ranks = np.arange(1, count + 1, dtype=float)
        weights = ranks**-self.config.user_activity_zipf
        return weights / weights.sum()

    # -- per-lab sampling ----------------------------------------------------

    def _lab_columns(
        self, rng: np.random.Generator, rates: np.ndarray
    ) -> dict[str, np.ndarray]:
        """All job fields for one lab, every field one vectorized draw."""
        cfg = self.config
        counts = rng.poisson(rates)
        total = int(counts.sum())
        hours = np.arange(len(rates), dtype=float) * 3600.0
        submit = np.repeat(hours, counts) + rng.uniform(0.0, 3600.0, size=total)
        horizon = cfg.days * 86400.0
        keep = submit < horizon
        submit = submit[keep]
        total = len(submit)

        interactive = rng.random(total) < cfg.interactive_fraction
        demands = np.fromiter(cfg.gpu_demand_pmf, dtype=np.int64)
        demand_probs = np.fromiter(cfg.gpu_demand_pmf.values(), dtype=float)
        train_gpus = rng.choice(demands, size=total, p=demand_probs)
        notebook_gpus = rng.choice(np.array(NOTEBOOK_GPUS), size=total)
        num_gpus = np.where(interactive, notebook_gpus, train_gpus)

        # Duration: log-normal around the demand class median (largest
        # configured key <= demand), interactive notebooks overridden.
        keys = np.sort(demands)
        medians = np.array([cfg.duration.median_for(int(k)) for k in keys])
        class_index = np.searchsorted(keys, train_gpus, side="right") - 1
        median_s = medians[class_index] * 60.0
        train_duration = np.clip(
            rng.lognormal(mean=np.log(median_s), sigma=cfg.duration.sigma),
            cfg.duration.min_seconds,
            cfg.duration.max_seconds,
        )
        notebook_duration = np.clip(
            rng.lognormal(NOTEBOOK_LOG_MEDIAN_S, NOTEBOOK_SIGMA, size=total),
            60.0,
            cfg.interactive_max_minutes * 60.0,
        )
        duration = np.where(interactive, notebook_duration, train_duration)

        guaranteed = rng.random(total) < cfg.guaranteed_fraction
        walltime_factor = np.maximum(
            1.0,
            rng.lognormal(
                mean=np.log(cfg.walltime_overestimate_mean),
                sigma=cfg.walltime_overestimate_sigma,
                size=total,
            ),
        )

        type_keys = np.array(list(cfg.gpu_type_preferences), dtype=object)
        type_probs = np.fromiter(cfg.gpu_type_preferences.values(), dtype=float)
        gpu_type = rng.choice(type_keys, size=total, p=type_probs)
        cpus = rng.choice(np.array(CPUS_PER_GPU), size=total)
        memory = rng.choice(np.array(MEMORY_GB_PER_GPU), size=total)

        fails = rng.random(total) < cfg.failure_fraction
        user_error = rng.random(total) < cfg.failure_user_error_share
        early_fraction = rng.beta(1.2, 20.0, size=total)
        oom_fraction = np.clip(rng.uniform(0.05, 0.95, size=total), 0.01, 1.0)

        elastic = (
            ~interactive
            & (num_gpus >= 4)
            & (rng.random(total) < cfg.elastic_fraction)
        )
        dataset_gb = np.where(
            interactive,
            0.0,
            rng.lognormal(np.log(cfg.dataset_gb_median), cfg.dataset_gb_sigma, size=total),
        )
        user_weights = self._user_weights()
        user_index = rng.choice(len(user_weights), size=total, p=user_weights)

        return {
            "submit": submit,
            "interactive": interactive,
            "num_gpus": num_gpus,
            "duration": duration,
            "guaranteed": guaranteed,
            "walltime": duration * walltime_factor,
            "gpu_type": gpu_type,
            "cpus": cpus,
            "memory": memory,
            "fails": fails,
            "user_error": user_error,
            "early_fraction": early_fraction,
            "oom_fraction": oom_fraction,
            "elastic": elastic,
            "dataset_gb": dataset_gb,
            "user_index": user_index,
        }

    # -- generation ----------------------------------------------------------

    def generate(self, lazy: bool = False) -> Trace:
        """Synthesize the trace; ``lazy=True`` defers Job construction.

        The lazy path returns a :class:`~repro.workload.columnar.ColumnarTrace`
        whose statistics and serialisation rows come straight from the
        columns; ``Job`` objects are built (by the exact same loop) only
        when something iterates or indexes the trace.  The eager default
        keeps the fleet golden tests byte-identical.
        """
        cfg = self.config
        base_rates = hourly_rates(cfg)
        shares = self._lab_shares()
        streams = np.random.SeedSequence(self.seed).spawn(cfg.num_labs)

        per_lab = []
        for lab_index, (share, stream) in enumerate(zip(shares, streams)):
            columns = self._lab_columns(np.random.default_rng(stream), base_rates * share)
            columns["lab"] = np.full(len(columns["submit"]), lab_index, dtype=np.int64)
            columns["position"] = np.arange(len(columns["submit"]), dtype=np.int64)
            per_lab.append(columns)
        if not per_lab:
            raise ConfigError("fleet synthesis needs at least one lab")

        merged = {
            key: np.concatenate([columns[key] for columns in per_lab])
            for key in per_lab[0]
        }
        # Submit-time order with a deterministic (lab, within-lab) tiebreak;
        # ids are then assigned in that order so the trace's canonical
        # (submit_time, job_id) sort is already satisfied.
        order = np.lexsort((merged["position"], merged["lab"], merged["submit"]))

        # ``tolist()`` converts each column to native Python scalars in one
        # C pass; the construction loop (materialize_jobs) then touches no
        # numpy objects.
        cols = {key: merged[key][order].tolist() for key in COLUMN_NAMES}

        lab_ids = [f"lab-{lab:02d}" for lab in range(cfg.num_labs)]
        roster = len(self._user_weights())
        user_ids = [
            [f"user-{lab:02d}-{user:02d}" for user in range(roster)]
            for lab in range(cfg.num_labs)
        ]
        metadata = {"config": cfg.name, "days": cfg.days, "generator": "fleet"}
        if lazy:
            return ColumnarTrace(
                cols,
                name=f"{cfg.name}-fleet",
                metadata=metadata,
                lab_ids=lab_ids,
                user_ids=user_ids,
                gpus_per_node_cap=cfg.gpus_per_node_cap,
            )
        return Trace(
            materialize_jobs(cols, lab_ids, user_ids, cfg.gpus_per_node_cap),
            name=f"{cfg.name}-fleet",
            metadata=metadata,
        )


def fleet_trace(
    config: SyntheticTraceConfig, seed: int = 0, lazy: bool = False
) -> Trace:
    """One-call vectorized synthesis (see :class:`FleetTraceSynthesizer`)."""
    return FleetTraceSynthesizer(config, seed=seed).generate(lazy=lazy)
