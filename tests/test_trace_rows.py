"""Row rehydration parity: ``_job_from_row`` on typed, CSV and JSON rows.

``Trace.from_rows`` (the sweep engine's per-cell copy and
``fresh_trace_copy``), ``from_csv`` and ``from_jsonl`` all rebuild jobs
through ``_job_from_row``.  Typed values skip the ``float(str(x))``
round trip; this module keeps the all-text formulation and asserts the two
agree on every input shape: identical ``Job`` fields (types included), or
the same exception type and message.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

import pytest

from repro.workload import Job, Trace, TraceSynthesizer, assign_models, pipeline_trace, tacc_campus
from repro.workload.job import FailureCategory, FailurePlan, JobTier, ResourceRequest
from repro.workload.trace import _CSV_COLUMNS, _job_from_row


def reference_job_from_row(row: dict[str, object]) -> Job:
    """Every value through ``str`` first, then parsed."""

    def text(key: str) -> str:
        value = row.get(key, "")
        return "" if value is None else str(value)

    plan = None
    if text("failure_category"):
        plan = FailurePlan(
            category=FailureCategory(text("failure_category")),
            at_fraction=float(text("failure_at_fraction")),
        )
    gpus_per_node = text("gpus_per_node")
    return Job(
        job_id=text("job_id"),
        user_id=text("user_id"),
        lab_id=text("lab_id"),
        submit_time=float(text("submit_time")),
        duration=float(text("duration")),
        request=ResourceRequest(
            num_gpus=int(float(text("num_gpus"))),
            gpus_per_node=int(float(gpus_per_node)) if gpus_per_node else None,
            gpu_type=text("gpu_type") or None,
            cpus_per_gpu=int(float(text("cpus_per_gpu") or 4)),
            memory_gb_per_gpu=float(text("memory_gb_per_gpu") or 32.0),
        ),
        tier=JobTier(text("tier") or "guaranteed"),
        partition=text("partition") or None,
        walltime_estimate=float(text("walltime_estimate")) if text("walltime_estimate") else None,
        interactive=bool(int(float(text("interactive") or 0))),
        failure_plan=plan,
        elastic_min_gpus=int(float(text("elastic_min"))) if text("elastic_min") else None,
        dataset_gb=float(text("dataset_gb") or 0.0),
        model_name=text("model"),
        name=text("name"),
        workflow_id=text("workflow") or None,
        depends_on=tuple(d for d in text("depends_on").split(";") if d),
        artifact_bytes=float(text("artifact_bytes") or 0.0),
    )


def outcome(build, row: dict[str, object]) -> tuple:
    """Every Job field as (name, type, repr), or the exception raised."""
    try:
        job = build(row)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), str(exc))
    return tuple(
        (f.name, type(getattr(job, f.name)), repr(getattr(job, f.name))) for f in fields(Job)
    )


def assert_parity(rows) -> int:
    count = 0
    for row in rows:
        assert outcome(_job_from_row, row) == outcome(reference_job_from_row, row), row
        count += 1
    return count


@pytest.fixture(scope="module")
def typed_rows() -> list[dict[str, object]]:
    """Campus rows (failure plans, elastic jobs, models) and workflow rows."""
    campus = TraceSynthesizer(tacc_campus(days=1.0, elastic_fraction=0.5), seed=3).generate()
    assign_models(campus, seed=3)
    workflows = pipeline_trace(days=0.5, seed=1)
    rows = list(campus.frozen_rows()) + list(workflows.frozen_rows())
    assert any(row["failure_category"] for row in rows)
    assert any(row["elastic_min"] != "" for row in rows)
    assert any(row["gpus_per_node"] != "" for row in rows)
    assert any(row["depends_on"] and row["artifact_bytes"] for row in rows)
    return rows


def test_typed_rows(typed_rows):
    assert assert_parity(typed_rows) == len(typed_rows)


def test_csv_text_rows(typed_rows):
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(typed_rows)
    buffer.seek(0)
    text_rows = list(csv.DictReader(buffer))
    assert all(isinstance(value, str) for value in text_rows[0].values())
    assert assert_parity(text_rows) == len(typed_rows)


def test_json_rows(typed_rows):
    json_rows = [json.loads(json.dumps(row)) for row in typed_rows]
    assert assert_parity(json_rows) == len(typed_rows)


#: Values a hand-written JSONL record (or a caller's dict) may carry.
ODD_VALUES = [
    None,
    "",
    " ",
    0,
    1,
    2,
    -3,
    8,
    10**400,
    0.0,
    0.25,
    7.5,
    1e400,
    float("nan"),
    -0.0,
    True,
    False,
    "1",
    "2.0",
    "1e3",
    "inf",
    "x",
    "oom",
    "user_error",
    "opportunistic",
    "a;b;;c",
]


def test_every_field_with_odd_values(typed_rows):
    """Each field of a few base rows replaced by each odd value in turn."""
    bases = [
        next(row for row in typed_rows if row["failure_category"]),
        next(row for row in typed_rows if row["elastic_min"] != ""),
        next(row for row in typed_rows if row["depends_on"]),
    ]
    variants = []
    for base in bases:
        for key in _CSV_COLUMNS:
            for value in ODD_VALUES:
                variants.append({**base, key: value})
            variants.append({k: v for k, v in base.items() if k != key})
    outcomes = [outcome(_job_from_row, row)[0] for row in variants]
    assert sum(1 for o in outcomes if o == "raised") > 100  # the error paths are exercised
    assert sum(1 for o in outcomes if o != "raised") > 100
    assert assert_parity(variants) == len(variants)


def test_bool_rejected_where_a_number_belongs(typed_rows):
    row = {**typed_rows[0], "interactive": True}
    with pytest.raises(ValueError, match="could not convert string to float: 'True'"):
        _job_from_row(row)


def test_from_rows_roundtrip_is_exact(typed_rows):
    trace = Trace.from_rows(typed_rows)
    assert trace.frozen_rows() == tuple(
        sorted(typed_rows, key=lambda row: (row["submit_time"], row["job_id"]))
    )
