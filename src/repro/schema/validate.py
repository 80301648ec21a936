"""Cross-field validation of task specs against a target cluster.

Schema-level validation (field shapes) lives on the dataclasses; this
module validates the *semantics* that need context: does the per-GPU
memory cover the declared model's working set, and could the target
cluster ever run the task.  The cluster check is
:func:`~repro.sched.placement.base.admission_rejection`, the verdict the
simulator's arrival admission applies, so a spec passes here exactly when
the cluster would admit its job.  The frontend runs these checks at
submission so users fail in seconds, not after hours in the queue.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.cluster import Cluster
from ..errors import SchemaError
from ..sched.placement.base import admission_rejection, request_chunks
from ..workload.models import MODEL_CATALOG
from .taskspec import TaskSpec
from .workflow import WorkflowSpec


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found during semantic validation."""

    severity: str  # "error" | "warning"
    field: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.field}: {self.message}"


def validate_spec(spec: TaskSpec, cluster: Cluster | None = None) -> list[ValidationIssue]:
    """Return all issues found; errors make the spec unsubmittable."""
    issues: list[ValidationIssue] = []
    issues.extend(_validate_files(spec))
    issues.extend(_validate_model(spec))
    if cluster is not None:
        issues.extend(_validate_against_cluster(spec, cluster))
    return issues


def validate_workflow(
    workflow: WorkflowSpec, cluster: Cluster | None = None
) -> list[ValidationIssue]:
    """Validate a workflow: stage-name uniqueness plus every stage's spec.

    Stage issues are reported with a ``stages[<name>].`` field prefix so the
    user can tell which stage failed.
    """
    issues: list[ValidationIssue] = []
    names = [stage.name for stage in workflow.stages]
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        issues.append(
            ValidationIssue(
                "error",
                "stages",
                f"duplicate stage names: {sorted(duplicates)}",
            )
        )
    for stage in workflow.stages:
        for issue in validate_spec(stage.task, cluster):
            issues.append(
                ValidationIssue(
                    issue.severity,
                    f"stages[{stage.name}].{issue.field}",
                    issue.message,
                )
            )
    return issues


def ensure_valid_workflow(
    workflow: WorkflowSpec, cluster: Cluster | None = None
) -> list[ValidationIssue]:
    """Validate a workflow; raise :class:`SchemaError` on any error.

    Returns the warnings so callers can surface them.
    """
    issues = validate_workflow(workflow, cluster)
    errors = [issue for issue in issues if issue.severity == "error"]
    if errors:
        details = "; ".join(str(issue) for issue in errors)
        raise SchemaError(f"workflow {workflow.name!r} failed validation: {details}")
    return [issue for issue in issues if issue.severity == "warning"]


def ensure_valid(spec: TaskSpec, cluster: Cluster | None = None) -> list[ValidationIssue]:
    """Validate; raise :class:`SchemaError` on any error-severity issue.

    Returns the warnings so callers can surface them.
    """
    issues = validate_spec(spec, cluster)
    errors = [issue for issue in issues if issue.severity == "error"]
    if errors:
        details = "; ".join(str(issue) for issue in errors)
        raise SchemaError(f"task {spec.name!r} failed validation: {details}")
    return [issue for issue in issues if issue.severity == "warning"]


def _validate_files(spec: TaskSpec) -> list[ValidationIssue]:
    """Report duplicate file paths across code_files and datasets.

    The :class:`TaskSpec` constructor rejects these too; repeating the check
    here keeps the validator complete for specs arriving through other
    construction paths (deserialisation, test doubles).
    """
    paths = [f.path for f in spec.code_files + spec.datasets]
    duplicates = {p for p in paths if paths.count(p) > 1}
    if not duplicates:
        return []
    return [
        ValidationIssue(
            "error",
            "code_files/datasets",
            f"duplicate file paths: {sorted(duplicates)}",
        )
    ]


def _validate_model(spec: TaskSpec) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if not spec.model:
        return issues
    profile = MODEL_CATALOG.get(spec.model)
    if profile is None:
        issues.append(
            ValidationIssue(
                "error",
                "model",
                f"unknown model {spec.model!r}; known: {sorted(MODEL_CATALOG)}",
            )
        )
        return issues
    if spec.resources.memory_gb_per_gpu < profile.batch_memory_gb:
        issues.append(
            ValidationIssue(
                "warning",
                "resources.memory_gb_per_gpu",
                f"{spec.resources.memory_gb_per_gpu:.0f} GB/GPU is below the "
                f"~{profile.batch_memory_gb:.0f} GB working set of {spec.model}; "
                "the task may OOM",
            )
        )
    return issues


def _validate_against_cluster(spec: TaskSpec, cluster: Cluster) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    resources = spec.resources
    request = resources.to_request()
    reason = admission_rejection(
        cluster, request, resources.partition, resources.walltime_hours, spec.qos.tier
    )
    if reason is not None:
        issues.append(ValidationIssue("error", "resources", reason))
    if len(request_chunks(request)) > 1 and not resources.rdma:
        issues.append(
            ValidationIssue(
                "warning",
                "resources.rdma",
                "multi-node job without rdma: true — gradient sync will run "
                "over TCP and cross-node scaling will suffer; the RDMA "
                "fabric is free to request",
            )
        )
    return issues
