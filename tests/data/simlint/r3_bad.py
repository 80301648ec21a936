"""R3 bad: lifecycle fields written outside the control plane."""


def force_finish(job, now):
    job.state = "COMPLETED"
    job.end_time = now
    job.attempts += 1


def force_release(job, now):
    job.lifecycle = "ADMITTED"
    job.deps_released_at = now
    job.productive_gpu_seconds += 3600.0
