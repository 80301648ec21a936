"""tcloud: the user-side CLI/client and the simulated cluster frontend."""

from .client import TcloudClient, reset_sessions, session_for
from .config import DEFAULT_CONFIG_PATH, ClusterProfile, TcloudConfig
from .federation import FederatedClient, RoutingDecision
from .frontend import JobStatus, TaccFrontend, synthesize_workspace

__all__ = [
    "DEFAULT_CONFIG_PATH",
    "ClusterProfile",
    "FederatedClient",
    "RoutingDecision",
    "JobStatus",
    "TaccFrontend",
    "TcloudClient",
    "TcloudConfig",
    "reset_sessions",
    "session_for",
    "synthesize_workspace",
]
