"""Live cluster runtime: RT-SADS as a real master/worker system over TCP.

Where :mod:`repro.simulator` models the distributed system in virtual time,
this package *runs* it: the scheduling host and every working processor are
separate OS processes on localhost, messages travel over real sockets, and
transactions execute for real against each worker's resident sub-databases.
The scheduler code is untouched — the same :class:`~repro.core.rtsads.RTSADS`
object that drives the simulator drives the live master; only time's source
changes (the wall clock instead of the event loop).

Entry points
------------
:func:`launch_cluster`          run one live experiment end to end.
:class:`ClusterConfig`          workload + deployment knobs.
:class:`FailurePlan`            kill a worker mid-run (fail-stop study).

The CLI surface is ``python -m repro.experiments cluster ...`` (installed:
``repro cluster ...``).
"""

from .config import ClusterConfig, build_cluster_workload
from .failure import FAILURE_EXIT_CODE, FailurePlan, HeartbeatMonitor
from .launcher import launch_cluster, reap_workers, spawn_worker
from .master import (
    ClusterError,
    ClusterMaster,
    ClusterStartupError,
    ClusterTimeoutError,
)
from .network import ConnectionLost, MessageHub, NetworkEvent, WorkerChannel
from .protocol import PROTOCOL_VERSION, FrameDecoder, ProtocolError
from .worker import ClusterWorker, worker_main

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "ClusterMaster",
    "ClusterStartupError",
    "ClusterTimeoutError",
    "ClusterWorker",
    "ConnectionLost",
    "FAILURE_EXIT_CODE",
    "FailurePlan",
    "FrameDecoder",
    "HeartbeatMonitor",
    "MessageHub",
    "NetworkEvent",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerChannel",
    "build_cluster_workload",
    "launch_cluster",
    "reap_workers",
    "spawn_worker",
    "worker_main",
]
