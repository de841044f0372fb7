"""Core scheduling library: the paper's primary contribution.

Public surface:

* Task model: :class:`Task`, :class:`TaskSet`
* Communication models: :class:`UniformCommunicationModel` and friends
* Schedules: :class:`Schedule`, :class:`ScheduleEntry`
* Quantum policies: :class:`SelfAdjustingQuantum` (paper Figure 3) et al.
* Search representations: assignment-oriented vs sequence-oriented
* Schedulers: :class:`RTSADS`, :class:`DCOLS`, and the greedy baselines
"""

from .affinity import (
    CommunicationModel,
    DistanceCommunicationModel,
    UniformCommunicationModel,
    ZeroCommunicationModel,
    random_affinity,
)
from .baselines import GreedyEDFScheduler, MyopicScheduler, RandomScheduler
from .batch import Batch
from .cost import (
    EarliestFinishEvaluator,
    FifoEvaluator,
    LoadBalancingEvaluator,
    MinSlackEvaluator,
    VertexEvaluator,
)
from .dcols import DCOLS
from .feasibility import (
    is_feasible_against_bound,
    is_feasible_assignment,
    phase_end_bound,
    projected_offsets,
    remaining_quantum,
    schedule_is_deadline_safe,
)
from .phase import MIN_PHASE_TIME, PhaseResult, run_phase
from .registry import (
    SCHEDULER_NAMES,
    SchedulerContext,
    make_scheduler,
    register_scheduler,
    registered_names,
)
from .quantum import (
    FixedQuantum,
    LoadOnlyQuantum,
    QuantumPolicy,
    SelfAdjustingQuantum,
    SlackOnlyQuantum,
    min_load,
    min_slack,
)
from .representations import (
    AssignmentOrientedExpander,
    SequenceOrientedExpander,
)
from .rtsads import RTSADS
from .schedule import Schedule, ScheduleEntry
from .scheduler import DEFAULT_PER_VERTEX_COST, Scheduler, SearchScheduler
from .search import (
    CandidateList,
    Expander,
    Expansion,
    PhaseContext,
    SearchBudget,
    SearchOutcome,
    SearchStats,
    Vertex,
    VirtualTimeBudget,
    WallClockBudget,
    make_child,
    make_root,
    run_search,
)
from .task import Task, TaskSet, TaskValidationError, edf_key, make_task

__all__ = [
    "AssignmentOrientedExpander",
    "Batch",
    "CandidateList",
    "CommunicationModel",
    "DCOLS",
    "DEFAULT_PER_VERTEX_COST",
    "DistanceCommunicationModel",
    "EarliestFinishEvaluator",
    "Expander",
    "Expansion",
    "FifoEvaluator",
    "FixedQuantum",
    "GreedyEDFScheduler",
    "LoadBalancingEvaluator",
    "LoadOnlyQuantum",
    "MIN_PHASE_TIME",
    "MinSlackEvaluator",
    "MyopicScheduler",
    "PhaseContext",
    "PhaseResult",
    "QuantumPolicy",
    "RandomScheduler",
    "SCHEDULER_NAMES",
    "RTSADS",
    "Schedule",
    "ScheduleEntry",
    "Scheduler",
    "SearchBudget",
    "SearchOutcome",
    "SearchScheduler",
    "SearchStats",
    "SchedulerContext",
    "SelfAdjustingQuantum",
    "SequenceOrientedExpander",
    "SlackOnlyQuantum",
    "Task",
    "TaskSet",
    "TaskValidationError",
    "UniformCommunicationModel",
    "Vertex",
    "VertexEvaluator",
    "VirtualTimeBudget",
    "WallClockBudget",
    "ZeroCommunicationModel",
    "edf_key",
    "is_feasible_against_bound",
    "is_feasible_assignment",
    "make_child",
    "make_root",
    "make_scheduler",
    "make_task",
    "min_load",
    "min_slack",
    "phase_end_bound",
    "projected_offsets",
    "random_affinity",
    "register_scheduler",
    "registered_names",
    "remaining_quantum",
    "run_phase",
    "run_search",
    "schedule_is_deadline_safe",
]
