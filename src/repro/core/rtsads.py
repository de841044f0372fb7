"""RT-SADS: Real-Time Self-Adjusting Dynamic Scheduling (paper Section 4).

RT-SADS searches an **assignment-oriented** task space (pick a task, branch
on processors) under a **self-adjusting quantum** ``max(Min_Slack,
Min_Load)``, guided by the **load-balancing cost function** ``CE``, with the
quantum-aware feasibility test that makes its correctness theorem hold.  It
is a configuration of :class:`repro.core.scheduler.SearchScheduler`; this
module pins the paper's choices and documents the knobs.
"""

from __future__ import annotations

from typing import Optional

from ..observability import Instrumentation
from .affinity import CommunicationModel
from .cost import VertexEvaluator
from .quantum import QuantumPolicy
from .registry import register_scheduler
from .representations import AssignmentOrientedExpander
from .scheduler import DEFAULT_PER_VERTEX_COST, SearchScheduler


class RTSADS(SearchScheduler):
    """The paper's algorithm with its default mechanisms.

    Parameters
    ----------
    comm:
        Communication model supplying ``c_ij`` (usually the uniform-C
        wormhole model).
    evaluator:
        Vertex evaluator; defaults to the load-balancing cost function
        ``CE`` of Section 4.4.  Pass another evaluator for ablation A2.
    quantum_policy:
        Defaults to the self-adjusting criterion of Figure 3.  Pass a
        :class:`repro.core.quantum.FixedQuantum` for ablation A1.
    per_vertex_cost:
        Modelled scheduling cost of generating one search vertex (the
        virtual-time stand-in for Paragon host-processor speed).
    phase_runner:
        Alternative phase loop; the differential harness passes the frozen
        :func:`repro.core.reference.run_phase` here to pin the optimized
        hot path against the reference implementation.
    """

    def __init__(
        self,
        comm: CommunicationModel,
        evaluator: Optional[VertexEvaluator] = None,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        instrumentation: Optional["Instrumentation"] = None,
        phase_runner=None,
    ) -> None:
        expander = AssignmentOrientedExpander()
        super().__init__(
            comm=comm,
            # The assignment-oriented expander is stateless across phases.
            expander_factory=lambda phase_index: expander,
            evaluator=evaluator,
            quantum_policy=quantum_policy,
            per_vertex_cost=per_vertex_cost,
            name="RT-SADS",
            instrumentation=instrumentation,
            phase_runner=phase_runner,
        )


register_scheduler("rtsads", RTSADS.from_context)
