"""D-COLS: Distributed Continuous On-Line Scheduling (the paper's baseline).

D-COLS searches a **sequence-oriented** task space (paper Figure 1): each
tree level selects a processor in round-robin order and branches on which
task to run there.  The paper allocates D-COLS the *same* quantum formula as
RT-SADS and runs it under the same feasibility test, isolating the effect of
the search representation — we do exactly that here.  Its features follow
the sequence-oriented techniques of Zhao & Ramamritham and Shen et al. that
the paper cites: bounded lookahead (a beam over EDF-ordered tasks) and
limited backtracking via the shared candidate list.
"""

from __future__ import annotations

from typing import Optional

from ..observability import Instrumentation
from .affinity import CommunicationModel
from .cost import LoadBalancingEvaluator, VertexEvaluator
from .quantum import QuantumPolicy, SelfAdjustingQuantum
from .registry import register_scheduler
from .representations import SequenceOrientedExpander
from .scheduler import DEFAULT_PER_VERTEX_COST, SearchScheduler


class DCOLS(SearchScheduler):
    """Sequence-oriented dynamic scheduler under RT-SADS's quantum regime.

    Parameters
    ----------
    comm, evaluator, quantum_policy, per_vertex_cost:
        As in :class:`repro.core.rtsads.RTSADS` — both algorithms receive
        identical time quanta and per-vertex costs, per Section 5.2.
    beam_width:
        Tasks probed per processor level, in EDF order.  Defaults to the
        machine's processor count so each D-COLS expansion evaluates exactly
        as many candidates as an RT-SADS expansion does.
    rotate_start:
        Whether the round-robin starting processor advances each phase.
        Defaults to False — the literal Figure-1 tree, whose first level
        always considers the same processor; this is the configuration whose
        idle-processor pathology the paper analyses.  Enabling rotation is a
        strictly friendlier variant (exercised by the ablations).
    """

    def __init__(
        self,
        comm: CommunicationModel,
        evaluator: Optional[VertexEvaluator] = None,
        quantum_policy: Optional[QuantumPolicy] = None,
        per_vertex_cost: float = DEFAULT_PER_VERTEX_COST,
        beam_width: Optional[int] = None,
        rotate_start: bool = False,
        max_candidates: Optional[int] = 100_000,
        instrumentation: Optional["Instrumentation"] = None,
        phase_runner=None,
    ) -> None:
        def factory(phase_index: int) -> SequenceOrientedExpander:
            start = phase_index if rotate_start else 0
            return SequenceOrientedExpander(
                beam_width=beam_width, start_processor=start
            )

        super().__init__(
            comm=comm,
            expander_factory=factory,
            evaluator=evaluator or LoadBalancingEvaluator(),
            quantum_policy=quantum_policy or SelfAdjustingQuantum(),
            per_vertex_cost=per_vertex_cost,
            max_candidates=max_candidates,
            name="D-COLS",
            instrumentation=instrumentation,
            phase_runner=phase_runner,
        )
        self.beam_width = beam_width
        self.rotate_start = rotate_start


register_scheduler("dcols", DCOLS.from_context)
