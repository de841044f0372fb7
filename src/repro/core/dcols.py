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
from .cost import VertexEvaluator
from .quantum import QuantumPolicy
from .registry import register_scheduler
from .representations import SequenceOrientedExpander
from .scheduler import DEFAULT_PER_VERTEX_COST, SearchScheduler


class DCOLS(SearchScheduler):
    """Sequence-oriented dynamic scheduler under RT-SADS's quantum regime.

    ``comm``, ``evaluator``, ``quantum_policy``, ``per_vertex_cost`` and
    ``phase_runner`` are as in :class:`repro.core.rtsads.RTSADS` — both
    algorithms receive identical time quanta and per-vertex costs, per
    Section 5.2.  The tree is the literal Figure-1 one: every phase's first
    level considers processor 0 (the configuration whose idle-processor
    pathology the paper analyses), and each level probes as many
    EDF-ordered tasks as the machine has processors, so a D-COLS expansion
    evaluates exactly as many candidates as an RT-SADS expansion does.
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
        expander = SequenceOrientedExpander()
        super().__init__(
            comm=comm,
            # Without rotation the expander is stateless across phases.
            expander_factory=lambda phase_index: expander,
            evaluator=evaluator,
            quantum_policy=quantum_policy,
            per_vertex_cost=per_vertex_cost,
            name="D-COLS",
            instrumentation=instrumentation,
            phase_runner=phase_runner,
        )


register_scheduler("dcols", DCOLS.from_context)
