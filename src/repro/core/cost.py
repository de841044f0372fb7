"""Vertex evaluation: cost functions and heuristics (paper Sections 3, 4.4).

After a vertex's feasible successors are generated, they are sorted by a
value so the most promising one is expanded first.  The paper's load-balanced
RT-SADS uses the total-execution-time cost function::

    CE_i = max_k ce_k,   ce_k = max(0, Load_k(j-1) - Q_s(j)) + sum(p_l + c_lk)

which simultaneously balances processor loads and penalizes inter-processor
communication (a remote assignment inflates ``ce_k`` by ``C``).  Lower values
are better throughout this module.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .search import PhaseContext, Vertex


class VertexEvaluator(ABC):
    """Assigns a sort value to a candidate vertex; lower expands first."""

    @abstractmethod
    def evaluate(self, ctx: "PhaseContext", vertex: "Vertex") -> float:
        """Value of the candidate; ties resolved by generation order."""

    @property
    def name(self) -> str:
        """Human-readable evaluator name (class name)."""
        return type(self).__name__


class LoadBalancingEvaluator(VertexEvaluator):
    """The paper's cost function ``CE_i = max_k ce_k`` (Section 4.4).

    ``vertex.proc_offsets`` contains, for each processor, the projected
    initial load plus the cost of every assignment on the partial path, so
    ``CE_i`` is its maximum — read from ``vertex.max_offset``, which
    :func:`repro.core.search.make_child` maintains incrementally (an
    assignment raises exactly one offset, so the child's maximum is
    ``max(parent max, new offset)``) instead of rescanning all ``m`` offsets
    per candidate.  The scheduled end of the new assignment breaks ties so
    that, among equally balanced extensions, the one finishing the new task
    earliest is preferred.
    """

    #: Weight of the tie-breaking term; small enough never to override CE.
    TIE_WEIGHT = 1e-6

    def evaluate(self, ctx: "PhaseContext", vertex: "Vertex") -> float:
        """``CE_i`` plus the scheduled-end tie-breaking term."""
        return vertex.max_offset + self.TIE_WEIGHT * vertex.scheduled_end


class EarliestFinishEvaluator(VertexEvaluator):
    """Greedy heuristic: prefer the assignment that completes soonest.

    This is the classic minimum-completion-time rule; it ignores global
    balance and serves as the paper's "heuristic function" alternative.
    """

    def evaluate(self, ctx: "PhaseContext", vertex: "Vertex") -> float:
        """The candidate's completion time on its processor."""
        return vertex.scheduled_end


class MinSlackEvaluator(VertexEvaluator):
    """Prefer assignments leaving the least slack (tightest fit first).

    Packs urgent work early, mirroring least-laxity intuition.  Included as
    an additional heuristic for the cost-function ablation (A2).
    """

    def evaluate(self, ctx: "PhaseContext", vertex: "Vertex") -> float:
        """Worst-case slack of the assignment; tight fits sort first."""
        task = ctx.tasks[vertex.batch_index]
        return task.deadline - (ctx.phase_end_bound + vertex.scheduled_end)


class FifoEvaluator(VertexEvaluator):
    """No heuristic: keep successors in generation order.

    With a stable sort this preserves processor order (assignment-oriented)
    or EDF task order (sequence-oriented), exactly the "no cost function"
    configuration of the ablation.
    """

    def evaluate(self, ctx: "PhaseContext", vertex: "Vertex") -> float:
        """A constant: the stable CL preserves generation order."""
        return 0.0
