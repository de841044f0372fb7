"""Search-space machinery shared by both scheduling representations.

Scheduling is an incremental search for a feasible schedule in a tree
``G(V, E)`` whose vertices are task-to-processor assignments (paper Section
3).  This module provides the pieces that are independent of the search
*representation*:

* :class:`Vertex` — a generated vertex: one assignment plus the persistent
  state (per-processor completion offsets, scheduled-task bitmask) needed to
  extend or evaluate the partial schedule it terminates.
* :class:`CandidateList` — the CL of the paper: feasible candidates awaiting
  expansion, best-first within a block, depth-first across blocks.
* :class:`SearchBudget` and its virtual-time / wall-clock implementations —
  the mechanism by which the quantum ``Q_s(j)`` bounds a phase.
* :func:`run_search` — the depth-first driver: expand the current vertex,
  keep feasible successors, backtrack on failure, stop at a leaf, a dead
  end, or quantum exhaustion, and return the best feasible partial schedule
  found.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from .affinity import CommunicationModel
from .feasibility import EPSILON, is_feasible_against_bound
from .schedule import Schedule, ScheduleEntry
from .task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cost import VertexEvaluator


class Vertex:
    """One generated vertex of the task-space tree ``G``.

    A vertex represents the assignment of ``ctx.tasks[batch_index]`` to
    ``processor``; the path from the root to the vertex is the partial
    schedule (paper Section 3).  State is persistent: ``proc_offsets`` and
    ``scheduled_mask`` are immutable snapshots, so backtracking to any vertex
    in the CL needs no undo work.

    ``proc_offsets`` is materialized lazily: a candidate only differs from
    its parent in one slot, and most generated candidates are never expanded
    (they wait in the CL, are backtracked past, or dropped), so building the
    full per-processor tuple at generation time is the single largest cost
    of the search inner loop.  Anything a candidate *is* asked for before
    expansion — its evaluator value via ``max_offset``/``scheduled_end``,
    its feasibility, its schedule path — is available without the tuple.
    """

    __slots__ = (
        "parent",
        "batch_index",
        "processor",
        "depth",
        "scheduled_mask",
        "_proc_offsets",
        "scheduled_end",
        "communication_cost",
        "value",
        "max_offset",
    )

    def __init__(
        self,
        parent: Optional["Vertex"],
        batch_index: int,
        processor: int,
        depth: int,
        scheduled_mask: int,
        proc_offsets: Optional[tuple],
        scheduled_end: float,
        communication_cost: float,
        value: float = 0.0,
        max_offset: Optional[float] = None,
    ) -> None:
        self.parent = parent
        self.batch_index = batch_index
        self.processor = processor
        self.depth = depth
        self.scheduled_mask = scheduled_mask
        self._proc_offsets = proc_offsets
        self.scheduled_end = scheduled_end
        self.communication_cost = communication_cost
        self.value = value
        # ``max(proc_offsets)`` maintained incrementally: extending a path
        # only ever raises one processor's offset, so the child's maximum is
        # max(parent max, new offset) — the O(1) form of the paper's
        # ``CE_i = max_k ce_k`` that the load-balancing evaluator reads.
        if max_offset is None:
            if proc_offsets is None:
                raise ValueError(
                    "a vertex needs either explicit proc_offsets or an "
                    "explicit max_offset"
                )
            max_offset = max(proc_offsets) if proc_offsets else 0.0
        self.max_offset = max_offset

    @property
    def proc_offsets(self) -> tuple:
        """Per-processor completion offsets, built on first use.

        Expansion always materializes the parent first (the expander reads
        ``vertex.proc_offsets`` before generating children), so the implicit
        recursion through ``parent.proc_offsets`` is at most one level deep
        in practice.
        """
        offsets = self._proc_offsets
        if offsets is None:
            parent_offsets = self.parent.proc_offsets
            processor = self.processor
            offsets = (
                parent_offsets[:processor]
                + (self.scheduled_end,)
                + parent_offsets[processor + 1 :]
            )
            self._proc_offsets = offsets
        return offsets

    def is_root(self) -> bool:
        """Whether this is the empty-schedule root (no assignment)."""
        return self.parent is None

    def path(self) -> List["Vertex"]:
        """Vertices from the first assignment to this one (root excluded)."""
        vertices: List[Vertex] = []
        node: Optional[Vertex] = self
        while node is not None and not node.is_root():
            vertices.append(node)
            node = node.parent
        vertices.reverse()
        return vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Compact ``T[i]->Pk`` rendering for debugging and logs."""
        if self.is_root():
            return "Vertex(root)"
        return (
            f"Vertex(T[{self.batch_index}]->P{self.processor}, "
            f"depth={self.depth}, se={self.scheduled_end:.3f})"
        )


def make_root(initial_offsets: Sequence[float]) -> Vertex:
    """Root vertex: the empty schedule on top of projected initial loads."""
    return Vertex(
        parent=None,
        batch_index=-1,
        processor=-1,
        depth=0,
        scheduled_mask=0,
        proc_offsets=tuple(initial_offsets),
        scheduled_end=0.0,
        communication_cost=0.0,
    )


def make_child(
    parent: Vertex,
    batch_index: int,
    processor: int,
    total_cost: float,
    communication_cost: float,
) -> Vertex:
    """Extend ``parent`` by one assignment, producing the successor vertex.

    The child's offset tuple is *not* built here — see
    :attr:`Vertex.proc_offsets` — only the two scalars every candidate is
    actually asked for: its own scheduled end and the incrementally
    maintained maximum offset.
    """
    scheduled_end = parent.proc_offsets[processor] + total_cost
    parent_max = parent.max_offset
    return Vertex(
        parent,
        batch_index,
        processor,
        parent.depth + 1,
        parent.scheduled_mask | (1 << batch_index),
        None,
        scheduled_end,
        communication_cost,
        0.0,
        parent_max if parent_max >= scheduled_end else scheduled_end,
    )


class PhaseContext:
    """Immutable inputs of one scheduling phase, shared by all vertices."""

    __slots__ = (
        "tasks",
        "num_processors",
        "comm",
        "phase_start",
        "quantum",
        "phase_end_bound",
        "initial_offsets",
        "evaluator",
        "n",
        "_comm_rows",
    )

    def __init__(
        self,
        tasks: Sequence[Task],
        num_processors: int,
        comm: CommunicationModel,
        phase_start: float,
        quantum: float,
        initial_offsets: Sequence[float],
        evaluator: "VertexEvaluator",
    ) -> None:
        if num_processors <= 0:
            raise ValueError("num_processors must be positive")
        if len(initial_offsets) != num_processors:
            raise ValueError(
                f"initial_offsets has {len(initial_offsets)} entries for "
                f"{num_processors} processors"
            )
        if quantum < 0:
            raise ValueError("quantum must be non-negative")
        self.tasks = list(tasks)
        self.num_processors = num_processors
        self.comm = comm
        self.phase_start = phase_start
        self.quantum = quantum
        self.phase_end_bound = phase_start + quantum
        self.initial_offsets = tuple(initial_offsets)
        self.evaluator = evaluator
        self.n = len(self.tasks)
        # Lazily filled cache of per-task communication-cost rows: the costs
        # ``c_lk`` depend only on (task, processor), never on the partial
        # schedule, so one row per task serves every expansion of the phase.
        self._comm_rows: List[Optional[Tuple[tuple, float]]] = [None] * self.n

    def comm_row(self, index: int) -> Tuple[tuple, float]:
        """``(c_lk for every k, min_k c_lk)`` for ``tasks[index]``, cached.

        The row is computed with the phase's communication model on first
        use and reused for the rest of the phase; the attached minimum feeds
        the expander's best-case feasibility pruning.
        """
        cached = self._comm_rows[index]
        if cached is None:
            cached = self.comm.cost_row_and_min(
                self.tasks[index], self.num_processors
            )
            self._comm_rows[index] = cached
        return cached

    def is_feasible(self, task: Task, scheduled_end: float) -> bool:
        """Figure-4 test in constant-bound form (see feasibility module)."""
        return is_feasible_against_bound(task, scheduled_end, self.phase_end_bound)


@dataclass
class SearchStats:
    """Counters describing one phase's search, used by the ablations."""

    vertices_generated: int = 0
    expansions: int = 0
    backtracks: int = 0
    task_probes: int = 0
    #: Candidates generated but rejected by the Figure-4 feasibility test.
    feasibility_rejections: int = 0
    #: Tasks proven infeasible on every processor and pruned from a subtree
    #: (assignment-oriented only; they roll over to the next batch).
    tasks_pruned: int = 0
    #: Tasks removed before the search by the necessary-condition pre-filter
    #: (``t_s + Q_s + p > d``); set by :func:`repro.core.phase.run_phase`.
    prefilter_rejected: int = 0
    dead_end: bool = False
    complete: bool = False
    maximal: bool = False
    max_depth: int = 0
    processors_touched: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another phase's counters into this one."""
        self.vertices_generated += other.vertices_generated
        self.expansions += other.expansions
        self.backtracks += other.backtracks
        self.task_probes += other.task_probes
        self.feasibility_rejections += other.feasibility_rejections
        self.tasks_pruned += other.tasks_pruned
        self.prefilter_rejected += other.prefilter_rejected
        self.dead_end = self.dead_end or other.dead_end
        self.complete = self.complete or other.complete
        self.maximal = self.maximal or other.maximal
        self.max_depth = max(self.max_depth, other.max_depth)
        self.processors_touched = max(
            self.processors_touched, other.processors_touched
        )


class CandidateList:
    """The candidate list CL: a depth-first stack of heap-indexed blocks.

    ``push_block`` receives a block of feasible sibling successors (with
    their evaluator values already assigned) and places it on top so the
    best candidate is expanded next; ``pop`` removes the best remaining
    candidate of the top block.  Popping from an empty CL is the paper's
    *dead-end*.  An optional size bound drops the oldest (shallowest)
    candidates, modelling the bounded scheduling memory of a real host
    processor.

    Each block is a lazily consumed binary heap keyed by ``(value, seq)``
    where ``seq`` is a monotone insertion counter, so the pop order is
    exactly the stable best-first order a pre-sorted block would give
    (ties resolve in generation order) while a block that is buried,
    backtracked past, or dropped never pays for a full sort.
    """

    def __init__(self, max_size: Optional[int] = None) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError("max_size must be positive when given")
        # Oldest block at the left, the active (top) block at the right.
        self._blocks: deque = deque()
        self._size = 0
        self._seq = 0
        self.max_size = max_size
        self.dropped = 0

    def push_block(self, block: Iterable[Vertex]) -> None:
        """Push one sibling block; ordering happens lazily via the heap.

        Candidates are tagged with a global generation sequence so ties in
        value pop in generation order, exactly like the pre-sorted stack
        the reference implementation keeps.  May evict when ``max_size``
        is exceeded (counted in :attr:`dropped`).
        """
        seq = self._seq
        entries = [(vertex.value, seq + i, vertex) for i, vertex in enumerate(block)]
        self._seq = seq + len(entries)
        if not entries:
            return
        heapify(entries)
        self._blocks.append(entries)
        self._size += len(entries)
        if self.max_size is not None and self._size > self.max_size:
            overflow = self._size - self.max_size
            self._drop_oldest(overflow)
            self._size -= overflow
            self.dropped += overflow

    def _drop_oldest(self, overflow: int) -> None:
        """Evict ``overflow`` candidates, worst-of-oldest-block first.

        Mirrors trimming the bottom of the flat stack the CL used to be:
        the oldest block loses its worst-valued members first, and whole
        blocks go once emptied.
        """
        blocks = self._blocks
        while overflow and blocks:
            oldest = blocks[0]
            if len(oldest) <= overflow:
                overflow -= len(oldest)
                blocks.popleft()
            else:
                # An ascending-sorted list is a valid min-heap, so sorting in
                # place both finds the worst entries and preserves heap order.
                oldest.sort()
                del oldest[len(oldest) - overflow :]
                overflow = 0

    def pop(self) -> Optional[Vertex]:
        """Best candidate of the newest block, or None when empty."""
        blocks = self._blocks
        if not blocks:
            return None
        top = blocks[-1]
        vertex = heappop(top)[2]
        if not top:
            blocks.pop()
        self._size -= 1
        return vertex

    def __len__(self) -> int:
        """Total candidates across all blocks."""
        return self._size

    def __bool__(self) -> bool:
        """True while any candidate remains (cheaper than ``len``)."""
        return self._size > 0


class SearchBudget(ABC):
    """Tracks consumption of the scheduling quantum ``Q_s(j)``."""

    @abstractmethod
    def charge(self, vertices: int) -> None:
        """Account for generating and evaluating ``vertices`` candidates."""

    @abstractmethod
    def used(self) -> float:
        """Scheduling time consumed so far, in the budget's time base."""

    @abstractmethod
    def exhausted(self) -> bool:
        """Whether the quantum has been fully consumed."""

    def remaining(self) -> float:
        """Budget left, in the budget's time base (optional protocol)."""
        raise NotImplementedError


class VirtualTimeBudget(SearchBudget):
    """Deterministic budget: each vertex evaluation costs a fixed model time.

    This is the reproduction's substitute for measuring physical scheduling
    time on the Intel Paragon (see DESIGN.md): CPython's per-vertex cost is
    orders of magnitude larger than the 1998 hardware's, so charging a
    modelled cost preserves the paper's overhead dynamics while keeping runs
    deterministic.
    """

    def __init__(self, quantum: float, per_vertex_cost: float) -> None:
        if quantum < 0:
            raise ValueError("quantum must be non-negative")
        if per_vertex_cost <= 0:
            raise ValueError("per_vertex_cost must be positive")
        self.quantum = quantum
        self.per_vertex_cost = per_vertex_cost
        # Vertices are counted as an integer and converted with a single
        # multiplication in :meth:`used`.  Accumulating ``n * cost`` one
        # charge at a time compounds a rounding error per charge, which at a
        # quantum that is an exact multiple of the per-vertex cost could land
        # just below ``quantum - EPSILON`` and admit one extra expansion —
        # the boundary off-by-one the budget tests pin down.
        self._vertices = 0
        self._consumed = 0.0

    def charge(self, vertices: int) -> None:
        """Count candidates; cost is applied once in :meth:`used`."""
        self._vertices += vertices

    def consume(self, amount: float) -> None:
        """Directly consume budget time (e.g. per-phase batch management)."""
        if amount < 0:
            raise ValueError("consumed amount must be non-negative")
        self._consumed += amount

    def used(self) -> float:
        """Virtual quanta consumed: one multiply, no drift per charge."""
        return self._vertices * self.per_vertex_cost + self._consumed

    def exhausted(self) -> bool:
        """Quantum gone, with EPSILON guarding float-boundary admits."""
        return self.used() >= self.quantum - EPSILON

    def remaining(self) -> float:
        """Virtual quanta left before :meth:`exhausted` flips."""
        if self.exhausted():
            return 0.0
        return max(0.0, self.quantum - self.used())


class WallClockBudget(SearchBudget):
    """Budget measured against real elapsed time (the paper's method).

    Used by the scheduling-overhead experiment (E4) to document how an
    interpreter-speed host distorts the timing study; `charge` only counts
    vertices, time flows by itself.

    The clock starts lazily on the first :meth:`used` / :meth:`charge`
    call, not at construction: a budget is typically built alongside the
    phase context, and any setup work between construction and the search
    must not be silently billed against the quantum.
    """

    def __init__(self, quantum_seconds: float) -> None:
        if quantum_seconds < 0:
            raise ValueError("quantum_seconds must be non-negative")
        self.quantum = quantum_seconds
        self._start: Optional[float] = None
        self.vertices_charged = 0

    def _start_clock(self) -> float:
        if self._start is None:
            self._start = time.perf_counter()
        return self._start

    @property
    def started(self) -> bool:
        """Whether any search work has started the clock yet."""
        return self._start is not None

    def charge(self, vertices: int) -> None:
        """Start the clock if needed and count the candidates."""
        self._start_clock()
        self.vertices_charged += vertices

    def used(self) -> float:
        """Wall seconds since the clock started (starts it if needed)."""
        start = self._start_clock()
        return time.perf_counter() - start

    def exhausted(self) -> bool:
        """Whether elapsed wall time has reached the quantum."""
        return self.used() >= self.quantum

    def remaining(self) -> float:
        """Wall seconds left in the quantum."""
        return max(0.0, self.quantum - self.used())


@dataclass
class Expansion:
    """Outcome of expanding one vertex.

    ``exhaustive`` is True only when the expander *proved* that no
    unscheduled task is feasible on any processor below this vertex — i.e.
    the vertex terminates a maximal partial schedule.  Only the
    assignment-oriented representation can ever conclude this, because each
    of its levels examines every processor; a sequence-oriented level that
    fails has only proved infeasibility on its own processor.
    """

    successors: List[Vertex]
    exhaustive: bool = False

    def __bool__(self) -> bool:
        """True when the expansion produced any feasible successor."""
        return bool(self.successors)


class Expander(ABC):
    """A search representation: how a vertex's successors are generated."""

    @abstractmethod
    def successors(
        self, vertex: Vertex, ctx: PhaseContext, budget: SearchBudget,
        stats: SearchStats,
    ) -> Expansion:
        """Generate, test, and evaluate the feasible successors.

        Implementations must ``budget.charge`` every candidate they generate
        (feasible or not), update ``stats`` accordingly, and assign every
        returned successor its ``ctx.evaluator`` value.  Successors are
        returned in generation order; the :class:`CandidateList` orders them
        best-first (ties in generation order) when the block is pushed.
        """

    def dead_root(
        self,
        tasks: Sequence[Task],
        offsets: Sequence[float],
        bound: float,
        comm: CommunicationModel,
        budget: SearchBudget,
    ) -> Optional[SearchStats]:
        """The phase's :class:`SearchStats` if its root cannot be extended.

        Asked by :func:`repro.core.phase.run_phase` before it builds any
        search state: ``tasks`` is the admitted batch in EDF order,
        ``offsets`` the root's per-processor offsets and ``bound`` the
        phase's ``t_s + Q_s(j)``.  A representation that can prove, in one
        pass, that its root expansion yields no feasible successor charges
        ``budget`` exactly as :func:`run_search` would have and returns the
        counters it would have produced; ``None`` (the default) means "run
        the search", and an override must leave ``budget`` untouched then.
        """
        return None

    @property
    def name(self) -> str:
        """Human-readable representation name (class name)."""
        return type(self).__name__


@dataclass
class SearchOutcome:
    """Result of one phase's search."""

    best: Vertex
    stats: SearchStats
    time_used: float
    candidates_dropped: int = 0

    def extract_schedule(self, ctx: PhaseContext) -> Schedule:
        """Materialize the best vertex's path as a :class:`Schedule`."""
        schedule = Schedule()
        for vertex in self.best.path():
            task = ctx.tasks[vertex.batch_index]
            schedule.append(
                ScheduleEntry(
                    task=task,
                    processor=vertex.processor,
                    communication_cost=vertex.communication_cost,
                    scheduled_end=vertex.scheduled_end,
                )
            )
        return schedule


def _is_better(candidate: Vertex, incumbent: Vertex) -> bool:
    """Deeper schedules win; equal depth resolved by evaluator value."""
    if candidate.depth != incumbent.depth:
        return candidate.depth > incumbent.depth
    return candidate.value < incumbent.value


def run_search(
    ctx: PhaseContext,
    expander: Expander,
    budget: SearchBudget,
    max_candidates: Optional[int] = None,
) -> SearchOutcome:
    """Depth-first search of one scheduling phase (paper Section 4.1).

    Iterates: pop the best candidate vertex from the CL, stop if it is a
    leaf (complete schedule), otherwise expand it; feasible successors go on
    top of the CL, an empty successor set triggers backtracking.  The loop
    ends at a leaf, at a *maximal* vertex (an exhaustive expansion proved no
    remaining task fits anywhere — the reachable-space leaf), at a dead end
    (empty CL), or when the budget — i.e. the quantum ``Q_s(j)`` — is
    exhausted.  Returns the deepest feasible vertex seen, whose path is a
    feasible (partial) schedule at any interruption point.
    """
    root = make_root(ctx.initial_offsets)
    cl = CandidateList(max_size=max_candidates)
    cl.push_block([root])
    best = root
    stats = SearchStats()
    while not budget.exhausted():
        vertex = cl.pop()
        if vertex is None:
            stats.dead_end = True
            break
        if vertex.depth >= ctx.n:
            best = vertex
            stats.complete = True
            break
        expansion = expander.successors(vertex, ctx, budget, stats)
        stats.expansions += 1
        if not expansion.successors:
            if expansion.exhaustive:
                # Maximal partial schedule: nothing unscheduled fits on any
                # processor below this vertex.  Further sibling exploration
                # could only rearrange, not extend — end the phase so the
                # schedule is delivered early (sigma <= Q_s).
                if _is_better(vertex, best):
                    best = vertex
                stats.maximal = True
                break
            stats.backtracks += 1
            continue
        for succ in expansion.successors:
            if _is_better(succ, best):
                best = succ
        cl.push_block(expansion.successors)
    stats.max_depth = best.depth
    stats.processors_touched = len(
        {v.processor for v in best.path()}
    )
    return SearchOutcome(
        best=best,
        stats=stats,
        time_used=min(budget.used(), ctx.quantum),
        candidates_dropped=cl.dropped,
    )
