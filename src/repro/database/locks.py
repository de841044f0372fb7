"""Sub-database-granular lock manager for read/write transactions.

The paper restricts its study to read-only transactions "to simplify"; this
module supplies the concurrency-control substrate needed to lift that
restriction.  Locking is at sub-database granularity — the same granularity
the scheduling model works at, since every transaction targets exactly one
sub-database — with classic shared/exclusive modes, FIFO fairness, and
shared-to-exclusive upgrades.  Because each transaction locks a single
resource, waits-for cycles are impossible and the manager never needs
deadlock detection (asserted by tests).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..observability import get_instrumentation


class LockMode(enum.Enum):
    """Classic two-mode locking: many readers or one writer."""

    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class LockError(RuntimeError):
    """Raised on protocol violations (double grant, foreign release...)."""


@dataclass
class _LockRequest:
    owner: int
    mode: LockMode


@dataclass
class _ResourceState:
    """Holders and FIFO waiters of one lockable resource."""

    holders: Dict[int, LockMode] = field(default_factory=dict)
    waiters: Deque[_LockRequest] = field(default_factory=deque)

    def grant_allowed(self, request: _LockRequest) -> bool:
        for owner, mode in self.holders.items():
            if owner == request.owner:
                continue
            if not mode.compatible_with(request.mode):
                return False
        return True


class LockManager:
    """Grants S/X locks over integer resource ids with FIFO fairness.

    ``acquire`` immediately grants a compatible request and queues an
    incompatible one; ``release`` hands the resource to as many queued
    requests as compatibility allows, returning them so the caller (e.g. a
    simulator) can resume the corresponding transactions.
    """

    def __init__(self) -> None:
        self._resources: Dict[int, _ResourceState] = {}
        self.granted_count = 0
        self.queued_count = 0

    def _record_wait(self, resource: int, owner: int, mode: LockMode) -> None:
        """A request queued instead of being granted: count + trace event."""
        self.queued_count += 1
        obs = get_instrumentation()
        if obs.enabled:
            obs.metrics.counter("locks_waits", mode=mode.value).inc()
            obs.emit("lock_wait", resource=resource, owner=owner, mode=mode.value)

    def _record_grant(self, mode: LockMode) -> None:
        self.granted_count += 1
        obs = get_instrumentation()
        if obs.enabled:
            obs.metrics.counter("locks_grants", mode=mode.value).inc()

    def _state(self, resource: int) -> _ResourceState:
        return self._resources.setdefault(resource, _ResourceState())

    def holds(self, resource: int, owner: int) -> Optional[LockMode]:
        """The mode ``owner`` currently holds on ``resource``, if any."""
        state = self._resources.get(resource)
        if state is None:
            return None
        return state.holders.get(owner)

    def acquire(self, resource: int, owner: int, mode: LockMode) -> bool:
        """Request a lock; True if granted now, False if queued.

        Re-acquiring an already held mode is a no-op grant; requesting
        EXCLUSIVE while holding SHARED is an upgrade, granted immediately
        when the owner is the sole holder and queued (at the front, per the
        usual upgrade priority) otherwise.
        """
        state = self._state(resource)
        held = state.holders.get(owner)
        if held is not None:
            if held is mode or held is LockMode.EXCLUSIVE:
                return True
            # Upgrade S -> X.
            if len(state.holders) == 1:
                state.holders[owner] = LockMode.EXCLUSIVE
                self._record_grant(LockMode.EXCLUSIVE)
                return True
            state.waiters.appendleft(_LockRequest(owner, LockMode.EXCLUSIVE))
            self._record_wait(resource, owner, LockMode.EXCLUSIVE)
            return False
        request = _LockRequest(owner, mode)
        # FIFO fairness: a new request must also wait behind queued ones of
        # incompatible mode, or writers could starve behind reader streams.
        blocked_by_queue = any(
            not waiting.mode.compatible_with(mode)
            or not mode.compatible_with(waiting.mode)
            for waiting in state.waiters
        )
        if state.grant_allowed(request) and not blocked_by_queue:
            state.holders[owner] = mode
            self._record_grant(mode)
            return True
        state.waiters.append(request)
        self._record_wait(resource, owner, mode)
        return False

    def release(self, resource: int, owner: int) -> List[Tuple[int, LockMode]]:
        """Release ``owner``'s lock; returns newly granted (owner, mode)s."""
        state = self._resources.get(resource)
        if state is None or owner not in state.holders:
            raise LockError(
                f"owner {owner} holds no lock on resource {resource}"
            )
        del state.holders[owner]
        granted: List[Tuple[int, LockMode]] = []
        while state.waiters:
            request = state.waiters[0]
            if request.owner in state.holders:
                # Upgrade request: grantable only as sole holder.
                if len(state.holders) == 1:
                    state.waiters.popleft()
                    state.holders[request.owner] = LockMode.EXCLUSIVE
                    granted.append((request.owner, LockMode.EXCLUSIVE))
                    continue
                break
            if state.grant_allowed(request):
                state.waiters.popleft()
                state.holders[request.owner] = request.mode
                granted.append((request.owner, request.mode))
                self._record_grant(request.mode)
                # SHARED grants can cascade; EXCLUSIVE blocks the rest.
                if request.mode is LockMode.EXCLUSIVE:
                    break
                continue
            break
        if not state.holders and not state.waiters:
            del self._resources[resource]
        return granted

    def waiters_of(self, resource: int) -> List[int]:
        state = self._resources.get(resource)
        if state is None:
            return []
        return [request.owner for request in state.waiters]

    def holders_of(self, resource: int) -> Dict[int, LockMode]:
        state = self._resources.get(resource)
        if state is None:
            return {}
        return dict(state.holders)

    def locked_resources(self) -> Set[int]:
        return set(self._resources)
