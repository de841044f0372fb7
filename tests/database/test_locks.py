"""Tests for the sub-database lock manager."""

import pytest

from repro.database import LockError, LockManager, LockMode


class TestBasicModes:
    def test_shared_locks_coexist(self):
        lm = LockManager()
        assert lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert lm.acquire(1, owner=11, mode=LockMode.SHARED)
        assert set(lm.holders_of(1)) == {10, 11}

    def test_exclusive_blocks_everyone(self):
        lm = LockManager()
        assert lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        assert not lm.acquire(1, owner=11, mode=LockMode.SHARED)
        assert not lm.acquire(1, owner=12, mode=LockMode.EXCLUSIVE)
        assert lm.waiters_of(1) == [11, 12]

    def test_shared_blocks_exclusive(self):
        lm = LockManager()
        assert lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert not lm.acquire(1, owner=11, mode=LockMode.EXCLUSIVE)

    def test_different_resources_independent(self):
        lm = LockManager()
        assert lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        assert lm.acquire(2, owner=11, mode=LockMode.EXCLUSIVE)

    def test_reacquire_is_noop_grant(self):
        lm = LockManager()
        assert lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert lm.acquire(1, owner=10, mode=LockMode.SHARED)

    def test_holds(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert lm.holds(1, 10) is LockMode.SHARED
        assert lm.holds(1, 99) is None
        assert lm.holds(9, 10) is None


class TestRelease:
    def test_release_grants_next_waiter(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        lm.acquire(1, owner=11, mode=LockMode.EXCLUSIVE)
        granted = lm.release(1, owner=10)
        assert granted == [(11, LockMode.EXCLUSIVE)]
        assert lm.holds(1, 11) is LockMode.EXCLUSIVE

    def test_release_cascades_shared_grants(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        lm.acquire(1, owner=11, mode=LockMode.SHARED)
        lm.acquire(1, owner=12, mode=LockMode.SHARED)
        lm.acquire(1, owner=13, mode=LockMode.EXCLUSIVE)
        granted = lm.release(1, owner=10)
        assert granted == [(11, LockMode.SHARED), (12, LockMode.SHARED)]
        assert lm.waiters_of(1) == [13]

    def test_foreign_release_raises(self):
        lm = LockManager()
        with pytest.raises(LockError):
            lm.release(1, owner=10)

    def test_empty_resources_garbage_collected(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.SHARED)
        lm.release(1, owner=10)
        assert lm.locked_resources() == set()


class TestFairness:
    def test_new_reader_waits_behind_queued_writer(self):
        """FIFO fairness: readers cannot starve a waiting writer."""
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert not lm.acquire(1, owner=11, mode=LockMode.EXCLUSIVE)
        # A new reader must queue behind the writer even though it is
        # compatible with the current holder.
        assert not lm.acquire(1, owner=12, mode=LockMode.SHARED)
        granted = lm.release(1, owner=10)
        assert granted[0] == (11, LockMode.EXCLUSIVE)

    def test_waiters_granted_in_order(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        for owner in (11, 12, 13):
            lm.acquire(1, owner=owner, mode=LockMode.EXCLUSIVE)
        order = []
        current = 10
        for _ in range(3):
            granted = lm.release(1, owner=current)
            assert len(granted) == 1
            current = granted[0][0]
            order.append(current)
        assert order == [11, 12, 13]


class TestUpgrade:
    def test_sole_holder_upgrades_immediately(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        assert lm.holds(1, 10) is LockMode.EXCLUSIVE

    def test_upgrade_waits_for_other_readers(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.SHARED)
        lm.acquire(1, owner=11, mode=LockMode.SHARED)
        assert not lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        granted = lm.release(1, owner=11)
        assert granted == [(10, LockMode.EXCLUSIVE)]

    def test_exclusive_holder_gets_shared_for_free(self):
        lm = LockManager()
        lm.acquire(1, owner=10, mode=LockMode.EXCLUSIVE)
        assert lm.acquire(1, owner=10, mode=LockMode.SHARED)
        assert lm.holds(1, 10) is LockMode.EXCLUSIVE


class TestSingleResourceNoDeadlock:
    def test_chain_always_drains(self):
        """With one resource per transaction, every queue eventually
        drains — the structural no-deadlock argument, exercised."""
        lm = LockManager()
        import random

        rng = random.Random(0)
        owners = list(range(50))
        lm.acquire(7, owner=owners[0], mode=LockMode.EXCLUSIVE)
        for owner in owners[1:]:
            lm.acquire(
                7,
                owner=owner,
                mode=rng.choice([LockMode.SHARED, LockMode.EXCLUSIVE]),
            )
        completed = set()
        active = {owners[0]}
        while active:
            owner = active.pop()
            for new_owner, _ in lm.release(7, owner):
                active.add(new_owner)
            completed.add(owner)
        assert completed == set(owners)
        assert lm.locked_resources() == set()
