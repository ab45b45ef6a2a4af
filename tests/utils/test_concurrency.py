"""Tests for the reader/writer lock and the thread fan-out behind the serving layer."""

import threading
from time import sleep

import pytest

from repro.utils.concurrency import ReadWriteLock, map_on_threads


class TestReadWriteLock:
    def test_readers_overlap(self):
        lock = ReadWriteLock()
        barrier = threading.Barrier(4, timeout=10)
        overlapped = []

        def reader():
            with lock.read_locked():
                # every reader parks here until all four are inside the
                # critical section together — impossible unless the read
                # side is genuinely shared
                barrier.wait()
                overlapped.append(True)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert overlapped == [True] * 4

    def test_writer_excludes_readers_and_writers(self):
        lock = ReadWriteLock()
        active = []
        errors = []

        def worker(side):
            try:
                manager = lock.write_locked() if side == "w" else lock.read_locked()
                with manager:
                    active.append(side)
                    if side == "w":
                        assert active == ["w"], f"writer overlapped: {active}"
                    sleep(0.002)
                    active.remove(side)
            except AssertionError as error:
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=("w" if i % 3 == 0 else "r",))
            for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        order = []
        first_reader_in = threading.Event()
        writer_waiting = threading.Event()

        def long_reader():
            with lock.read_locked():
                first_reader_in.set()
                writer_waiting.wait(timeout=10)
                sleep(0.01)  # give the queued writer time to be first in line
                order.append("reader1")

        def writer():
            first_reader_in.wait(timeout=10)
            writer_waiting.set()
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            writer_waiting.wait(timeout=10)
            sleep(0.005)  # arrive after the writer queued
            with lock.read_locked():
                order.append("reader2")

        threads = [
            threading.Thread(target=long_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        # writer preference: the late reader must not sneak past the writer
        assert order.index("writer") < order.index("reader2")

    def test_unbalanced_releases_raise(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            lock.release_write()
        lock.acquire_read()
        lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_read()

    def test_locked_for_read_and_write_introspection(self):
        lock = ReadWriteLock()
        assert not lock.locked_for_read()
        assert not lock.locked_for_write()
        with lock.read_locked():
            assert lock.locked_for_read()
            assert not lock.locked_for_write()
        with lock.write_locked():
            assert lock.locked_for_write()
            assert not lock.locked_for_read()
        assert not lock.locked_for_read()
        assert not lock.locked_for_write()

    def test_names_are_stable_and_unique(self):
        named = ReadWriteLock("entry.rwlock")
        assert named.name == "entry.rwlock"
        first, second = ReadWriteLock(), ReadWriteLock()
        assert first.name != second.name
        assert first.name in repr(first)

    def test_non_reentrancy_contract(self):
        """The docstring's warning, asserted: a reader re-acquiring the
        read side parks behind a waiting writer — the nested acquire the
        lock's contract forbids really does deadlock, it is not prose.
        """
        from repro.utils import lockcheck

        if lockcheck.get_installed_tracker() is not None:
            pytest.skip(
                "lockcheck rejects the nested acquire before it can park "
                "(covered by test_lockcheck.TestReentry)"
            )
        lock = ReadWriteLock()
        reader_in = threading.Event()
        reacquire_started = threading.Event()
        reacquired = threading.Event()

        def holder():
            lock.acquire_read()
            reader_in.set()
            # wait until a writer is queued, then try the forbidden
            # nested read acquire
            while not lock._writers_waiting:
                sleep(0.001)
            reacquire_started.set()
            lock.acquire_read()  # parks behind the waiting writer
            reacquired.set()
            # only the nested hold is ours to release: the main thread
            # released the first hold to break the deadlock
            lock.release_read()

        def writer():
            reader_in.wait(timeout=10)
            with lock.write_locked():
                pass

        holder_thread = threading.Thread(target=holder, daemon=True)
        writer_thread = threading.Thread(target=writer, daemon=True)
        holder_thread.start()
        writer_thread.start()
        assert reacquire_started.wait(timeout=10)
        # the nested acquire must NOT proceed: writer preference queues it
        # behind the writer, and the writer cannot run while the first
        # read hold is still out — the deadlock the contract describes
        assert not reacquired.wait(timeout=0.3)
        # break the cycle the only way possible: drop the first hold
        lock.release_read()
        assert reacquired.wait(timeout=10)
        writer_thread.join(timeout=10)
        holder_thread.join(timeout=10)
        assert not holder_thread.is_alive()


class TestMapOnThreads:
    def test_results_keep_input_order_and_the_caller_takes_part(self):
        seen = set()

        def call(item):
            seen.add(threading.current_thread().name)
            sleep(0.002 * (5 - item))  # later items finish first
            return item * item

        assert map_on_threads(call, list(range(5)), 3, "mapper") == [0, 1, 4, 9, 16]
        assert threading.current_thread().name in seen
        assert seen - {threading.current_thread().name} <= {"mapper-1", "mapper-2"}
        assert map_on_threads(call, [], 3, "mapper") == []

    def test_one_item_runs_on_the_calling_thread_alone(self):
        before = threading.active_count()
        assert map_on_threads(lambda _item: threading.active_count(), ["x"], 8, "mapper") == [
            before
        ]

    def test_never_more_than_the_given_number_at_once(self):
        lock = threading.Lock()
        inside, peak = [0], [0]

        def call(_item):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            sleep(0.002)
            with lock:
                inside[0] -= 1

        map_on_threads(call, list(range(24)), 3, "mapper")
        assert peak[0] == 3 and inside[0] == 0

    def test_every_call_runs_and_the_first_failure_in_input_order_is_raised(self):
        ran = []

        def call(item):
            ran.append(item)
            if item in (2, 4):
                raise ValueError(item)
            return item

        for threads in (1, 3):
            ran.clear()
            with pytest.raises(ValueError) as raised:
                map_on_threads(call, list(range(6)), threads, "mapper")
            assert raised.value.args == (2,)
            assert sorted(ran) == list(range(6))
