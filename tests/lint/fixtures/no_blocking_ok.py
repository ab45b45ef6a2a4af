"""Passing corpus: nothing blocking runs while the ship lock is held."""


class Coordinator:
    def ship(self, handle, item):
        with handle.ship_lock:
            handle.reship_pending.discard(item.name)
            handle.delta_queue.put(item, timeout=0.2)  # timed put is fine
            handle.process.join(timeout=5.0)  # timed join is fine
            handle.process.wait(5.0)  # so is a timed Popen.wait
            handle.process.communicate(timeout=5.0)
        handle.connection.send(item)  # outside the lock
        self._spawn(handle)
