"""Passing corpus: nothing blocking runs while the respawn lock is held."""


class Coordinator:
    def respawn(self, handle, item):
        with handle.respawn_lock:
            handle.cursors.pop(item.name, None)
            handle.replies.put(item, timeout=0.2)  # timed put is fine
            handle.process.join(timeout=5.0)  # timed join is fine
            handle.process.wait(5.0)  # so is a timed Popen.wait
            handle.process.communicate(timeout=5.0)
        handle.connection.send(item)  # outside the lock
        self._spawn(handle)
