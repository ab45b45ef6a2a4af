"""Failing corpus: blocking calls under a respawn lock (the PR 7 class)."""


class Coordinator:
    def respawn(self, handle, item):
        with handle.respawn_lock:
            handle.connection.send(item)  # finding: pipe send under lock
            handle.replies.put(item)  # finding: untimed bounded put
            handle.process.join()  # finding: untimed join
            handle.process.wait()  # finding: untimed Popen.wait
            handle.process.communicate(b"")  # finding: untimed communicate
            self._spawn(handle)  # finding: worker spawn under lock
