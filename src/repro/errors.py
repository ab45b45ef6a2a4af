"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single exception type at API boundaries while still being able to
discriminate parse errors from store errors from summarization errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when an RDF serialization (N-Triples, Turtle) cannot be parsed.

    Attributes
    ----------
    line_number:
        1-based line number at which the error was detected, when known.
    line:
        The offending source line, when known.
    """

    def __init__(self, message, line_number=None, line=None):
        location = f" (line {line_number})" if line_number is not None else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number
        self.line = line


class MalformedTripleError(ReproError):
    """Raised when a triple violates RDF well-formedness constraints."""


class StoreError(ReproError):
    """Raised for failures inside a :class:`repro.store.base.TripleStore`."""


class StoreClosedError(StoreError):
    """Raised when operating on a store that has already been closed."""


class DictionaryError(ReproError):
    """Raised when encoding/decoding through a :class:`Dictionary` fails."""


class UnknownTermError(DictionaryError):
    """Raised when decoding an integer id that was never assigned."""


class QueryError(ReproError):
    """Raised when a query is syntactically or semantically invalid."""


class QueryParseError(QueryError):
    """Raised when a BGP query string cannot be parsed."""


class NotRBGPError(QueryError):
    """Raised when a query does not belong to the RBGP dialect (Def. 3)."""


class SummarizationError(ReproError):
    """Raised when a summary cannot be built from the input graph."""


class UnknownSummaryKindError(SummarizationError):
    """Raised when an unsupported summary kind name is requested."""


class ServiceError(ReproError):
    """Raised for failures inside the query service layer."""


class CatalogError(ServiceError):
    """Raised for failures of a :class:`repro.service.catalog.GraphCatalog`.

    Catching this single type covers every catalog misuse — unknown names,
    duplicate registrations, persistence failures — while the subclasses
    keep the individual conditions distinguishable.
    """


class UnknownGraphError(CatalogError):
    """Raised when a catalog lookup names a graph that was never registered."""


class DuplicateGraphError(CatalogError):
    """Raised when registering a graph under a name already in use.

    The existing entry is left untouched: the failed registration neither
    replaces, mutates nor closes it.
    """


class PersistenceError(CatalogError):
    """Raised when a persistent catalog file cannot be opened or written
    (missing file in read-only contexts, schema-version mismatch, corrupt
    artifact payloads)."""


class ClusterError(ServiceError):
    """Raised for failures of the sharded multi-process serving tier
    (:mod:`repro.cluster`): protocol violations, worker-side faults that
    survive the coordinator's retry budget, shutdown failures."""


class WorkerCrashedError(ClusterError):
    """Raised when a cluster worker process died (pipe EOF / dead process)
    while a request was outstanding.  The coordinator catches this
    internally, respawns the worker and retries; it only escapes to callers
    once the retry budget is exhausted."""


class WorkerTimeoutError(ClusterError):
    """Raised when a cluster worker failed to reply within the request
    timeout (the process is alive but unresponsive — e.g. wedged in a
    pathological join).  Unlike a crash this is *not* auto-retried: the
    same request would wedge the respawned worker again."""


class SegmentError(ClusterError):
    """Raised when a graph generation cannot be packed into its segment
    (``/dev/shm`` full, say): a registration that hits it is undone."""
