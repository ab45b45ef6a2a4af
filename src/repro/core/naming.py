"""Representation functions: minting summary node URIs.

The paper uses two injective functions to name quotient nodes:

* ``N(TC, SC)`` (Section 4.1) — given the set of target data properties and
  the set of source data properties of an equivalence class, return a fresh
  URI.  ``N(∅, ∅)`` is the special node written ``Nτ``.
* ``C(X)`` (Section 4.2) — given a set of class URIs, return a URI; given
  the empty set, return a *new* URI on every call (used to copy untyped
  nodes in the type-based summary).

Both are realised by :class:`SummaryNamer`, which produces deterministic,
human-readable URIs in a dedicated summary namespace and guarantees
injectivity by appending a disambiguating counter when readable labels
collide.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.model.namespaces import Namespace
from repro.model.terms import Term, URI

# The built-in SHA-1, as the stdlib's ``random`` takes its SHA-512: ``hashlib``
# would map OpenSSL's libcrypto (3.6 MB) into every process that names a node.
try:
    from _sha1 import sha1
except ImportError:  # a build without the built-in
    from hashlib import sha1

__all__ = ["SUMMARY_NS", "SummaryNamer"]

#: Namespace under which every summary node URI is minted.
SUMMARY_NS = Namespace("http://rdfsummary.example.org/node/")

_MAX_LABEL_PARTS = 4


def _short_label(uris: Iterable[URI]) -> str:
    """Build a compact, readable label out of property/class local names."""
    names = sorted(uri.local_name for uri in uris)
    if not names:
        return ""
    if len(names) > _MAX_LABEL_PARTS:
        shown = names[:_MAX_LABEL_PARTS]
        return "_".join(shown) + f"_and{len(names) - _MAX_LABEL_PARTS}more"
    return "_".join(names)


def _stable_digest(key: Hashable) -> str:
    """A short stable digest of an arbitrary hashable key."""
    return sha1(repr(key).encode("utf-8")).hexdigest()[:8]


class SummaryNamer:
    """Mints injective summary-node URIs for quotient blocks.

    A single namer instance must be used for one summary construction so that
    equal keys map to equal URIs and distinct keys to distinct URIs.
    """

    def __init__(self, namespace: Namespace = SUMMARY_NS):
        self._namespace = namespace
        self._by_key: Dict[Hashable, URI] = {}
        self._used_values: set = set()
        self._fresh_counter = 0
        self._minters: Dict[str, Callable[[], URI]] = {}

    # ------------------------------------------------------------------
    def _mint(self, key: Hashable, label: str) -> URI:
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        base = label or "N"
        candidate = self._namespace.term(base)
        if candidate.value in self._used_values:
            candidate = self._namespace.term(f"{base}_{_stable_digest(key)}")
        while candidate.value in self._used_values:
            self._fresh_counter += 1
            candidate = self._namespace.term(f"{base}_{self._fresh_counter}")
        self._by_key[key] = candidate
        self._used_values.add(candidate.value)
        return candidate

    # ------------------------------------------------------------------
    def representation(self, target_clique: FrozenSet[URI], source_clique: FrozenSet[URI]) -> URI:
        """The paper's ``N(TC, SC)`` function."""
        key = ("N", target_clique, source_clique)
        if not target_clique and not source_clique:
            return self._mint(key, "Ntau")
        target_label = _short_label(target_clique)
        source_label = _short_label(source_clique)
        if target_label and source_label:
            label = f"N_{source_label}__from_{target_label}"
        elif source_label:
            label = f"N_{source_label}"
        else:
            label = f"N_from_{target_label}"
        return self._mint(key, label)

    def class_set(self, classes: FrozenSet[URI]) -> URI:
        """The paper's ``C(X)`` function for a non-empty class set."""
        if not classes:
            return self.fresh("C_untyped")
        key = ("C", classes)
        return self._mint(key, f"C_{_short_label(classes)}")

    def fresh(self, hint: str = "fresh") -> URI:
        """A brand-new URI on every call (``C(∅)`` behaviour)."""
        return self.fresh_minter(hint)()

    def fresh_minter(self, hint: str = "fresh") -> Callable[[], URI]:
        """An arena-style mint function for bulk ``C(∅)`` / ``Nτ`` naming.

        The type summary copies every untyped data node, so graphs with
        millions of untyped resources mint millions of fresh URIs.  The
        returned closure amortizes that: the namespace prefix is concatenated
        once, the counter lives in a cell instead of an attribute, and the
        only per-mint work is one string build plus one membership probe on
        the used-value set (still required for global injectivity against the
        other naming paths).  Calling the method again with the same hint
        returns the same arena, so the counter never restarts from a used
        range.
        """
        minter = self._minters.get(hint)
        if minter is not None:
            return minter
        base = self._namespace.prefix + hint + "_"
        used = self._used_values
        counter_cell = [0]

        def mint() -> URI:
            counter = counter_cell[0]
            while True:
                counter += 1
                value = base + str(counter)
                if value not in used:
                    counter_cell[0] = counter
                    used.add(value)
                    return URI(value)

        self._minters[hint] = mint
        return mint

    def for_key(self, key: Hashable, hint: str = "N") -> URI:
        """An injective URI for an arbitrary block key (fallback naming)."""
        return self._mint(key, f"{hint}_{_stable_digest(key)}")
