"""RDF triples and their classification into data / type / schema triples.

The paper's triple-based representation (Section 2.1) partitions a graph
``G`` into three components:

* ``S_G`` — *schema* triples, whose property is one of ``rdfs:subClassOf``,
  ``rdfs:subPropertyOf``, ``rdfs:domain`` or ``rdfs:range``;
* ``T_G`` — *type* triples, whose property is ``rdf:type``;
* ``D_G`` — *data* triples, everything else.

:class:`Triple` is the single triple value object; :class:`TripleKind` names
the component a triple belongs to; :func:`classify_property` computes it
from the property alone.
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.errors import MalformedTripleError
from repro.model.namespaces import is_schema_property, is_type_property
from repro.model.terms import BlankNode, Literal, Term, URI, term_sort_key

__all__ = ["Triple", "TripleKind", "classify_property"]


class TripleKind(enum.Enum):
    """The component of a graph a triple belongs to (Section 2.1)."""

    DATA = "data"
    TYPE = "type"
    SCHEMA = "schema"


class Triple:
    """A single RDF triple ``s p o``.

    The subject may be a :class:`URI` or :class:`BlankNode`; the property must
    be a :class:`URI`; the object may be any term.  These are the
    well-formedness constraints of the RDF specification that the paper
    assumes, with one deliberate relaxation: a literal subject is accepted
    for ``rdf:type`` triples only.  The paper's saturation semantics types
    every value of a property carrying a range constraint, including literal
    values (this is what makes the completeness Propositions 5 and 8 hold),
    so such *generalized* type triples can appear in ``G∞``.
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Term, predicate: URI, obj: Term):
        if not isinstance(predicate, URI):
            raise MalformedTripleError(f"property must be a URI, got {predicate!r}")
        if isinstance(subject, Literal) and not is_type_property(predicate):
            raise MalformedTripleError(f"literal {subject!r} cannot be a triple subject")
        if not isinstance(subject, (URI, BlankNode, Literal)):
            raise MalformedTripleError(f"invalid subject: {subject!r}")
        if not isinstance(obj, (URI, BlankNode, Literal)):
            raise MalformedTripleError(f"invalid object: {obj!r}")
        self.subject = subject
        self.predicate = predicate
        self.object = obj

    def __eq__(self, other):
        return (
            isinstance(other, Triple)
            and self.subject == other.subject
            and self.predicate == other.predicate
            and self.object == other.object
        )

    def __hash__(self):
        return hash((self.subject, self.predicate, self.object))

    def __lt__(self, other):
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))

    def __repr__(self):
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def sort_key(self) -> Tuple:
        """A deterministic sort key over heterogeneous triples."""
        return (
            term_sort_key(self.subject),
            term_sort_key(self.predicate),
            term_sort_key(self.object),
        )

    @property
    def kind(self) -> TripleKind:
        """The component (data / type / schema) this triple belongs to."""
        return classify_property(self.predicate)

    def is_data(self) -> bool:
        """``True`` when the triple belongs to the data component ``D_G``."""
        return self.kind is TripleKind.DATA

    def is_type(self) -> bool:
        """``True`` when the triple is an ``rdf:type`` assertion (``T_G``)."""
        return self.kind is TripleKind.TYPE

    def is_schema(self) -> bool:
        """``True`` when the triple is an RDFS constraint (``S_G``)."""
        return self.kind is TripleKind.SCHEMA

    def n3(self) -> str:
        """Render as a single N-Triples line (without the trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def as_tuple(self) -> Tuple[Term, URI, Term]:
        """Return the plain ``(subject, predicate, object)`` tuple."""
        return (self.subject, self.predicate, self.object)


def classify_property(predicate: Term) -> TripleKind:
    """The component (data / type / schema, Section 2.1) of a triple whose
    property is *predicate*: the property alone decides it."""
    if is_schema_property(predicate):
        return TripleKind.SCHEMA
    if is_type_property(predicate):
        return TripleKind.TYPE
    return TripleKind.DATA
