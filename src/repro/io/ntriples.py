"""N-Triples parsing and serialization.

The paper's loader (Section 6) supports files in the n-triples format; this
module provides the equivalent component in pure Python.  It covers the full
N-Triples 1.1 grammar subset used in practice:

* ``<uri>`` terms,
* ``_:label`` blank nodes,
* plain, language-tagged (``"x"@en``) and typed (``"x"^^<dt>``) literals with
  the standard string escapes,
* ``#`` comment lines and blank lines.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, List, Optional, TextIO, Union

from repro.errors import ParseError
from repro.model.graph import RDFGraph
from repro.model.terms import BlankNode, Literal, Term, URI
from repro.model.triple import Triple

__all__ = [
    "parse_ntriples",
    "parse_ntriples_line",
    "load_ntriples",
    "serialize_ntriples",
    "dump_ntriples",
]

_IRIREF = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_BLANK = r"_:([A-Za-z0-9][A-Za-z0-9_.-]*)"
_STRING = r'"((?:[^"\\\n\r]|\\.)*)"'
_LANGTAG = r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)"

_SUBJECT_RE = re.compile(rf"(?:{_IRIREF}|{_BLANK})")
_PREDICATE_RE = re.compile(_IRIREF)
_OBJECT_RE = re.compile(
    rf"(?:{_IRIREF}|{_BLANK}|{_STRING}(?:\^\^{_IRIREF}|{_LANGTAG})?)"
)

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _code_point(
    value: str, start: int, digits: int, line_number: Optional[int], line: Optional[str]
) -> str:
    """Decode the ``digits``-digit hex payload of a ``\\u`` / ``\\U`` escape.

    *start* points at the first hex digit.  Truncated payloads (too few
    digits, including an end-of-string cut), non-hex digits, surrogate code
    points and values beyond U+10FFFF all raise :class:`ParseError` carrying
    the line context — previously a short slice was decoded silently (e.g.
    ``\\u41`` became ``"A"``) and bad digits surfaced as a bare
    ``ValueError``.
    """
    payload = value[start : start + digits]
    if len(payload) < digits or not all(char in _HEX_DIGITS for char in payload):
        marker = "\\u" if digits == 4 else "\\U"
        raise ParseError(
            f"truncated or invalid {marker} escape: expected {digits} hex digits, "
            f"got {payload!r}",
            line_number,
            line,
        )
    code = int(payload, 16)
    if 0xD800 <= code <= 0xDFFF:
        raise ParseError(
            f"surrogate code point U+{code:04X} is not allowed in literals",
            line_number,
            line,
        )
    if code > 0x10FFFF:
        raise ParseError(
            f"code point U+{code:X} is beyond U+10FFFF", line_number, line
        )
    return chr(code)


def _unescape(
    value: str, line_number: Optional[int] = None, line: Optional[str] = None
) -> str:
    """Decode N-Triples string escapes (``\\n``, ``\\uXXXX``, ``\\UXXXXXXXX``).

    Raises :class:`ParseError` (with the caller's line context, when given)
    on dangling, unknown, truncated or out-of-range escapes.
    """
    if "\\" not in value:
        return value
    output: List[str] = []
    index = 0
    length = len(value)
    while index < length:
        char = value[index]
        if char != "\\":
            output.append(char)
            index += 1
            continue
        if index + 1 >= length:
            raise ParseError("dangling escape at end of literal", line_number, line)
        escape = value[index + 1]
        if escape in _ESCAPES:
            output.append(_ESCAPES[escape])
            index += 2
        elif escape == "u":
            output.append(_code_point(value, index + 2, 4, line_number, line))
            index += 6
        elif escape == "U":
            output.append(_code_point(value, index + 2, 8, line_number, line))
            index += 10
        else:
            raise ParseError(f"unknown escape sequence: \\{escape}", line_number, line)
    return "".join(output)


def _skip_whitespace(line: str, position: int) -> int:
    while position < len(line) and line[position] in " \t":
        position += 1
    return position


def parse_ntriples_line(line: str, line_number: int = 0) -> Triple:
    """Parse a single N-Triples statement into a :class:`Triple`.

    Raises :class:`ParseError` on malformed input.
    """
    position = _skip_whitespace(line, 0)

    subject_match = _SUBJECT_RE.match(line, position)
    if not subject_match:
        raise ParseError("expected subject (<uri> or _:blank)", line_number, line)
    subject: Term
    if subject_match.group(1) is not None:
        subject = URI(subject_match.group(1))
    else:
        subject = BlankNode(subject_match.group(2))
    position = _skip_whitespace(line, subject_match.end())

    predicate_match = _PREDICATE_RE.match(line, position)
    if not predicate_match:
        raise ParseError("expected property <uri>", line_number, line)
    predicate = URI(predicate_match.group(1))
    position = _skip_whitespace(line, predicate_match.end())

    object_match = _OBJECT_RE.match(line, position)
    if not object_match:
        raise ParseError("expected object (<uri>, _:blank or literal)", line_number, line)
    obj: Term
    if object_match.group(1) is not None:
        obj = URI(object_match.group(1))
    elif object_match.group(2) is not None:
        obj = BlankNode(object_match.group(2))
    else:
        lexical = _unescape(object_match.group(3), line_number, line)
        datatype = object_match.group(4)
        language = object_match.group(5)
        if datatype is not None:
            obj = Literal(lexical, datatype=URI(datatype))
        elif language is not None:
            obj = Literal(lexical, language=language)
        else:
            obj = Literal(lexical)
    position = _skip_whitespace(line, object_match.end())

    if position >= len(line) or line[position] != ".":
        raise ParseError("expected terminating '.'", line_number, line)
    trailing = line[position + 1 :].strip()
    if trailing and not trailing.startswith("#"):
        raise ParseError(f"unexpected trailing content: {trailing!r}", line_number, line)

    return Triple(subject, predicate, obj)


def parse_ntriples(source: Union[str, TextIO], name: str = "") -> RDFGraph:
    """Parse N-Triples *source* (a string or a text stream) into a graph."""
    if isinstance(source, str):
        source = io.StringIO(source)
    graph = RDFGraph(name=name)
    for line_number, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        graph.add(parse_ntriples_line(line, line_number))
    return graph


def load_ntriples(path, name: str = "") -> RDFGraph:
    """Load an N-Triples file from *path* into a graph."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ntriples(handle, name=name or str(path))


def serialize_ntriples(graph_or_triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples string with deterministic ordering."""
    lines = sorted(triple.n3() for triple in graph_or_triples)
    return "\n".join(lines) + ("\n" if lines else "")


def dump_ntriples(graph_or_triples: Iterable[Triple], path) -> int:
    """Write triples to *path* in N-Triples format; return the triple count."""
    text = serialize_ntriples(graph_or_triples)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text.count("\n")

