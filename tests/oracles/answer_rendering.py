"""The answer renderer the HTTP front end had while answers were decoded
before they were rendered: the oracle of ``tests/server/test_answer_rendering.py``.

Every kept row is a tuple of ``Term`` objects, the rows are sorted by the
tuple of their cells' :func:`~repro.model.terms.term_sort_key`, each cell is
rendered with ``n3()``, and the payload is serialized whole by
``json.dumps(..., sort_keys=True)``.
"""

import json
from typing import Dict, Iterable, List, Tuple

from repro.model.terms import Term, term_sort_key


def render_rows(answers: Iterable[Tuple[Term, ...]]) -> List[List[str]]:
    """*answers* as a payload's ``answers``: rows of N-Triples terms, in the
    order of their terms."""
    rows = sorted(answers, key=lambda row: tuple(term_sort_key(term) for term in row))
    return [[term.n3() for term in row] for row in rows]


def render_body(payload: Dict, answers: Iterable[Tuple[Term, ...]]) -> bytes:
    """The response body of *payload* with *answers* as its ``answers``."""
    return json.dumps({**payload, "answers": render_rows(answers)}, sort_keys=True).encode("utf-8")
