#!/usr/bin/env python3
"""Where ``catalog_bytes_per_triple`` sits, table by table.

    python3 benchmarks/catalog_split.py [--seed 0]

The repo benchmark (``bench/run.py``) reports one number for the catalog
file: its bytes over the triples of the base graph.  This script cold-builds
the same file through the benchmark's own inputs and ``cold_build`` (the
base graph every workload serves, weak + strong cached, ``PYTHONHASHSEED``
pinned to 0 as ``bench/run.py`` pins it) and splits it by table: the pages
each table's b-tree holds (``SUM(pgsize)`` from SQLite's ``dbstat`` virtual
table, or ``SUM(length(...))`` of its blobs where ``dbstat`` is not compiled
in), the fixed pages as the rest of the file (schema, ``catalog_meta``,
``graphs``, the primary-key and log indexes, free pages), and bytes per
triple of each.  The summary artifacts are split by name as well.

Output is a table for people followed by one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import sqlite3
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from inputs import build_inputs  # noqa: E402
from serverproc import cold_build, make_workdir, remove_workdir  # noqa: E402

#: ``(row label, table, its blob columns for the fallback)``, in print order.
TABLES = [
    ("columns", "graph_columns", ("s", "p", "o")),
    ("dictionary", "dictionary_chunks", ("terms",)),
    ("artifacts", "artifacts", ("payload",)),
    ("log", "graph_triples", ()),
]


def split(path: str) -> dict:
    """Bytes per table of the catalog file at *path*, and how they were read."""
    connection = sqlite3.connect(path)
    try:
        try:
            pages = dict(connection.execute("SELECT name, SUM(pgsize) FROM dbstat GROUP BY 1"))
            source = "dbstat"
        except sqlite3.OperationalError:  # no dbstat in this SQLite build
            pages, source = {}, "blob lengths"
            for _label, table, blobs in TABLES:
                lengths = " + ".join(f"length({column})" for column in blobs) or "0"
                (pages[table],) = connection.execute(
                    f"SELECT COALESCE(SUM({lengths}), 0) FROM {table}"
                ).fetchone()
        artifacts = dict(
            connection.execute("SELECT name, length(payload) FROM artifacts ORDER BY name")
        )
        (terms,) = connection.execute(
            "SELECT COALESCE(SUM(count), 0) FROM dictionary_chunks"
        ).fetchone()
        (page_size,) = connection.execute("PRAGMA page_size").fetchone()
    finally:
        connection.close()
    return {
        "source": source,
        "page_size": page_size,
        "terms": terms,
        "tables": {label: pages.get(table, 0) for label, table, _blobs in TABLES},
        "artifact_payloads": artifacts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    inputs = build_inputs("mixed_serial", args.seed)
    triples = len(inputs.base)
    workdir = make_workdir()
    try:
        path = os.path.join(workdir, "catalog.db")
        build = cold_build(path, inputs.base)
        report = split(path)
    finally:
        remove_workdir(workdir)
    file_bytes = int(build["bytes"])
    rows = dict(report["tables"])
    rows["fixed pages"] = file_bytes - sum(rows.values())
    rows["file"] = file_bytes
    report.update(
        seed=args.seed,
        triples=triples,
        file_bytes=file_bytes,
        bytes_per_triple=round(file_bytes / triples, 3),
        per_triple={label: round(size / triples, 3) for label, size in rows.items()},
    )
    print(f"catalog file, seed {args.seed}: {triples} triples, {report['terms']} terms, "
          f"{report['page_size']} B pages, tables by {report['source']}\n")  # fmt: skip
    print("| part | bytes | B per triple |")
    print("| --- | --- | --- |")
    for label, size in rows.items():
        print(f"| {label} | {size:,} | {size / triples:.3f} |")
    print()
    print("| artifact payload | bytes |")
    print("| --- | --- |")
    for name, size in report["artifact_payloads"].items():
        print(f"| {name} | {size:,} |")
    print()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"  # as bench/run.py pins it
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
