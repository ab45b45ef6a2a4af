"""End-to-end test of ``repro serve``: real subprocess, real HTTP, warm restart."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.io.ntriples import dump_ntriples


REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _spawn_server(args):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.abspath(REPO_SRC) + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
    )


def _wait_for_port(process, timeout=30):
    """Parse the announced URL from the serve banner."""
    deadline = time.monotonic() + timeout
    banner = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        banner += line
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return int(match.group(1))
    raise AssertionError(f"server never announced a port; output so far:\n{banner}")


def _post_query(port, query, timeout=30):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/graphs/g/query",
        data=json.dumps({"query": query}).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _stop(process):
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=10)
        raise


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_serve_round_trip_with_warm_restart(tmp_path, fig2, backend):
    data_file = tmp_path / "fig2.nt"
    dump_ntriples(fig2, str(data_file))
    catalog_path = tmp_path / "catalog.db"
    query = "SELECT ?x WHERE { ?x <http://example.org/fig2/editor> ?y . }"
    base_args = [
        "--catalog",
        str(catalog_path),
        "--port",
        "0",
        "--threads",
        "2",
        "--backend",
        backend,
    ]

    process = _spawn_server([*base_args, "--load", f"g={data_file}"])
    try:
        port = _wait_for_port(process)
        cold = _post_query(port, query)
        assert cold["answer_count"] > 0
    finally:
        _stop(process)
    assert process.returncode == 0

    # warm restart: no --load, everything must come from the catalog file
    process = _spawn_server(base_args)
    try:
        port = _wait_for_port(process)
        warm = _post_query(port, query)
        assert warm["answers"] == cold["answers"]
    finally:
        _stop(process)
    assert process.returncode == 0


def test_serve_cluster_round_trip_with_sigterm_drain(tmp_path, fig2):
    """``--workers 2``: queries run on worker processes, and a
    SIGTERM drains the whole tier (HTTP, executor, cluster workers) to a
    clean exit 0."""
    data_file = tmp_path / "fig2.nt"
    dump_ntriples(fig2, str(data_file))
    process = _spawn_server(
        [
            "--port",
            "0",
            "--threads",
            "2",
            "--workers",
            "2",
            "--load",
            f"g={data_file}",
        ]
    )
    try:
        port = _wait_for_port(process)
        answer = _post_query(
            port, "SELECT ?x ?y WHERE { ?x <http://example.org/fig2/editor> ?y . }"
        )
        assert answer["answer_count"] > 0
        assert answer["cluster"]["mode"] == "full"
        assert len(answer["cluster"]["workers"]) == 1
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/cluster", timeout=30
        ) as response:
            status = json.loads(response.read())
        assert status["worker_count"] == 2
        assert all(worker["alive"] for worker in status["workers"])
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
            raise
    assert process.returncode == 0
