"""What a process pays for before it does anything: import closures.

``repro serve --workers K`` is K+1 interpreters, so every module a worker
imports and never uses is paid for K times.  These tests pin the closures
(each measured in a fresh interpreter), the lazy package exports that keep
them small, and the digest that replaced ``hashlib`` in node naming.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.cluster",
    "repro.core",
    "repro.datasets",
    "repro.io",
    "repro.model",
    "repro.queries",
    "repro.schema",
    "repro.server",
    "repro.service",
    "repro.store",
    "repro.utils",
]


def _loaded_by(statement):
    """Modules *statement* adds to a fresh interpreter's ``sys.modules``."""
    code = (
        "import sys, json; before = set(sys.modules); "
        f"{statement}; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(json.loads(result.stdout))


def _within(modules, *prefixes):
    return sorted(
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    )


def test_import_repro_loads_no_submodule():
    loaded = _loaded_by("import repro")
    # the lazy-export helper itself is the one exception
    assert _within(loaded, "repro") == ["repro", "repro._lazy"]


def test_worker_closure_is_store_evaluator_guard_only():
    loaded = _loaded_by("import repro.cluster.worker")
    assert "repro.service.evaluator" in loaded and "repro.store.memory" in loaded
    assert not _within(
        loaded,
        "repro.cluster.coordinator",
        "repro.core.bisimulation",
        "repro.core.cliques",
        "repro.core.isomorphism",
        "repro.core.shortcuts",
        "repro.queries.generator",
        "repro.service.workload",
        "repro.store.sqlite",
        "repro.analysis",
        "repro.datasets",
        "repro.io",
        "repro.server",
        "sqlite3",
        "hashlib",
        "_hashlib",
        "ssl",
        "secrets",
        "uuid",
        "concurrent.futures",
        "multiprocessing.shared_memory",
        "multiprocessing.resource_tracker",
    )
    # 88 beyond a bare interpreter when this was written; 168 before the diet
    assert len(loaded) <= 100, sorted(loaded)


#: Stdlib a serving process used to load and never call: ``http.server``
#: (and through it ``http.client``, OpenSSL, ``email``), a thread pool's
#: ``logging``, ``multiprocessing`` for a length-prefixed pickle.
UNUSED_STDLIB = (
    "http.server",
    "http.client",
    "email",
    "ssl",
    "_ssl",
    "html",
    "mimetypes",
    "concurrent.futures",
    "logging",
    "multiprocessing",
)


def test_single_process_serve_closure_holds_no_stdlib_it_never_calls():
    loaded = _loaded_by("import repro.cli, repro.server.http; repro.cli.build_parser()")
    assert "repro.server.executor" in loaded and "socketserver" in loaded
    assert not _within(loaded, *UNUSED_STDLIB)
    # 109 beyond a bare interpreter when this was written; 160 with http.server
    assert len(loaded) <= 118, sorted(loaded)


def test_coordinator_closure_frames_its_pipes_itself():
    loaded = _loaded_by("import repro.cli, repro.server.http, repro.cluster.coordinator")
    assert not _within(loaded, "http.server", "http.client", "email", "ssl", "multiprocessing")


#: A ``sitecustomize`` that makes any interpreter started with it on its path
#: write the names in ``sys.modules`` to a file as it exits.
_DUMP_MODULES_AT_EXIT = """
import atexit, os, sys

def _dump():
    with open(os.environ["REPRO_TEST_MODULES_FILE"], "w") as out:
        out.write("\\n".join(sorted(sys.modules)))

atexit.register(_dump)
"""


def _modules_of_process(tmp_path, arguments, pass_fds=()):
    """``sys.modules`` of a ``python <arguments>`` process at its exit — the
    process itself, ``__main__`` and all, not an ``import`` of its module."""
    (tmp_path / "sitecustomize.py").write_text(_DUMP_MODULES_AT_EXIT)
    modules_file = tmp_path / "modules.txt"
    # the closure pinned is the production one: no lockcheck in the child
    env = {key: value for key, value in os.environ.items() if key != "REPRO_LOCKCHECK"}
    env.update(
        PYTHONPATH=f"{tmp_path}{os.pathsep}{SRC}", REPRO_TEST_MODULES_FILE=str(modules_file)
    )
    subprocess.run(
        [sys.executable, *arguments],
        env=env,
        pass_fds=pass_fds,
        stdin=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )
    return set(modules_file.read_text().split())


def test_the_process_a_worker_is_never_imports_multiprocessing(tmp_path):
    """``python -m repro.cluster.worker <fd> <config>`` as the coordinator
    starts it, on a pipe whose other end is already closed: it reads EOF and
    exits, having imported everything a worker imports to get that far."""
    import socket

    bare = _modules_of_process(tmp_path, ["-c", "pass"])
    ours, theirs = socket.socketpair()
    with ours, theirs:
        ours.close()
        config = json.dumps({"shard_index": 0, "shard_count": 1})
        worker = _modules_of_process(
            tmp_path,
            ["-m", "repro.cluster.worker", str(theirs.fileno()), config],
            pass_fds=[theirs.fileno()],
        )
    loaded = worker - bare
    assert "repro.cluster.protocol" in loaded and "repro.service.evaluator" in loaded
    assert not _within(loaded, *UNUSED_STDLIB, "socket", "repro.cluster.coordinator")
    # 98 beyond a bare interpreter when this was written; 126 with
    # multiprocessing.connection
    assert len(loaded) <= 106, sorted(loaded)


def test_serve_closure_leaves_the_offline_tools_out():
    loaded = _loaded_by(
        "import repro.cli, repro.server.http, repro.cluster.coordinator; "
        "repro.cli.build_parser()"
    )
    assert "repro.service.catalog" in loaded
    assert not _within(
        loaded,
        "repro.analysis",
        "repro.datasets",
        "repro.io.dot",
        "repro.io.turtle_lite",
        "repro.core.bisimulation",
        "multiprocessing.shared_memory",
        "multiprocessing.resource_tracker",
    )


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_lazy_exports_are_the_submodules_objects(package_name):
    package = importlib.import_module(package_name)
    submodules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__, package_name + ".")
        if not info.name.endswith("__main__")
    ]
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        assert name in listed
        if name == "__version__":
            continue
        assert any(
            vars(module).get(name) is value for module in submodules
        ), f"{package_name}.{name} is not an object of one of its submodules"
    with pytest.raises(AttributeError):
        package.no_such_name
    with pytest.raises(AttributeError):
        package._no_such_private_name
    namespace = {}
    exec(f"from {package_name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)


def test_lazy_export_table_must_match_all():
    from repro._lazy import lazy_exports

    namespace = {"__name__": "repro.core", "__all__": ["Summary", "missing_from_table"]}
    with pytest.raises(ImportError, match="missing_from_table"):
        lazy_exports(namespace, {"summary": ("Summary",)})
    namespace["__all__"] = ["Summary"]
    with pytest.raises(ImportError, match="not_in_all"):
        lazy_exports(namespace, {"summary": ("Summary", "not_in_all")})


def _random_keys(count=1000):
    rng = random.Random(20150831)
    for index in range(count):
        yield (
            "incremental",
            rng.randrange(1 << 40),
            frozenset(rng.sample(range(100), rng.randrange(5))),
            "".join(chr(rng.randrange(32, 0x2FF)) for _ in range(rng.randrange(12))),
            index,
        )


def _reference_digest(key):
    return hashlib.sha1(repr(key).encode("utf-8")).hexdigest()[:8]


def test_stable_digest_is_sha1_without_openssl():
    from repro.core import naming

    assert naming.sha1.__module__ == "_sha1"  # the branch this interpreter takes
    for key in _random_keys():
        assert naming._stable_digest(key) == _reference_digest(key)


def test_stable_digest_fallback_branch(monkeypatch):
    """A build without the built-in ``_sha1`` names nodes identically."""
    from repro.core import naming

    monkeypatch.setitem(sys.modules, "_sha1", None)  # makes the import fail
    spec = importlib.util.spec_from_file_location("naming_without_sha1", naming.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha1 is hashlib.sha1
    for key in _random_keys():
        assert fallback._stable_digest(key) == _reference_digest(key)
