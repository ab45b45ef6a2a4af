"""The project rule set: each rule encodes a bug this repo actually had.

* ``guarded-by``            — PR 7-era races on shared state documented but
                              not enforced as lock-protected.
* ``no-blocking-under-lock``— the PR 7 ingest-vs-respawn deadlock class:
                              blocking pipe/queue traffic under the lock
                              that serializes a worker slot's respawn.
* ``no-nested-rwlock``      — the non-reentrant ``ReadWriteLock`` contract:
                              nothing reachable under the lock may re-enter
                              ``QueryService.answer`` / ``add_triples``.
* ``no-pickled-terms``      — PR 4/8: ``Term`` hashes are process-salted, so
                              pickling them across processes corrupts
                              dictionaries; cluster code ships no term at
                              all (ids only).
* ``wall-clock-duration``   — ``time()`` deltas jump under NTP; durations
                              must come from ``perf_counter``/``monotonic``.
* ``telemetry-instrument-in-hot-loop`` — ``telemetry.counter(...)`` is a
                              get-or-create (format + registry lock); in a
                              loop body it turns a counter bump into a
                              registry transaction per iteration.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import FileContext, Finding, Rule

__all__ = ["ALL_RULES"]

_GUARDED_BY_RE = re.compile(r"#:?\s*guarded by\s+([A-Za-z_][A-Za-z0-9_.]*)")


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failures are cosmetic
        return "<expr>"


def _attr_path(node: ast.AST) -> Optional[str]:
    """Dotted path of a Name/Attribute chain (``self._lock``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _with_item_paths(stmt: ast.With) -> List[str]:
    """Normalised context-expression paths of a ``with`` statement.

    ``with self._lock:`` yields ``self._lock``; ``with
    entry.rwlock.read_locked():`` yields ``entry.rwlock.read_locked()``.
    """
    paths: List[str] = []
    for item in stmt.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call) and not expr.args and not expr.keywords:
            base = _attr_path(expr.func)
            if base is not None:
                paths.append(f"{base}()")
                continue
        path = _attr_path(expr)
        paths.append(path if path is not None else _unparse(expr))
    return paths


class _AncestryVisitor(ast.NodeVisitor):
    """NodeVisitor that maintains the stack of enclosing statements."""

    def __init__(self):
        self.stack: List[ast.AST] = []

    def generic_visit(self, node: ast.AST) -> None:
        self.stack.append(node)
        try:
            super().generic_visit(node)
        finally:
            self.stack.pop()


# ----------------------------------------------------------------------
# guarded-by
# ----------------------------------------------------------------------
class GuardedByRule(Rule):
    name = "guarded-by"
    description = (
        "attributes annotated '#: guarded by <lock>' must only be touched "
        "inside the matching with/read_locked()/write_locked() block"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node))
        return findings

    # -- annotation harvesting ----------------------------------------
    def _guard_annotations(
        self, ctx: FileContext, class_node: ast.ClassDef
    ) -> Dict[str, str]:
        """attribute name -> guard expression (e.g. ``self._lock``)."""
        guards: Dict[str, str] = {}
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(method):
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                else:
                    continue
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    guard = self._annotation_for(ctx, stmt.lineno)
                    if guard is not None:
                        guards[target.attr] = guard
        return guards

    def _annotation_for(self, ctx: FileContext, line: int) -> Optional[str]:
        """Guard expr from a trailing comment or the ``#:`` block above."""
        comment = ctx.comment_on(line)
        if comment:
            match = _GUARDED_BY_RE.search(comment)
            if match:
                return match.group(1)
        lines = ctx.lines
        probe = line - 1
        while probe >= 1 and probe - 1 < len(lines):
            text = lines[probe - 1].strip()
            if not text.startswith("#"):
                break
            match = _GUARDED_BY_RE.search(text)
            if match:
                return match.group(1)
            probe -= 1
        return None

    # -- enforcement --------------------------------------------------
    def _check_class(
        self, ctx: FileContext, class_node: ast.ClassDef
    ) -> Iterable[Finding]:
        guards = self._guard_annotations(ctx, class_node)
        if not guards:
            return ()
        findings: List[Finding] = []
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in {"__init__", "__del__"}:
                continue
            findings.extend(self._check_method(ctx, method, guards))
        return findings

    def _check_method(
        self,
        ctx: FileContext,
        method: ast.AST,
        guards: Dict[str, str],
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(_AncestryVisitor):
            def visit_Attribute(self, node: ast.Attribute) -> None:
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guards
                ):
                    guard = guards[node.attr]
                    if not rule._guard_held(self.stack, guard):
                        findings.append(
                            Finding(
                                rule=rule.name,
                                path=str(ctx.path),
                                line=node.lineno,
                                col=node.col_offset,
                                message=(
                                    f"'self.{node.attr}' is documented as "
                                    f"guarded by '{guard}' but is accessed "
                                    f"outside a 'with {guard}' / "
                                    f"'{guard}.read_locked()' / "
                                    f"'{guard}.write_locked()' block"
                                ),
                            )
                        )
                self.generic_visit(node)

        Visitor().visit(method)
        return findings

    @staticmethod
    def _guard_held(stack: Sequence[ast.AST], guard: str) -> bool:
        accepted = {guard, f"{guard}.read_locked()", f"{guard}.write_locked()"}
        for ancestor in stack:
            if isinstance(ancestor, ast.With):
                if accepted & set(_with_item_paths(ancestor)):
                    return True
        return False


# ----------------------------------------------------------------------
# no-blocking-under-lock
# ----------------------------------------------------------------------
class NoBlockingUnderLockRule(Rule):
    name = "no-blocking-under-lock"
    description = (
        "no pipe send/recv, untimed Queue.put, untimed join() / wait() / "
        "communicate(), or worker spawn inside a 'with <respawn_lock>' body "
        "(the PR 7 deadlock class)"
    )

    _LOCK_MARKER = "respawn_lock"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.With) and any(
                self._LOCK_MARKER in path for path in _with_item_paths(node)
            ):
                for stmt in node.body:
                    findings.extend(self._scan(ctx, stmt))
        return findings

    def _scan(self, ctx: FileContext, root: ast.AST) -> Iterable[Finding]:
        findings: List[Finding] = []
        # Manual walk that does not descend into nested defs: calls inside
        # a nested def execute later, outside the lock.
        pending: List[ast.AST] = [root]
        nodes: List[ast.AST] = []
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            nodes.append(node)
            pending.extend(ast.iter_child_nodes(node))
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            reason = self._blocking_reason(node)
            if reason is not None:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=str(ctx.path),
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{reason} inside a 'with {self._LOCK_MARKER}' "
                            "body parks every request that found the slot "
                            "dead (the PR 7 deadlock class); move it outside "
                            "the lock or use a timed variant"
                        ),
                    )
                )
        return findings

    @staticmethod
    def _blocking_reason(call: ast.Call) -> Optional[str]:
        func = call.func
        keyword_names = {kw.arg for kw in call.keywords}
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in {"send", "recv"}:
                return f"pipe '{attr}()'"
            if attr == "put" and "timeout" not in keyword_names:
                return "untimed 'Queue.put()'"
            if attr in {"join", "wait", "communicate"}:
                # Popen.wait / communicate park on a child as Thread.join
                # parks on a thread; communicate's first positional is input
                timeout_position = 1 if attr == "communicate" else 0
                if "timeout" not in keyword_names and len(call.args) <= timeout_position:
                    return f"untimed '{attr}()'"
            if "spawn" in attr:
                return f"worker spawn '{attr}()'"
            return None
        if isinstance(func, ast.Name) and "spawn" in func.id:
            return f"worker spawn '{func.id}()'"
        return None


# ----------------------------------------------------------------------
# no-nested-rwlock
# ----------------------------------------------------------------------
class _FunctionInfo:
    __slots__ = ("qualname", "module", "class_name", "name", "calls", "path")

    def __init__(self, qualname, module, class_name, name, path):
        self.qualname = qualname
        self.module = module
        self.class_name = class_name
        self.name = name
        self.path = path
        #: (kind, callee_name, lineno, col, under_rwlock)
        self.calls: List[Tuple[str, str, int, int, bool]] = []


class NoNestedRwlockRule(Rule):
    name = "no-nested-rwlock"
    description = (
        "call-graph check: code reachable while a ReadWriteLock is held "
        "must not re-enter QueryService.answer / add_triples (the lock is "
        "non-reentrant)"
    )

    _FORBIDDEN = {"answer", "add_triples", "add_encoded_rows"}
    _MAX_DEPTH = 8

    def __init__(self):
        self._functions: Dict[str, _FunctionInfo] = {}
        self._methods_by_name: Dict[str, Set[str]] = {}
        self._module_functions: Dict[Tuple[str, str], str] = {}
        self._imports: Dict[str, Dict[str, str]] = {}

    # -- collection ---------------------------------------------------
    def collect(self, ctx: FileContext) -> None:
        imports: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self._imports[ctx.module] = imports

        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(ctx, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._collect_function(ctx, item, class_name=node.name)

    def _collect_function(
        self, ctx: FileContext, node: ast.AST, class_name: Optional[str]
    ) -> None:
        qualname = (
            f"{ctx.module}:{class_name}.{node.name}"
            if class_name
            else f"{ctx.module}:{node.name}"
        )
        info = _FunctionInfo(qualname, ctx.module, class_name, node.name, str(ctx.path))
        self._walk_body(node.body, info, under=False)
        self._functions[qualname] = info
        if class_name:
            self._methods_by_name.setdefault(node.name, set()).add(qualname)
        else:
            self._module_functions[(ctx.module, node.name)] = qualname

    def _walk_body(
        self, body: Sequence[ast.stmt], info: _FunctionInfo, under: bool
    ) -> None:
        region = under
        for stmt in body:
            if self._is_rw_acquire(stmt):
                # `x.acquire_read()` then a try/finally (or trailing
                # statements) is the raw-span idiom: everything after the
                # acquire in this block runs under the lock.
                region = True
                continue
            self._walk_stmt(stmt, info, region)
            if region and not under and self._releases_rwlock(stmt):
                # The try/finally released the lock; the rest of the
                # block runs outside it again.
                region = False

    def _walk_stmt(self, stmt: ast.stmt, info: _FunctionInfo, under: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs run later, not under this region
        if isinstance(stmt, ast.With):
            held = under or any(
                path.endswith(".read_locked()") or path.endswith(".write_locked()")
                for path in _with_item_paths(stmt)
            )
            for item in stmt.items:
                self._record_calls(item.context_expr, info, under)
            self._walk_body(stmt.body, info, held)
            return
        # Record calls in the statement's own expressions, then recurse
        # into sub-blocks with the same region flag.
        for expr_field in ast.iter_fields(stmt):
            name, value = expr_field
            if isinstance(value, ast.expr):
                self._record_calls(value, info, under)
            elif isinstance(value, list):
                for child in value:
                    if isinstance(child, ast.expr):
                        self._record_calls(child, info, under)
                    elif isinstance(child, ast.stmt):
                        self._walk_stmt(child, info, under)
                    elif isinstance(child, ast.excepthandler):
                        self._walk_body(child.body, info, under)

    def _record_calls(self, expr: ast.expr, info: _FunctionInfo, under: bool) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                ):
                    info.calls.append(
                        ("self", func.attr, node.lineno, node.col_offset, under)
                    )
                else:
                    info.calls.append(
                        ("attr", func.attr, node.lineno, node.col_offset, under)
                    )
            elif isinstance(func, ast.Name):
                info.calls.append(
                    ("plain", func.id, node.lineno, node.col_offset, under)
                )

    @staticmethod
    def _releases_rwlock(stmt: ast.stmt) -> bool:
        if not isinstance(stmt, ast.Try) or not stmt.finalbody:
            return False
        for node in ast.walk(ast.Module(body=list(stmt.finalbody), type_ignores=[])):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"release_read", "release_write"}
            ):
                return True
        return False

    @staticmethod
    def _is_rw_acquire(stmt: ast.stmt) -> bool:
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
            return False
        func = stmt.value.func
        return isinstance(func, ast.Attribute) and func.attr in {
            "acquire_read",
            "acquire_write",
        }

    # -- resolution ---------------------------------------------------
    def _resolve(self, info: _FunctionInfo, kind: str, name: str) -> Set[str]:
        if kind == "self" and info.class_name:
            own = f"{info.module}:{info.class_name}.{name}"
            if own in self._functions:
                return {own}
            return self._methods_by_name.get(name, set())
        if kind in {"self", "attr"}:
            return self._methods_by_name.get(name, set())
        # plain call: same-module function, then explicit import
        own = self._module_functions.get((info.module, name))
        if own is not None:
            return {own}
        target = self._imports.get(info.module, {}).get(name)
        if target is not None:
            module, _, func_name = target.rpartition(".")
            resolved = self._module_functions.get((module, func_name))
            if resolved is not None:
                return {resolved}
            # Imported from outside the linted tree: only its own name
            # can condemn it.
            return set()
        return set()

    def _is_forbidden(self, kind: str, name: str) -> bool:
        if name not in self._FORBIDDEN:
            return False
        if kind == "plain":
            # A plain call is only the entry point if it is not an
            # imported helper shadowing the name (e.g. queries.has_answers).
            return False
        return True

    # -- reporting ----------------------------------------------------
    def finalize(self) -> Iterable[Finding]:
        findings: List[Finding] = []
        for info in self._functions.values():
            for kind, callee, lineno, col, under in info.calls:
                if not under:
                    continue
                chain = self._find_violation(info, kind, callee)
                if chain is not None:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=info.path,
                            line=lineno,
                            col=col,
                            message=(
                                f"call under a held ReadWriteLock reaches "
                                f"the RW entry point via "
                                f"{' -> '.join(chain)}; the lock is "
                                "non-reentrant, so this can deadlock behind "
                                "a waiting writer"
                            ),
                        )
                    )
        return findings

    def _find_violation(
        self, info: _FunctionInfo, kind: str, callee: str
    ) -> Optional[List[str]]:
        if self._is_forbidden(kind, callee):
            return [f"{callee}()"]
        queue = deque(
            (target, [callee]) for target in self._resolve(info, kind, callee)
        )
        seen: Set[str] = set()
        while queue:
            qualname, chain = queue.popleft()
            if qualname in seen or len(chain) > self._MAX_DEPTH:
                continue
            seen.add(qualname)
            target_info = self._functions.get(qualname)
            if target_info is None:
                continue
            for next_kind, next_callee, _line, _col, _under in target_info.calls:
                if self._is_forbidden(next_kind, next_callee):
                    return chain + [f"{next_callee}()"]
                for target in self._resolve(target_info, next_kind, next_callee):
                    if target not in seen:
                        queue.append((target, chain + [next_callee]))
        return None


# ----------------------------------------------------------------------
# no-pickled-terms
# ----------------------------------------------------------------------
class NoPickledTermsRule(Rule):
    name = "no-pickled-terms"
    description = (
        "cluster code ships ids, never pickled Term objects (their hashes "
        "are process-salted)"
    )

    _TERMISH = re.compile(r"(?i)\bterm")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ".cluster" not in ctx.module and not ctx.module.startswith("cluster"):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "pickle"
                and func.attr in {"dumps", "dump", "loads", "load"}
            ):
                continue
            for arg in node.args:
                text = _unparse(arg)
                if self._TERMISH.search(text) or "Term(" in text:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=str(ctx.path),
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"pickle.{func.attr}({text!r}) looks like it "
                                "moves terms; Term hashes are process-salted, "
                                "so the cluster's pipes and images carry ids "
                                "only, decoded by the coordinator"
                            ),
                        )
                    )
                    break
        return findings


# ----------------------------------------------------------------------
# wall-clock-duration
# ----------------------------------------------------------------------
class WallClockDurationRule(Rule):
    name = "wall-clock-duration"
    description = (
        "time.time() deltas used as durations must be perf_counter()/"
        "monotonic() — the wall clock jumps under NTP"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        wall_clock_names = self._wall_clock_names(ctx.tree)
        if not wall_clock_names:
            return ()
        findings: List[Finding] = []
        rule = self
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    rule._check_scope(ctx, node.body, wall_clock_names)
                )
        findings.extend(self._check_scope(ctx, ctx.tree.body, wall_clock_names))
        # De-duplicate (module scope walk also sees function bodies).
        unique = {(f.line, f.col): f for f in findings}
        return list(unique.values())

    @staticmethod
    def _wall_clock_names(tree: ast.Module) -> Set[str]:
        """Local names that mean the wall clock: ``time.time`` or ``time``."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        names.add(f"{alias.asname or alias.name}.time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        names.add(alias.asname or alias.name)
        return names

    def _is_wall_clock_call(self, node: ast.AST, names: Set[str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        path = _attr_path(node.func)
        return path is not None and path in names

    def _contains_wall_clock_call(self, node: ast.AST, names: Set[str]) -> bool:
        return any(
            self._is_wall_clock_call(child, names) for child in ast.walk(node)
        )

    def _check_scope(
        self, ctx: FileContext, body: Sequence[ast.stmt], names: Set[str]
    ) -> Iterable[Finding]:
        tainted: Set[str] = set()
        findings: List[Finding] = []
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Assign) and self._contains_wall_clock_call(
                    node.value, names
                ):
                    for target in node.targets:
                        path = _attr_path(target)
                        if path is not None:
                            tainted.add(path)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                    for operand in (node.left, node.right):
                        if self._is_wall_clock_call(operand, names) or (
                            _attr_path(operand) in tainted
                        ):
                            findings.append(
                                Finding(
                                    rule=self.name,
                                    path=str(ctx.path),
                                    line=node.lineno,
                                    col=node.col_offset,
                                    message=(
                                        "wall-clock time() delta used as a "
                                        "duration; use perf_counter() (or "
                                        "monotonic() for deadlines) — "
                                        "time() jumps under NTP/DST"
                                    ),
                                )
                            )
                            break
        return findings


# ----------------------------------------------------------------------
# telemetry-instrument-in-hot-loop
# ----------------------------------------------------------------------
class TelemetryInstrumentInHotLoopRule(Rule):
    name = "telemetry-instrument-in-hot-loop"
    description = (
        "no telemetry.counter/gauge/histogram get-or-create inside loop "
        "bodies; hoist the instrument and reuse it"
    )

    _INSTRUMENTS = {"counter", "gauge", "histogram"}

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(_AncestryVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                if rule._is_instrument_call(node) and rule._in_loop(self.stack):
                    func_path = _attr_path(node.func) or "telemetry.<instrument>"
                    findings.append(
                        Finding(
                            rule=rule.name,
                            path=str(ctx.path),
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"'{func_path}(...)' is a registry "
                                "get-or-create (name formatting plus a "
                                "registry lock) executed every iteration; "
                                "hoist the instrument out of the loop"
                            ),
                        )
                    )
                self.generic_visit(node)

        Visitor().visit(ctx.tree)
        return findings

    def _is_instrument_call(self, node: ast.Call) -> bool:
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr in self._INSTRUMENTS
            and isinstance(func.value, ast.Name)
            and func.value.id == "telemetry"
        )

    @staticmethod
    def _in_loop(stack: Sequence[ast.AST]) -> bool:
        # Innermost function/loop wins: a def between the call and the
        # loop means the call runs when the def is invoked, not per
        # iteration.
        for ancestor in reversed(stack):
            if isinstance(ancestor, (ast.For, ast.While, ast.AsyncFor)):
                return True
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return False
        return False


ALL_RULES = [
    GuardedByRule,
    NoBlockingUnderLockRule,
    NoNestedRwlockRule,
    NoPickledTermsRule,
    WallClockDurationRule,
    TelemetryInstrumentInHotLoopRule,
]
