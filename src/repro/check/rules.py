"""The initial ``repro check`` rule pack.

Each rule encodes one correctness contract the repo's runtime relies on
but Python cannot express. Scopes are fnmatch patterns over the logical
path (``repro/runner/queue.py``); a rule only fires inside its scope so
e.g. RPR003's determinism contract does not outlaw ``time`` in the
worker loop, where wall clocks are legitimate.

All checks are syntactic (AST shape, not types): that keeps them fast,
dependency-free and predictable, at the cost of resolvable aliasing
(``from json import dump as d``) slipping through. The contracts they
guard are conventions of *this* codebase, which does not alias stdlib
modules — the self-hosted CI gate keeps it that way.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator, Sequence

from .base import FileContext, Finding, call_name, register_rule


def in_scope(rel: str, patterns: Sequence[str]) -> bool:
    return any(fnmatch(rel, pattern) for pattern in patterns)


def _keyword(node: ast.Call, name: str) -> ast.keyword | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw
    return None


def _keyword_is(node: ast.Call, name: str, value: bool) -> bool:
    kw = _keyword(node, name)
    return (
        kw is not None
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is value
    )


def _enclosing_function_names(tree: ast.Module) -> dict[int, str]:
    """Map each node id to the name of its innermost enclosing function."""
    names: dict[int, str] = {}

    def visit(node: ast.AST, current: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            current = node.name
        for child in ast.iter_child_nodes(node):
            names[id(child)] = current
            visit(child, current)

    visit(tree, "")
    return names


def _contains_json_dumps(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Call) and call_name(sub) == "json.dumps"
        for sub in ast.walk(node)
    )


@register_rule
class AtomicWriteRule:
    """RPR001 — durable state files are written via ``atomic_write_json``.

    The cache/queue/ledger protocols all assume a reader never
    observes a half-written JSON document: the queue claims by renaming
    whole files, the cache trusts any present blob, and crashed writers
    must leave no torn state behind. ``atomic_write_json`` (temp file +
    ``os.replace``) is the only write path that guarantees this.
    """

    code = "RPR001"
    name = "atomic-durable-writes"
    severity = "error"
    description = (
        "durable JSON state must be written via atomic_write_json, "
        "not raw json.dump/open(..., 'w')"
    )
    rationale = (
        "queue/cache/ledger readers trust any file that exists; a raw "
        "write torn by a crash corrupts shared state that os.replace "
        "would have published atomically"
    )
    scope = (
        "repro/runner/cache.py",
        "repro/runner/queue.py",
        "repro/runner/worker.py",
        "repro/server/*.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.rel, self.scope):
            return
        enclosing = _enclosing_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # atomic_write_json itself is the one sanctioned json.dump
            # site: it writes to a private temp fd before os.replace.
            if enclosing.get(id(node), "") == "atomic_write_json":
                continue
            name = call_name(node)
            if name == "json.dump":
                yield ctx.finding(
                    self.code,
                    node,
                    "raw json.dump to durable state; route through "
                    "atomic_write_json (temp file + os.replace)",
                )
            elif name.endswith("write_text") or name.endswith("write_bytes"):
                if _contains_json_dumps(node):
                    yield ctx.finding(
                        self.code,
                        node,
                        "non-atomic write_text/write_bytes of a JSON "
                        "document; route through atomic_write_json",
                    )


@register_rule
class CanonicalJsonRule:
    """RPR002 — wire/cache JSON is sorted and NaN-free.

    Cache keys, ledgers and HTTP bodies are compared byte-for-byte (the
    CI ``cmp`` gates, result-cache hits). ``sort_keys=True`` makes dict
    order irrelevant; ``allow_nan=False`` refuses the
    non-standard ``NaN``/``Infinity`` literals that other parsers (and
    the repo's own strict loads) reject — non-finite floats must be
    mapped to ``None`` first via ``utils.sanitize_nonfinite``.
    """

    code = "RPR002"
    name = "canonical-json"
    severity = "error"
    description = (
        "json.dump/json.dumps on wire or cache paths must pass "
        "sort_keys=True and allow_nan=False"
    )
    rationale = (
        "byte-identity of serialized state is the property every cache "
        "hit and CI cmp gate depends on; unsorted keys or bare NaN "
        "literals silently break it"
    )
    scope = (
        "repro/client.py",
        "repro/resultset.py",
        "repro/__main__.py",
        "repro/server/*.py",
        "repro/runner/*.py",
        "repro/spec/*.py",
        "repro/check/*.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.rel, self.scope):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in ("json.dump", "json.dumps"):
                continue
            missing = [
                spelled
                for flag, value, spelled in (
                    ("sort_keys", True, "sort_keys=True"),
                    ("allow_nan", False, "allow_nan=False"),
                )
                if not _keyword_is(node, flag, value)
            ]
            if missing:
                yield ctx.finding(
                    self.code,
                    node,
                    "wire/cache serialization must pass " + " and ".join(missing),
                )


@register_rule
class DeterminismRule:
    """RPR003 — canonicalization and hashing paths are deterministic.

    ``stable_hash`` over a spec must yield the same digest on every
    host, every process, every run: it names cache entries and queue
    units. Clocks, RNGs, UUIDs and unordered set iteration all inject
    per-process entropy into that digest.
    """

    code = "RPR003"
    name = "deterministic-hash-paths"
    severity = "error"
    description = (
        "no time/random/uuid/secrets imports or unordered set iteration "
        "in spec canonicalization or plan hashing modules"
    )
    rationale = (
        "cache keys and queue unit names are stable hashes of specs; "
        "any per-process entropy in those paths splits the cache and "
        "breaks cross-host byte-identity"
    )
    scope = (
        "repro/spec/*.py",
        "repro/runner/plan.py",
    )
    banned_modules = ("time", "random", "uuid", "secrets", "datetime")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.rel, self.scope):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.banned_modules:
                        yield ctx.finding(
                            self.code,
                            node,
                            "import of nondeterministic module "
                            f"{alias.name!r} in a hashed path",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in self.banned_modules:
                    yield ctx.finding(
                        self.code,
                        node,
                        "import from nondeterministic module "
                        f"{node.module!r} in a hashed path",
                    )
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.iter
                if self._is_unordered(target):
                    yield ctx.finding(
                        self.code,
                        target,
                        "iteration over an unordered set in a hashed "
                        "path; wrap in sorted(...)",
                    )

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return call_name(node) in ("set", "frozenset")
        return False


@register_rule
class AsyncBlockingRule:
    """RPR004 — the asyncio server never blocks the event loop.

    One ``time.sleep`` or sync ``open`` inside a coroutine stalls every
    connected client: the SSE stream, the poll loop, heartbeats. Slow
    work belongs in ``run_in_executor`` or outside the server package.
    """

    code = "RPR004"
    name = "no-blocking-in-async"
    severity = "error"
    description = (
        "no blocking calls (time.sleep, subprocess.*, sync file I/O) "
        "inside async def bodies in server/"
    )
    rationale = (
        "the server is single-event-loop; any sync block freezes every "
        "client, heartbeat and SSE stream at once"
    )
    scope = ("repro/server/*.py",)
    blocking = (
        "time.sleep",
        "os.system",
        "open",
        "os.fdopen",
    )
    blocking_prefixes = ("subprocess.",)
    blocking_methods = (
        ".read_text",
        ".write_text",
        ".read_bytes",
        ".write_bytes",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.rel, self.scope):
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            yield from self._check_async_body(ctx, func)

    def _check_async_body(
        self, ctx: FileContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        stack: list[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            # a nested sync def runs only when explicitly called (e.g.
            # handed to run_in_executor) — not on the event loop here.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            hit = (
                name in self.blocking
                or any(name.startswith(p) for p in self.blocking_prefixes)
                or any(name.endswith(m) for m in self.blocking_methods)
            )
            if hit:
                yield ctx.finding(
                    self.code,
                    node,
                    f"blocking call {name!r} inside async def "
                    f"{func.name!r}; use run_in_executor or move it "
                    "off the event loop",
                )


@register_rule
class SwallowedExceptionRule:
    """RPR005 — no silently-swallowed broad excepts.

    ``except Exception: pass`` hides queue corruption, cache races and
    protocol bugs equally well. A broad handler must re-raise, log, call
    *something*, or carry an inline justification.
    """

    code = "RPR005"
    name = "no-silent-except"
    severity = "error"
    description = (
        "broad except (Exception/BaseException/bare) must re-raise, "
        "log, or carry a repro: ignore justification"
    )
    rationale = (
        "a swallowed broad except converts crashes into silent wrong "
        "answers; every deliberate swallow must be visible and "
        "justified at the site"
    )
    scope = ("repro/*.py", "repro/*/*.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.rel, self.scope):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handler_acts(node):
                continue
            yield ctx.finding(
                self.code,
                node,
                "broad except swallows the error without re-raise, "
                "logging, or any side effect; narrow it or justify "
                "with '# repro: ignore[RPR005] <reason>'",
            )

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:  # bare except
            return True
        names = (
            [type_node]
            if not isinstance(type_node, ast.Tuple)
            else list(type_node.elts)
        )
        for item in names:
            if isinstance(item, ast.Name) and item.id in (
                "Exception",
                "BaseException",
            ):
                return True
        return False

    @staticmethod
    def _handler_acts(node: ast.ExceptHandler) -> bool:
        """True if the handler re-raises or does observable work."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Raise, ast.Call, ast.Return, ast.Yield)):
                if isinstance(sub, ast.Return) and sub.value is None:
                    continue
                if (
                    isinstance(sub, ast.Return)
                    and isinstance(sub.value, ast.Constant)
                    and sub.value.value is None
                ):
                    continue
                return True
        return False


@register_rule
class QueueRenameRule:
    """RPR006 — queue state transitions are single renames.

    A unit moves pending -> claimed -> done by ``os.replace`` so exactly
    one worker can win it and no observer sees it in two states.
    Copy-then-delete opens a window where the unit exists twice (double
    execution) or zero times (lost work).
    """

    code = "RPR006"
    name = "queue-moves-are-renames"
    severity = "error"
    description = (
        "queue claim/result moves must use os.rename/os.replace, "
        "never shutil copy-then-delete"
    )
    rationale = (
        "rename is the queue's mutual-exclusion primitive: atomic, "
        "fails for all but one claimant; a copy+delete races and can "
        "double-run or lose a unit"
    )
    scope = ("repro/runner/queue.py",)
    banned = (
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_scope(ctx.rel, self.scope):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and call_name(node) in self.banned:
                yield ctx.finding(
                    self.code,
                    node,
                    f"{call_name(node)} in the queue protocol; state "
                    "moves must be a single os.rename/os.replace",
                )


__all__ = [
    "AtomicWriteRule",
    "CanonicalJsonRule",
    "DeterminismRule",
    "AsyncBlockingRule",
    "SwallowedExceptionRule",
    "QueueRenameRule",
    "in_scope",
]
