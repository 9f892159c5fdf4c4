"""Core types of the ``repro check`` static-analysis engine.

The engine mirrors the repo's plug-in idiom: :data:`CHECK_RULES` is a
:class:`~repro.registry.Registry` of :class:`Rule` implementations, one
per invariant code (``RPR001``...), so a new contract lands as one
registered class next to its documentation — the CLI, the JSON output
and the test harness pick it up automatically.

A rule sees one :class:`FileContext` at a time (path, source text,
parsed AST) and yields :class:`Finding` objects. Suppressions are
handled centrally by the engine: a finding on a line whose own (or
immediately preceding) comment says ``# repro: ignore[RPR001]`` is
dropped, so every escape hatch is grep-able and carries its code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

from ..registry import Registry

#: Rule severities, mildest first. Only ``error`` findings gate the CLI
#: exit code; ``warning`` findings are reported but do not fail a run.
SEVERITIES = ("warning", "error")

#: ``# repro: ignore[RPR001]`` or ``# repro: ignore[RPR001,RPR005] why``.
#: The bracket list is mandatory — a blanket un-coded suppression would
#: silently cover rules added later, which is exactly the rot this
#: subsystem exists to prevent.
SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9,\s]+)\]")

_CODE_RE = re.compile(r"^RPR\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    severity: str = "error"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict:
        return asdict(self)

    def render(self) -> str:
        """The one-line human form: ``path:line:col: RPR001 message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class FileContext:
    """Everything a rule may inspect about one source file.

    ``rel`` is the file's *logical* path — the path from the ``repro``
    package root spelled ``repro/runner/queue.py`` — which is what rule
    scopes match against. It is derived from the real path, so fixture
    files in a test's ``tmp/src/repro/...`` mirror scope exactly like
    the installed tree.
    """

    def __init__(self, path: str | Path, text: str, tree: ast.Module) -> None:
        self.path = Path(path)
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        self.rel = logical_path(self.path)

    def finding(
        self,
        code: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> Finding:
        return Finding(
            code=code,
            message=message,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=severity,
        )

    def suppressed_codes(self, line: int) -> set[str]:
        """Codes suppressed at ``line`` (1-based): own or preceding line."""
        codes: set[str] = set()
        for index in (line - 1, line - 2):  # the line itself, then above
            if 0 <= index < len(self.lines):
                for match in SUPPRESS_RE.finditer(self.lines[index]):
                    codes.update(
                        c.strip() for c in match.group(1).split(",") if c.strip()
                    )
        return codes


@runtime_checkable
class Rule(Protocol):
    """The contract every ``CHECK_RULES`` entry implements.

    Attributes:
        code: stable identifier (``RPR###``) used in output, ``--rule``
            selection and suppression comments.
        name: short kebab-case label for the catalog.
        severity: one of :data:`SEVERITIES`.
        description: one-line statement of the invariant.
        rationale: why the invariant exists (rendered in the docs
            catalog and ``repro check --list``).
    """

    code: str
    name: str
    severity: str
    description: str
    rationale: str

    def check(self, ctx: FileContext) -> Iterable[Finding]: ...


#: The rule registry, mirroring MECHANISMS/ENGINES: keys
#: are rule codes, values are Rule instances. Register at import time of
#: :mod:`repro.check.rules` so every consumer sees the same pack.
CHECK_RULES = Registry("check rule")


def register_rule(rule_cls: type) -> type:
    """Class decorator: instantiate and register a rule by its code."""
    rule = rule_cls()
    if not _CODE_RE.match(rule.code):
        raise ValueError(f"rule code {rule.code!r} must match RPR###")
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule.code} severity {rule.severity!r} not in {SEVERITIES}"
        )
    CHECK_RULES.register(rule.code, rule)
    return rule_cls


def logical_path(path: Path) -> str:
    """The path from the ``repro`` package root, posix-style.

    ``/any/prefix/src/repro/runner/queue.py -> repro/runner/queue.py``;
    a path with no ``repro`` component falls back to its filename, which
    matches no package-scoped rule.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def call_name(node: ast.AST) -> str:
    """Dotted name of a call target: ``json.dump``, ``open``, ``x.write``.

    Attribute chains rooted at an arbitrary expression render the
    *attribute* path only (``spam().write_text`` -> ``.write_text``), so
    rules can match method names without resolving receiver types.
    """
    if isinstance(node, ast.Call):
        node = node.func
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return "." + ".".join(reversed(parts)) if parts else ""
