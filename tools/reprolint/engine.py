"""Core machinery of reprolint: file contexts, rule protocol, project scan.

The engine is deliberately dependency-free (stdlib ``ast`` + ``tokenize``):
it must run in every environment the test suite runs in, including minimal
CI containers without the lint/typecheck toolchain installed.

Key pieces:

* :class:`FileContext` — one parsed source file plus everything rules need:
  the AST, repo-relative path, per-line disable directives, and the names the
  module binds to ``numpy``/``math`` (so aliased imports don't dodge rules).
* :class:`ProjectContext` — whole-scan state: the intra-``repro`` import
  graph and the *trace closure*, i.e. every module transitively imported by
  the trace-hash-pinned drivers (see :data:`TRACE_DRIVER_MODULES`).  Rules
  that guard determinism scope themselves with it.
* :func:`run_paths` — discovery + dispatch; returns sorted violations.

Suppression: a violation on line *N* is suppressed when line *N* carries a
``# reprolint: disable=CODE[,CODE...] [-- reason]`` comment naming its code
(or ``all``).  Disables are per-line by design — blanket per-file opt-outs
would defeat the point of machine-checking the invariants.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "FileContext",
    "ProjectContext",
    "Rule",
    "LintError",
    "TRACE_DRIVER_MODULES",
    "collect_files",
    "build_file_context",
    "run_paths",
]

#: Modules whose outputs are pinned by ``classification_trace_hash``
#: equivalence tests.  Everything they (transitively) import must stay
#: deterministic; the determinism rule (RL005) applies to that closure.
TRACE_DRIVER_MODULES = (
    "repro.core.classifier",
    "repro.core.driver",
    "repro.core.flat",
    "repro.stream.anytime",
)

#: Directory names never descended into during discovery.  ``fixtures`` keeps
#: the golden lint fixtures (which contain violations on purpose) out of the
#: production scan; passing a fixture tree as an explicit root still works.
SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "fixtures", ".mypy_cache", ".ruff_cache"}

_DISABLE_RE = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]+?)(?:\s*--\s*(?P<reason>.*))?\s*$"
)


class LintError(RuntimeError):
    """Raised for unusable inputs (unreadable or syntactically invalid files)."""


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit: a location, an error code and a human-readable message."""

    relpath: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col}: {self.code} {self.message}"


#: Path anchors used to normalise rule scopes: rules match against the path
#: suffix starting at the first anchor, so ``fixtures/case7/src/repro/x.py``
#: scopes exactly like the real ``src/repro/x.py``.
_SCOPE_ANCHORS = ("src", "tests", "benchmarks", "examples", "tools", "docs")


def scope_of(relpath: str) -> str:
    """Scope path of a file: its suffix from the first known anchor directory."""
    parts = Path(relpath).parts
    indexes = [parts.index(anchor) for anchor in _SCOPE_ANCHORS if anchor in parts]
    if not indexes:
        return relpath.replace("\\", "/")
    return "/".join(parts[min(indexes) :])


@dataclass
class FileContext:
    """A parsed source file plus the per-file facts every rule consumes."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    #: line number -> set of disabled codes ("ALL" disables everything).
    disables: Dict[int, Set[str]] = field(default_factory=dict)
    #: local names bound to the numpy module (e.g. {"np", "numpy"}).
    numpy_aliases: Set[str] = field(default_factory=set)
    #: local names bound to the math module.
    math_aliases: Set[str] = field(default_factory=set)
    #: local name -> "module.attr" for from-imports (e.g. exp -> "numpy.exp").
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: dotted module name when the file lives under a ``src/`` root.
    module: Optional[str] = None

    @property
    def scoped(self) -> str:
        """Anchor-normalised path rules scope against (see :func:`scope_of`)."""
        return scope_of(self.relpath)

    def is_suppressed(self, violation: Violation) -> bool:
        codes = self.disables.get(violation.line, set())
        return "ALL" in codes or violation.code in codes


class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`code` / :attr:`name`, document the invariant in
    their class docstring (surfaced by ``--explain``), scope themselves via
    :meth:`applies_to` and report findings from :meth:`check`.
    """

    code: str = "RL000"
    name: str = "abstract-rule"

    def applies_to(self, relpath: str, project: "ProjectContext") -> bool:
        """Whether the rule runs on this file; receives the *scoped* path."""
        raise NotImplementedError

    def check(self, ctx: FileContext, project: "ProjectContext") -> List[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            relpath=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def _parse_disables(source: str) -> Dict[int, Set[str]]:
    """Map line numbers to the rule codes disabled on that line."""
    disables: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _DISABLE_RE.search(token.string)
            if match is None:
                continue
            codes = {
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            }
            disables.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenizeError:  # pragma: no cover - parse already succeeded
        pass
    return disables


def _module_name(relpath: str) -> Optional[str]:
    """Dotted module name for files under a ``src/`` root, else None."""
    parts = Path(relpath).parts
    if "src" not in parts:
        return None
    src_index = parts.index("src")
    module_parts = list(parts[src_index + 1 :])
    if not module_parts or not module_parts[-1].endswith(".py"):
        return None
    module_parts[-1] = module_parts[-1][: -len(".py")]
    if module_parts[-1] == "__init__":
        module_parts.pop()
    if not module_parts:
        return None
    return ".".join(module_parts)


def _collect_import_facts(ctx: FileContext) -> None:
    """Populate numpy/math aliases and the from-import origin table."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    ctx.numpy_aliases.add(bound)
                elif alias.name == "math":
                    ctx.math_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                bound = alias.asname or alias.name
                ctx.from_imports[bound] = f"{node.module}.{alias.name}"


def build_file_context(path: Path, relpath: str) -> FileContext:
    """Parse one file into a :class:`FileContext` (raises LintError on failure)."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    ctx = FileContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        disables=_parse_disables(source),
        module=_module_name(relpath),
    )
    _collect_import_facts(ctx)
    return ctx


def _resolve_relative(package: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted target of a relative import made inside ``package``.

    ``package`` is the importing module's package: the module itself for a
    package ``__init__.py``, its parent for any other module.  Level 1 is
    that package; each further level strips one more component.
    """
    package_parts = package.split(".") if package else []
    if len(package_parts) < node.level:
        return None
    base = package_parts[: len(package_parts) - node.level + 1]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _module_imports(ctx: FileContext) -> Set[str]:
    """All intra-``repro`` modules this file references (absolute or relative)."""
    assert ctx.module is not None
    found: Set[str] = set()
    is_package = Path(ctx.relpath).name == "__init__.py"
    package = ctx.module if is_package else ctx.module.rpartition(".")[0]

    def note(target: Optional[str], names: Sequence[ast.alias] = ()) -> None:
        if not target or not target.split(".")[0] == "repro":
            return
        found.add(target)
        # ``from repro.persist import snapshot`` imports a *submodule*; record
        # both candidates — non-modules are simply absent from the graph.
        for alias in names:
            found.add(f"{target}.{alias.name}")

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                note(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                note(node.module, node.names)
            else:
                note(_resolve_relative(package, node), node.names)
    return found


@dataclass
class ProjectContext:
    """Whole-scan state shared by all rules."""

    #: dotted module name -> FileContext for files under a ``src/`` root.
    modules: Dict[str, FileContext] = field(default_factory=dict)
    #: modules transitively imported by the trace-pinned drivers.
    trace_closure: Set[str] = field(default_factory=set)

    def finalise(self) -> None:
        """Compute the trace closure once every module has been registered."""
        graph: Dict[str, Set[str]] = {
            name: _module_imports(ctx) for name, ctx in self.modules.items()
        }
        pending = [root for root in TRACE_DRIVER_MODULES if root in graph]
        closure: Set[str] = set()
        while pending:
            current = pending.pop()
            if current in closure:
                continue
            closure.add(current)
            for target in graph.get(current, ()):  # imports of known modules only
                if target in graph and target not in closure:
                    pending.append(target)
                # ``import repro.core.flat`` also marks package __init__ chain.
        self.trace_closure = closure

    def in_trace_closure(self, module: Optional[str]) -> bool:
        return module is not None and module in self.trace_closure


def collect_files(roots: Sequence[Path]) -> List[Tuple[Path, str]]:
    """Expand the given roots into (path, repo-relative path) pairs.

    Directories are walked recursively, skipping :data:`SKIP_DIRS` entries;
    explicitly named files are always included (which is how the fixture
    tests point reprolint at files living inside a skipped directory).
    """
    pairs: List[Tuple[Path, str]] = []
    seen: Set[Path] = set()

    def add(path: Path, rel: str) -> None:
        resolved = path.resolve()
        if resolved in seen:
            return
        seen.add(resolved)
        pairs.append((path, rel.replace("\\", "/")))

    for root in roots:
        if root.is_file():
            add(root, str(root))
        elif root.is_dir():
            prefix = Path(root.name) if root.name not in ("", ".", "..") else None
            for path in sorted(root.rglob("*.py")):
                relative = path.relative_to(root)
                if any(part in SKIP_DIRS for part in relative.parts[:-1]):
                    continue
                rel = str(prefix / relative) if prefix is not None else str(relative)
                add(path, rel)
        else:
            raise LintError(f"no such file or directory: {root}")
    return pairs


def run_paths(
    roots: Sequence[Path], rules: Iterable[Rule]
) -> Tuple[List[Violation], int]:
    """Lint every file under ``roots``; returns (violations, files scanned)."""
    pairs = collect_files(roots)
    contexts: List[FileContext] = []
    project = ProjectContext()
    for path, relpath in pairs:
        ctx = build_file_context(path, relpath)
        contexts.append(ctx)
        if ctx.module is not None:
            project.modules[ctx.module] = ctx
    project.finalise()

    violations: List[Violation] = []
    for ctx in contexts:
        for rule in rules:
            if not rule.applies_to(ctx.scoped, project):
                continue
            for violation in rule.check(ctx, project):
                if not ctx.is_suppressed(violation):
                    violations.append(violation)
    return sorted(violations), len(contexts)
