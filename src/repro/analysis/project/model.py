"""The project model: every module of the linted paths parsed and indexed once.

:func:`build_project` is the only code that reads and parses files.  It
walks the given paths (files, package directories or plain directories),
names each module from its ``__init__.py`` chain, parses it, and builds
per-module symbol tables (functions, classes with methods, module globals
classified by mutability/kind), the ``# repro: noqa`` map, and an
import-alias map that resolves *relative* imports against the module's
package.  A file that cannot be read or parsed becomes an
E001/E000 finding instead of a module.  The model is purely syntactic —
nothing is imported or executed — and its construction is deterministic:
modules are keyed and iterated in sorted dotted-name order regardless of
file discovery order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..findings import Finding
from ..paths import repo_relative
from ..visitor import collect_noqa, dotted_name

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "GlobalInfo",
    "ModuleInfo",
    "ProjectModel",
    "ResolvedSymbol",
    "build_project",
    "iter_python_files",
    "module_aliases",
]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})

# Calls at module scope producing these are containers: worker-side
# mutation of one is a cross-process divergence hazard (G6xx).
_CONTAINER_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.deque",
        "collections.Counter",
    }
)

# RNG constructors; a module global bound to one is flagged by R503.
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "random.Random",
        "random.SystemRandom",
    }
)


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # e.g. repro.runner.executor._execute_one
    module: str  # dotted module name
    name: str  # bare name
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False)
    params: tuple[str, ...]
    class_name: str | None = None  # bare enclosing class name, if a method
    parent: str | None = None  # qualname of the enclosing function, if nested

    def own_nodes(self) -> Iterator[ast.AST]:
        """Nodes of this function's own body, not of nested defs (which are
        functions in their own right); nested class bodies are included
        because they run when this function does."""
        stack: list[ast.AST] = list(self.node.body)
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                child for child in ast.iter_child_nodes(node)
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            )

    def global_rebinds(self) -> list[tuple[ast.stmt, str]]:
        """(assignment, name) for each ``global``-declared name it rebinds."""
        own = list(self.own_nodes())
        declared = {n for node in own if isinstance(node, ast.Global)
                    for n in node.names}
        out: list[tuple[ast.stmt, str]] = []
        for node in own:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            out.extend(
                (node, t.id) for t in targets
                if isinstance(t, ast.Name) and t.id in declared
            )
        return out


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: its methods, bases, and instance-attr types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef = field(repr=False)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    bases: tuple[str, ...] = ()  # source-level dotted base names
    # instance attribute -> source-level dotted class name, harvested from
    # ``self.attr = ClassName(...)`` assignments in methods (one level).
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class GlobalInfo:
    """One module-level binding, classified for the shared-state rules."""

    qualname: str  # module.NAME
    module: str
    name: str
    kind: str  # "container" | "rng" | "constant" | "other"
    lineno: int
    col: int


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one module."""

    name: str  # dotted module name
    relpath: str  # repo-relative POSIX path used in reports
    tree: ast.Module = field(repr=False)
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    globals: dict[str, GlobalInfo] = field(default_factory=dict)
    # ``# repro: noqa`` suppressions, 1-based line -> rule ids (None = all).
    noqa: dict[int, "frozenset[str] | None"] = field(default_factory=dict)

    @property
    def scope_node(self) -> str:
        """Call-graph node name standing for this module's import-time body."""
        return f"{self.name}.<module>"

    def resolve(self, expr: ast.expr) -> str | None:
        """Import-aware dotted name: ``np.random.default_rng`` with
        ``import numpy as np`` resolves to ``numpy.random.default_rng``."""
        raw = dotted_name(expr)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        resolved_head = self.aliases.get(head, head)
        return f"{resolved_head}.{rest}" if rest else resolved_head


@dataclass(frozen=True)
class ResolvedSymbol:
    """The project-local resolution of a dotted source name."""

    kind: str  # "function" | "class" | "global" | "module"
    qualname: str
    module: str  # defining module


def _import_base(node: ast.ImportFrom, package: str) -> str | None:
    """The absolute module a ``from ... import`` names, or None when a
    relative import climbs out of the linted packages."""
    if not node.level:
        return node.module or ""
    parts = package.split(".") if package else []
    climb = node.level - 1
    if climb >= len(parts):
        return None
    anchor = parts[: len(parts) - climb]
    return ".".join([*anchor, node.module] if node.module else anchor)


def module_aliases(tree: ast.Module, package: str) -> dict[str, str]:
    """Local name -> dotted target, resolving relative imports.

    ``from .cache import ResultCache`` inside ``repro.runner.executor``
    maps ``ResultCache -> repro.runner.cache.ResultCache``.  Imports
    anywhere in the module count (several modules import lazily inside
    functions).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                target = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, package)
            if base is None:
                continue
            for item in node.names:
                if item.name == "*":
                    continue
                target = f"{base}.{item.name}" if base else item.name
                aliases[item.asname or item.name] = target
    return aliases


def _classify_global(value: ast.expr | None, module: ModuleInfo) -> str:
    """Container / rng / constant / other, from the assigned expression."""
    if value is None:
        return "other"
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return "container"
    if isinstance(value, ast.Constant) or (
        isinstance(value, (ast.Tuple, ast.UnaryOp, ast.BinOp))
    ):
        return "constant"
    if isinstance(value, ast.Call):
        resolved = module.resolve(value.func)
        if resolved in _CONTAINER_FACTORIES:
            return "container"
        if resolved in RNG_CONSTRUCTORS:
            return "rng"
        if resolved == "frozenset" or dotted_name(value.func) == "frozenset":
            return "constant"
    return "other"


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    a = node.args
    names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return tuple(names)


def _scope_stmts(body: Iterable[ast.stmt]) -> Iterable[ast.stmt]:
    """Statements of one scope, descending through compound statements
    (``if``/``for``/``try``/``with``) but not into nested def/class bodies
    — a ``def`` inside a ``try:`` is still a local of the enclosing scope.
    """
    for node in body:
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from _scope_stmts([child])
            elif isinstance(child, ast.excepthandler):
                yield from _scope_stmts(child.body)


def _harvest_functions(
    module: ModuleInfo,
    body: Iterable[ast.stmt],
    prefix: str,
    class_name: str | None,
    parent: str | None,
) -> None:
    """Register functions/classes under ``prefix`` (recursing into both)."""
    for node in _scope_stmts(body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{node.name}"
            info = FunctionInfo(
                qualname=qualname,
                module=module.name,
                name=node.name,
                node=node,
                params=_function_params(node),
                class_name=class_name,
                parent=parent,
            )
            module.functions[_local_key(qualname, module.name)] = info
            # Nested defs resolve through the parent's local scope.
            _harvest_functions(
                module, node.body, f"{qualname}.<locals>", None, qualname
            )
        elif isinstance(node, ast.ClassDef):
            class_qual = f"{prefix}.{node.name}"
            bases = tuple(
                b for b in (dotted_name(base) for base in node.bases)
                if b is not None
            )
            cls = ClassInfo(
                qualname=class_qual,
                module=module.name,
                name=node.name,
                node=node,
                bases=bases,
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    meth_qual = f"{class_qual}.{item.name}"
                    info = FunctionInfo(
                        qualname=meth_qual,
                        module=module.name,
                        name=item.name,
                        node=item,
                        params=_function_params(item),
                        class_name=node.name,
                        parent=None,
                    )
                    cls.methods[item.name] = info
                    module.functions[_local_key(meth_qual, module.name)] = info
                    _harvest_functions(
                        module, item.body, f"{meth_qual}.<locals>",
                        None, meth_qual,
                    )
            _harvest_attr_types(cls)
            if class_name is None and parent is None:
                module.classes[node.name] = cls


def _harvest_attr_types(cls: ClassInfo) -> None:
    """``self.attr = ClassName(...)`` assignments -> instance attr types."""
    for meth in cls.methods.values():
        for node in ast.walk(meth.node):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            ctor = dotted_name(node.value.func)
            if ctor is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.attr_types.setdefault(target.attr, ctor)


def _local_key(qualname: str, module_name: str) -> str:
    """Module-local lookup key: the qualname minus the module prefix."""
    return qualname[len(module_name) + 1 :]


def _harvest_globals(module: ModuleInfo) -> None:
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        kind = _classify_global(value, module)
        for target in targets:
            if isinstance(target, ast.Name):
                module.globals[target.id] = GlobalInfo(
                    qualname=f"{module.name}.{target.id}",
                    module=module.name,
                    name=target.id,
                    kind=kind,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                )


@dataclass
class ProjectModel:
    """All modules of the linted paths, plus resolution helpers."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    # Files that could not be read or parsed: relpath -> E001/E000 finding.
    errors: dict[str, Finding] = field(default_factory=dict)

    def add_source(
        self, name: str, relpath: str, source: str, is_package: bool = False
    ) -> None:
        """Parse one module's source and index it (or record E000)."""
        try:
            tree = ast.parse(source, filename=relpath)
        except (SyntaxError, ValueError) as err:
            self.errors[relpath] = Finding(
                path=relpath,
                line=getattr(err, "lineno", None) or 1,
                col=(getattr(err, "offset", None) or 0) + 1,
                rule="E000",
                message=f"syntax error: {getattr(err, 'msg', err)}",
                severity="error",
            )
            return
        package = name if is_package else name.rpartition(".")[0]
        module = ModuleInfo(
            name=name,
            relpath=relpath,
            tree=tree,
            aliases=module_aliases(tree, package),
            noqa=collect_noqa(source.splitlines()),
        )
        _harvest_functions(module, tree.body, name, None, None)
        _harvest_globals(module)
        self.modules[name] = module

    # -- resolution ---------------------------------------------------------

    def module_for(self, dotted: str) -> tuple[ModuleInfo | None, str]:
        """Longest project-module prefix of ``dotted`` and the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            name = ".".join(parts[:cut])
            if name in self.modules:
                return self.modules[name], ".".join(parts[cut:])
        return None, dotted

    def resolve(
        self, module: ModuleInfo, dotted: str, _depth: int = 0
    ) -> ResolvedSymbol | None:
        """Resolve a source-level dotted name to a project symbol.

        Follows the module's import aliases, then chases re-exports
        (``from .registry import register`` in a package ``__init__``)
        up to a small depth so names imported via package facades resolve
        to their defining module.
        """
        if _depth > 8 or not dotted:
            return None
        head, _, rest = dotted.partition(".")
        target = module.aliases.get(head)
        if target is None:
            # A name defined in this module itself.
            resolved = self._lookup_in(module, dotted)
            if resolved is not None:
                return resolved
            if head in self.modules and rest:
                owner = self.modules[head]
                return self._lookup_in(owner, rest) or ResolvedSymbol(
                    "module", owner.name, owner.name
                )
            return None
        full = f"{target}.{rest}" if rest else target
        owner, remainder = self.module_for(full)
        if owner is None:
            return None
        if not remainder:
            return ResolvedSymbol("module", owner.name, owner.name)
        hit = self._lookup_in(owner, remainder)
        if hit is not None:
            return hit
        # Re-export chase: the owner may alias the first remainder segment.
        if remainder.partition(".")[0] in owner.aliases:
            return self.resolve(owner, remainder, _depth=_depth + 1)
        return None

    def _lookup_in(self, module: ModuleInfo, local: str) -> ResolvedSymbol | None:
        """Look a module-local dotted path up in one module's tables."""
        if local in module.functions:
            return ResolvedSymbol(
                "function", module.functions[local].qualname, module.name
            )
        seg, _, tail = local.partition(".")
        if seg in module.classes:
            cls = module.classes[seg]
            if not tail:
                return ResolvedSymbol("class", cls.qualname, module.name)
            if tail in cls.methods:
                return ResolvedSymbol(
                    "function", cls.methods[tail].qualname, module.name
                )
            return None
        if seg in module.globals and not tail:
            return ResolvedSymbol(
                "global", module.globals[seg].qualname, module.name
            )
        return None

    def function_by_qualname(self, qualname: str) -> FunctionInfo | None:
        owner, remainder = self.module_for(qualname)
        if owner is None or not remainder:
            return None
        return owner.functions.get(remainder)

    def class_by_qualname(self, qualname: str) -> ClassInfo | None:
        owner, remainder = self.module_for(qualname)
        if owner is None:
            return None
        return owner.classes.get(remainder)

    def global_by_qualname(self, qualname: str) -> GlobalInfo | None:
        owner, remainder = self.module_for(qualname)
        if owner is None:
            return None
        return owner.globals.get(remainder)

    def sorted_modules(self) -> list[ModuleInfo]:
        return [self.modules[name] for name in sorted(self.modules)]


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    found: set[Path] = set()
    for path in map(Path, paths):
        path = path.resolve()
        if path.is_dir():
            found.update(
                sub for sub in path.rglob("*.py")
                if _SKIP_DIRS.isdisjoint(sub.relative_to(path).parts)
            )
        elif path.suffix == ".py" and path.exists():
            found.add(path)
    return sorted(found)


def _module_name(py_file: Path) -> tuple[str, bool]:
    """Dotted name from the file's ``__init__.py`` chain; flags packages.

    A file outside any package is a top-level module named by its stem.
    """
    is_package = py_file.name == "__init__.py"
    parts = [] if is_package else [py_file.stem]
    directory = py_file.parent
    while (directory / "__init__.py").exists():
        parts.insert(0, directory.name)
        directory = directory.parent
    return ".".join(parts), is_package


def build_project(paths: Path | str | Iterable[Path | str]) -> ProjectModel:
    """Read and parse every ``.py`` under ``paths`` into a :class:`ProjectModel`.

    Construction order is the sorted file list, so two builds over the
    same files are identical regardless of how they were discovered.  Two
    files claiming one dotted name (loose scripts in different
    directories) keep it for the first and key the rest by their path.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    model = ProjectModel()
    for py_file in iter_python_files(paths):
        name, is_package = _module_name(py_file)
        relpath = repo_relative(py_file)
        if name in model.modules:
            name = relpath.removesuffix(".py")
        try:
            source = py_file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            model.errors[relpath] = Finding(
                path=relpath, line=1, col=1, rule="E001",
                message=f"unreadable file: {err}", severity="error",
            )
            continue
        model.add_source(name, relpath, source, is_package)
    return model
