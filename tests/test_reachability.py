"""Every top-level definition under ``src/repro`` is reached from what
the package ships.

**Roots** — the only things that make code reached:

1. the module-level statements of every ``src/repro`` module, except
   imports, ``__all__`` and a package's export table (registry
   decorators, CLI parser wiring, experiment tables,
   ``if __name__ == "__main__"``);
2. the names in ``repro.__all__``, which its export table lists;
3. every name a file under ``benchmarks/`` or ``examples/`` imports
   from ``repro``.

**Closure:** a top-level ``def`` / ``class`` is reached when a reached
body names it — as an ``ast.Name``, an attribute, or an
identifier-shaped string constant (so ``getattr`` and registry-by-name
lookups count).  Two kinds of definition are roots themselves: one
decorated by a project definition (the decorator runs at import and may
keep it, as the registries do) and a module-level dunder such as
``__getattr__`` (the interpreter calls it).  Methods of reached classes
are out of scope.

A definition nothing reaches is deleted, or — when a test compares a
live path against it — moved into ``tests/`` as an oracle.  The only
exceptions are :data:`CLAIM_ANCHORED`: code that holds a paper claim in
a named tier-1 file until the paper scorecard reaches it.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections.abc import Iterable

REPO = pathlib.Path(__file__).resolve().parent.parent
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Unreached code kept because a tier-1 file holds a paper claim against
#: it: ``"<module path>"`` or ``"<module path>::<name>"`` (relative to
#: ``src/``) -> (the claim, the tier-1 file that imports it).  An entry
#: fails once anything reaches it, or once its file stops importing it.
CLAIM_ANCHORED = {
    "repro/perf/efficiency.py": (
        "§1: ~40x more GPU throughput than the 2016 baseline at ~31 % "
        "scaling efficiency",
        "tests/perf/test_efficiency.py",
    ),
    "repro/perf/timeline.py": (
        "the simulator witness for the Table 3-fitted "
        "Calibration.dense_overlap_fraction",
        "tests/perf/test_timeline.py",
    ),
    "repro/cluster/variability.py::expected_slowdown": (
        "the straggler ablation: per-node jitter stretches a flat scheme's "
        "step more with more nodes and more jitter",
        "tests/cluster/test_variability.py",
    ),
}


def names_in(node: ast.AST) -> set[str]:
    """Every name ``node`` mentions: names, attributes, identifier strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and IDENTIFIER.match(sub.value)):
            found.add(sub.value)
    return found


def _is_all(stmt: ast.stmt) -> bool:
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _export_table(stmt: ast.stmt) -> ast.Dict | None:
    """The table of ``__getattr__, __all__ = lazy_exports(__name__, {...})``.

    It names what the package exports, as the import list it replaced
    did, so — like that list — it is no root.
    """
    value = getattr(stmt, "value", None)
    if isinstance(value, ast.Call) and names_in(value.func) == {"lazy_exports"}:
        return value.args[1]
    return None


def _all_names(tree: ast.Module) -> set[str]:
    names = set()
    for stmt in tree.body:
        table = _export_table(stmt)
        if table is not None:
            names |= {elt.value for listed in table.values for elt in listed.elts}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _is_all(stmt):
            names |= {elt.value for elt in stmt.value.elts}
    return names


def unreached(src: pathlib.Path, consumers: Iterable[pathlib.Path]) -> list[str]:
    """``"<module path>::<name>"`` for every definition in the package at
    ``src`` that nothing reaches; ``consumers`` are the directories whose
    files' imports from the package are roots."""
    package = src.name
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    decorated: list[tuple[str, set[str]]] = []
    roots: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(src.parent).as_posix()
        for stmt in tree.body:
            if isinstance(stmt, DEFINITION):
                definitions.setdefault(stmt.name, []).append((rel, stmt))
                decorators = set().union(*map(names_in, stmt.decorator_list))
                roots |= decorators
                decorated.append((stmt.name, decorators))
                if stmt.name.startswith("__") and stmt.name.endswith("__"):
                    roots.add(stmt.name)
            elif _export_table(stmt) is not None:
                roots |= names_in(stmt.value.func)
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt)):
                roots |= names_in(stmt)
        if path == src / "__init__.py":
            roots |= _all_names(tree)
    roots |= {name for name, decorators in decorated if decorators & definitions.keys()}
    for directory in consumers:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
                    roots |= {alias.name for alias in node.names}

    reached: set[str] = set()
    frontier = roots
    while frontier:
        reached |= frontier
        frontier = set().union(*(
            names_in(node) for name in frontier for _, node in definitions.get(name, ())
        )) - reached
    return sorted(
        f"{rel}::{name}"
        for name, sites in definitions.items() if name not in reached
        for rel, _ in sites
    )


def claim_anchor_problems(missing: list[str], anchored: dict, repo: pathlib.Path,
                          src_root: pathlib.Path) -> tuple[list[str], list[str]]:
    """Split ``missing`` into what no anchor covers, and the anchors that
    fail: reached (they cover nothing, or something reached lives in an
    anchored module) or not imported by their test file."""
    uncovered = [key for key in missing
                 if key not in anchored and key.split("::")[0] not in anchored]
    broken = []
    for key, (_, test_file) in anchored.items():
        module_path, _, name = key.partition("::")
        if name:
            reached = key not in missing
        else:
            tree = ast.parse((src_root / module_path).read_text())
            reached = any(f"{module_path}::{stmt.name}" not in missing
                          for stmt in tree.body if isinstance(stmt, DEFINITION))
        if reached:
            broken.append(f"{key} is reached: drop it from CLAIM_ANCHORED")
        module = module_path.removesuffix(".py").replace("/", ".")
        imports = [alias.name for node in ast.walk(ast.parse((repo / test_file).read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module == module
                   for alias in node.names]
        if not imports or (name and name not in imports):
            broken.append(f"{key}: {test_file} does not import it")
    return uncovered, broken


def test_every_src_definition_is_reached():
    src = REPO / "src" / "repro"
    missing = unreached(src, [REPO / "benchmarks", REPO / "examples"])
    uncovered, broken = claim_anchor_problems(missing, CLAIM_ANCHORED, REPO, src.parent)
    files = {key.split("::")[0] for key in missing}
    assert not uncovered, (
        f"{len(missing)} definitions in {len(files)} files are reached by nothing "
        f"shipped, {len(uncovered)} of them not claim-anchored — delete those, or "
        "move oracles into tests/:\n  "
        + "\n  ".join(key + ("" if key in uncovered else "  (claim-anchored)")
                       for key in missing)
    )
    assert not broken, "\n".join(broken)
    assert len(CLAIM_ANCHORED) <= 3


def test_src_imports_nothing_from_tests():
    importing = re.compile(r"^\s*(from|import)\s+tests\b", re.MULTILINE)
    offenders = [str(path) for path in sorted((REPO / "src").rglob("*.py"))
                 if importing.search(path.read_text())]
    assert not offenders, offenders


class TestTheCheckerItself:
    def test_reports_exactly_the_unreached_and_the_unimported_anchor(self, tmp_path):
        pkg = tmp_path / "src" / "toy"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text(
            "from toy.core import exported\n__all__ = ['exported']\n"
        )
        (pkg / "registry.py").write_text(
            "ENTRIES = {}\n\n"
            "def register(name):\n"
            "    def wrap(obj):\n"
            "        ENTRIES[name] = obj\n"
            "        return obj\n"
            "    return wrap\n"
        )
        (pkg / "core.py").write_text(
            "from toy.registry import register\n\n"
            "@register('fast')\n"
            "class Registered:\n"
            "    pass\n\n"
            "def exported():\n"
            "    return 1\n\n"
            "def orphan():\n"
            "    return 2\n\n"
            "def anchored():\n"
            "    return 3\n"
        )
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_claim.py").write_text("import toy\n")
        anchors = {"toy/core.py::anchored": ("a claim", "tests/test_claim.py")}

        missing = unreached(pkg, [])
        assert missing == ["toy/core.py::anchored", "toy/core.py::orphan"]
        uncovered, broken = claim_anchor_problems(missing, anchors, tmp_path, pkg.parent)
        assert uncovered == ["toy/core.py::orphan"]
        assert broken == ["toy/core.py::anchored: tests/test_claim.py does not import it"]

        # Importing it from its module is what keeps an anchor; reaching it retires it.
        (tmp_path / "tests" / "test_claim.py").write_text("from toy.core import anchored\n")
        assert claim_anchor_problems(missing, anchors, tmp_path, pkg.parent)[1] == []
        (pkg / "__init__.py").write_text(
            "from toy.core import exported\n__all__ = ['exported', 'anchored']\n"
        )
        missing = unreached(pkg, [])
        assert claim_anchor_problems(missing, anchors, tmp_path, pkg.parent)[1] == [
            "toy/core.py::anchored is reached: drop it from CLAIM_ANCHORED"
        ]

    def test_an_export_table_roots_only_the_top_level_names(self, tmp_path):
        pkg = tmp_path / "toy"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "lazy.py").write_text("def lazy_exports(package, table):\n    return None, list(table)\n")
        (pkg / "__init__.py").write_text(
            "from toy.lazy import lazy_exports\n\n"
            "__getattr__, __all__ = lazy_exports(__name__, {'toy.sub.core': ['exported']})\n"
        )
        (pkg / "sub" / "__init__.py").write_text(
            "from toy.lazy import lazy_exports\n\n"
            "__getattr__, __all__ = lazy_exports(__name__, {'toy.sub.core': ['exported', 'orphan']})\n"
        )
        (pkg / "sub" / "core.py").write_text("def exported():\n    pass\n\ndef orphan():\n    pass\n")
        # The subpackage's table reaches nothing; the helper it calls is reached.
        assert unreached(pkg, []) == ["toy/sub/core.py::orphan"]
