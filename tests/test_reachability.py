"""Every definition under ``src/repro`` — top-level, and each method
of a reached class — is reached from what the package ships.

**Roots** — the only things that make code reached:

1. the module-level statements of every ``src/repro`` module, except
   imports, ``__all__`` and a package's export table (registry
   decorators, CLI parser wiring, experiment tables,
   ``if __name__ == "__main__"``);
2. the names in ``repro.__all__``, which its export table lists;
3. every name a file under ``benchmarks/`` or ``examples/`` imports
   from ``repro``.

**Closure:** a top-level ``def`` / ``class`` is reached when a reached
body names it.  A body names what it loads as an ``ast.Name`` and does
not bind itself (an assignment target or a parameter is local, so a
same-named local reaches nothing), every attribute, and the string at
a by-name lookup site: the literal second argument of ``getattr``,
``hasattr`` or ``setattr`` (:data:`BY_NAME`).  No other string reaches
anything — a step name, a dict key or a registry alias is data — and
the gate infers no other site.  A ``def`` directly in the body of a
reached class is reached when a reached body names it, or any file
under ``benchmarks/`` or ``examples/`` does (by the same rule).  The
reached bodies are the top-level functions, the reached methods, and a
reached class's statements other than its methods: a class body does
not reach its own methods' bodies, so a method nothing calls reaches
nothing either.  The closure iterates to a fixpoint, because a
method's name can be reached before its class is.

**Fields:** an annotated field of a reached ``src/repro`` dataclass
must be read.  A read is an attribute load of its name in ``src/``,
``benchmarks/``, ``examples/`` or ``tests/``, or a by-name lookup site
spelling it; and every field of a dataclass is read when a
``src/repro`` module that calls ``dataclasses.asdict`` or
``dataclasses.fields`` (the config codec walks ``fields``) defines or
names the class, or names it in a field of such a class.  A read is
matched by the field's name, not by its class: a load of
``record.progress`` anywhere reads every field called ``progress``, so
a field with a common name can go unread unreported.  Test reads
count for fields, unlike for definitions: a definition only a test
calls can move into ``tests/`` as an oracle, but a field a test reads
cannot, and a counter a test asserts is checked behaviour.

Some definitions are roots themselves: one decorated by a project
definition (the decorator runs at import and may keep it, as the
registries do), and a dunder such as a module's ``__getattr__`` or a
class's ``__post_init__`` (the interpreter calls it).  What any
decorator names is reached, because decorators run at import.

Keys read ``repro/x.py::name``, ``repro/x.py::Class.method`` and
``repro/x.py::Class.field``.  A method or field of an unreached class is
not reported: the class is.  A
definition nothing reaches is deleted, or — when a test compares a live
path against it — moved into ``tests/`` as an oracle.  The only
exceptions are :data:`CLAIM_ANCHORED`: code that holds a paper claim in
a named tier-1 file until the paper scorecard reaches it.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections.abc import Iterable

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
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


#: The by-name lookup sites: a string literal as the second argument of
#: a call to one of these reaches the name it spells.  No other string
#: reaches anything, and the gate infers no other site.
BY_NAME = ("getattr", "hasattr", "setattr")

#: The ``dataclasses`` functions that read every field of what they are
#: given (the config codec walks ``fields``).
ENCODERS = ("asdict", "fields")


def by_name(node: ast.AST) -> str | None:
    """The name a by-name lookup site spells, if ``node`` is one."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in BY_NAME and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def names_in(node: ast.AST) -> set[str]:
    """Every name ``node`` mentions: a name it loads but does not bind
    (as an assignment target or a parameter), an attribute, or the
    string at a by-name lookup site."""
    bound = {sub.arg for sub in ast.walk(node) if isinstance(sub, ast.arg)}
    bound |= {sub.id for sub in ast.walk(node)
              if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)}
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Load) and sub.id not in bound:
                found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif (spelled := by_name(sub)) is not None:
            found.add(spelled)
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _decorators(node: ast.AST) -> set[str]:
    return set().union(*map(names_in, node.decorator_list))


def _fields(stmt: ast.ClassDef) -> dict[str, ast.expr]:
    """Each annotated field of a dataclass -> its annotation (none for
    another class, nor for a ``ClassVar`` / ``InitVar``)."""
    if "dataclass" not in _decorators(stmt):
        return {}
    return {sub.target.id: sub.annotation for sub in stmt.body
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
            and not {"ClassVar", "InitVar"} & names_in(sub.annotation)}


def _reads(tree: ast.AST) -> set[str]:
    """Every attribute ``tree`` loads, and every by-name lookup it makes."""
    return {sub.attr for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            } | {spelled for sub in ast.walk(tree) if (spelled := by_name(sub)) is not None}


def _encodes(tree: ast.Module) -> bool:
    """Whether the module reads dataclasses whole, through ``asdict`` or
    ``fields`` (which the config codec walks)."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                for alias in node.names if alias.name in ENCODERS}
    return any(
        isinstance(sub, ast.Call) and (
            (isinstance(sub.func, ast.Name) and sub.func.id in imported)
            or (isinstance(sub.func, ast.Attribute) and sub.func.attr in ENCODERS
                and isinstance(sub.func.value, ast.Name) and sub.func.value.id == "dataclasses"))
        for sub in ast.walk(tree)
    )


def unreached(src: pathlib.Path, consumers: Iterable[pathlib.Path],
              tests: Iterable[pathlib.Path] = ()) -> list[str]:
    """The key of every definition in the package at ``src`` that nothing
    reaches, and of every field of a reached dataclass that nothing reads;
    ``consumers`` are the directories whose files' imports from the
    package are roots, and whose every name can reach a method; the files
    under ``consumers`` and ``tests`` read fields as the package does."""
    package = src.name
    # (key, owning class or None, name, its decorators' names, what its
    # body names once it is reached)
    sites: list[tuple[str, str | None, str, set[str], set[str]]] = []
    roots: set[str] = set()
    data_classes: dict[str, tuple[str, dict[str, ast.expr]]] = {}  # name -> (key, fields)
    reads: set[str] = set()  # every field name an attribute load or by-name site reads
    encoded: set[str] = set()  # the names a module that encodes dataclasses mentions
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(src.parent).as_posix()
        reads |= _reads(tree)
        if _encodes(tree):
            encoded |= names_in(tree) | {stmt.name for stmt in tree.body
                                         if isinstance(stmt, ast.ClassDef)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                if fields := _fields(stmt):
                    data_classes[stmt.name] = (f"{rel}::{stmt.name}", fields)
                body = set().union(*map(names_in, stmt.bases + stmt.keywords))
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = f"{rel}::{stmt.name}.{sub.name}"
                        sites.append((key, stmt.name, sub.name, _decorators(sub), names_in(sub)))
                    else:
                        body |= names_in(sub)
                sites.append((f"{rel}::{stmt.name}", None, stmt.name, _decorators(stmt), body))
            elif isinstance(stmt, DEFINITION):
                key = f"{rel}::{stmt.name}"
                sites.append((key, None, stmt.name, _decorators(stmt), names_in(stmt)))
            elif _export_table(stmt) is not None:
                roots |= names_in(stmt.value.func)
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt)):
                roots |= names_in(stmt)
        if path == src / "__init__.py":
            roots |= _all_names(tree)
    project = {name for _, owner, name, _, _ in sites if owner is None}
    rooted = {key for key, _, name, decorators, _ in sites
              if decorators & project or _is_dunder(name)}
    roots |= set().union(*(decorators for _, _, _, decorators, _ in sites))
    roots |= {name for key, owner, name, _, _ in sites if owner is None and key in rooted}
    named_by_consumers: set[str] = set()
    for directory in consumers:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            named_by_consumers |= names_in(tree)
            reads |= _reads(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package:
                    roots |= {alias.name for alias in node.names}
    for directory in tests:
        for path in sorted(directory.rglob("*.py")):
            reads |= _reads(ast.parse(path.read_text(), filename=str(path)))

    reached = set(roots)  # every name a root or a reached body mentions
    live: set[str] = set()
    grew = True
    while grew:  # to the fixpoint: a method may be named before its class is
        grew = False
        for key, owner, name, _, body in sites:
            if key in live:
                continue
            if owner is None:
                hit = name in reached
            else:
                hit = owner in reached and (
                    key in rooted or name in reached or name in named_by_consumers
                )
            if hit:
                live.add(key)
                reached |= body
                grew = True
    # An encoded dataclass is read whole, and so is each one its fields name.
    whole = set()
    frontier = encoded & data_classes.keys()
    while frontier:
        whole |= frontier
        frontier = set().union(*(names_in(annotation) for name in frontier
                                 for annotation in data_classes[name][1].values()))
        frontier = (frontier & data_classes.keys()) - whole
    unread = [f"{key}.{field}" for name, (key, fields) in data_classes.items()
              if key in live and name not in whole for field in fields if field not in reads]
    return sorted([key for key, owner, _, _, _ in sites
                   if key not in live and (owner is None or owner in reached)] + unread)


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
    missing = unreached(src, [REPO / "benchmarks", REPO / "examples"], [REPO / "tests"])
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

    def test_methods_close_over_reached_bodies_to_a_fixpoint(self, tmp_path):
        pkg = tmp_path / "toy"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "registry.py").write_text("def register(fn):\n    return fn\n")
        (pkg / "core.py").write_text(
            "from toy.registry import register\n\n"
            "class Toy:\n"
            "    def live(self):\n"
            "        return self\n\n"
            "    def dead(self):\n"
            "        return self.only_from_dead()\n\n"
            "    def only_from_dead(self):\n"
            "        return 2\n\n"
            "    def late(self):\n"
            "        return 3\n\n"
            "    def __len__(self):\n"
            "        return 0\n\n"
            "    @register\n"
            "    def hooked(self):\n"
            "        return 4\n\n"
            "class Orphan:\n"
            "    def method(self):\n"
            "        return 5\n\n"
            "def run():\n"
            "    return build().late()\n\n"
            "def build():\n"
            "    return Toy().live()\n\n"
            "ENTRY = run\n"
        )
        # ``late`` is named (by ``run``) one step before ``Toy`` is reached
        # (through ``build``), and ``Toy`` comes first in the module, so
        # neither one pass over the definitions nor a frontier that visits
        # each name once reaches it.
        # A method of an unreached class is not reported: its class is.
        # ``live``, the dunder and the decorated ``hooked`` are reached.
        assert unreached(pkg, []) == [
            "toy/core.py::Orphan",
            "toy/core.py::Toy.dead",
            "toy/core.py::Toy.only_from_dead",
        ]
        # A name in a consumer's file reaches a method; its body then reaches on.
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text("def main(toy):\n    toy.dead()\n")
        assert unreached(pkg, [tmp_path / "examples"]) == ["toy/core.py::Orphan"]

    # One case per way a name once fooled the gate: each reports what
    # the looser rule (any ``Name``, any identifier-shaped string) called
    # reached.

    def test_a_name_the_body_binds_reaches_nothing(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "def shifted():\n    return 1\n\n"
            "def gather():\n    return 2\n\n"
            "def run(gather):\n"
            "    shifted = gather + 1\n"
            "    return shifted\n\n"
            "ENTRY = run\n"
        ))
        assert unreached(pkg, []) == ["toy/core.py::gather", "toy/core.py::shifted"]

    def test_a_step_name_string_reaches_nothing(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "def broadcast():\n    return 1\n\n"
            "def run():\n    return {'broadcast': 0.5}\n\n"
            "ENTRY = run\n"
        ))
        assert unreached(pkg, []) == ["toy/core.py::broadcast"]

    def test_a_policy_alias_reaches_nothing(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "POLICIES = {}\n\n"
            "def register(name, aliases=()):\n"
            "    def wrap(fn):\n"
            "        POLICIES[name] = fn\n"
            "        return fn\n"
            "    return wrap\n\n"
            "@register('spread', aliases=('scatter',))\n"
            "def spread():\n    return 1\n\n"
            "def scatter():\n    return 2\n"
        ))
        assert unreached(pkg, []) == ["toy/core.py::scatter"]

    @pytest.mark.parametrize("site", ["getattr(Toy(), 'hook')", "hasattr(Toy(), 'hook')",
                                      "setattr(Toy(), 'hook', None)"])
    def test_a_by_name_literal_reaches_and_another_string_does_not(self, tmp_path, site):
        pkg = _toy(tmp_path, core=(
            "class Toy:\n"
            "    def hook(self):\n        return 1\n\n"
            "    def other(self):\n        return 2\n\n"
            "LABEL = 'other'\n\n"
            f"def run():\n    return {site}\n\n"
            "ENTRY = run\n"
        ))
        assert unreached(pkg, []) == ["toy/core.py::Toy.other"]

    def test_a_field_nothing_reads_is_reported(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "from dataclasses import dataclass\n\n"
            "@dataclass\n"
            "class Report:\n"
            "    read: int\n"
            "    tested: int = 0\n"
            "    unread: int = 0\n\n"
            "def run():\n"
            "    report = Report(1, unread=3)\n"
            "    report.unread = 2\n"
            "    return report.read\n\n"
            "ENTRY = run\n"
        ))
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_toy.py").write_text(
            "def test_counts(report):\n    assert report.tested == 0\n"
        )
        # A test's read counts for a field; a store or a keyword does not.
        assert unreached(pkg, [], [tmp_path / "tests"]) == ["toy/core.py::Report.unread"]
        assert unreached(pkg, []) == ["toy/core.py::Report.tested", "toy/core.py::Report.unread"]

    def test_a_field_read_only_through_asdict_is_read(self, tmp_path):
        pkg = _toy(
            tmp_path,
            models=(
                "from dataclasses import dataclass\n\n"
                "@dataclass\nclass Inner:\n    x: int\n\n"
                "@dataclass\nclass Outer:\n    inner: Inner\n\n"
                "@dataclass\nclass Plain:\n    y: int\n"
            ),
            core=(
                "import dataclasses\n"
                "from toy.models import Outer\n\n"
                "def dump(outer: Outer):\n    return dataclasses.asdict(outer)\n\n"
                "ENTRY = dump\n"
            ),
            other="from toy.models import Plain\n\nPLAIN = Plain(2)\n",
        )
        # ``asdict`` reads every field of what its module names, and of
        # every dataclass those fields name; ``Plain`` it never sees.
        assert unreached(pkg, []) == ["toy/models.py::Plain.y"]


    def test_a_name_imported_inside_a_body_reaches(self, tmp_path):
        pkg = _toy(
            tmp_path,
            helpers="def helper():\n    return 1\n",
            core=(
                "def run():\n"
                "    from toy.helpers import helper\n"
                "    return helper()\n\n"
                "ENTRY = run\n"
            ),
        )
        assert unreached(pkg, []) == []

    def test_a_consumer_reaches_a_method_by_attribute_not_by_a_local(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "class Plan:\n"
            "    def kinds(self):\n        return []\n\n"
            "    def events(self):\n        return []\n"
        ))
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench.py").write_text(
            "from toy.core import Plan\n\n"
            "kinds = []\n"
            "print(kinds, {'kinds': kinds}, Plan().events())\n"
        )
        assert unreached(pkg, [tmp_path / "benchmarks"]) == ["toy/core.py::Plan.kinds"]

    def test_a_by_name_site_reads_a_field_and_a_classvar_is_no_field(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n\n"
            "@dataclass\n"
            "class Row:\n"
            "    KIND: ClassVar[str] = 'row'\n"
            "    looked_up: int = 0\n"
            "    unread: int = 0\n\n"
            "def run(row: Row):\n    return getattr(row, 'looked_up')\n\n"
            "ENTRY = run\n"
        ))
        assert unreached(pkg, []) == ["toy/core.py::Row.unread"]

    def test_a_module_that_walks_fields_reads_its_classes_whole(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "from dataclasses import dataclass, fields\n\n"
            "@dataclass\nclass Section:\n    knob: int = 0\n\n"
            "def dump(value):\n"
            "    return {f.name: getattr(value, f.name) for f in fields(value)}\n\n"
            "ENTRY = dump(Section())\n"
        ))
        assert unreached(pkg, []) == []

    def test_the_fields_of_an_unreached_class_are_not_reported(self, tmp_path):
        pkg = _toy(tmp_path, core=(
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Orphan:\n    unread: int = 0\n"
        ))
        assert unreached(pkg, []) == ["toy/core.py::Orphan"]

def _toy(tmp_path: pathlib.Path, **modules: str) -> pathlib.Path:
    """A package ``toy`` under ``tmp_path`` holding ``modules`` (name -> source)."""
    pkg = tmp_path / "toy"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in modules.items():
        (pkg / f"{name}.py").write_text(source)
    return pkg
