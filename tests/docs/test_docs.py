"""The docs suite stays true: pages exist, are linked, and every command runs.

The acceptance bar for ``docs/``: every command a page shows is
exercised — either executed right here through the CLI entry point, or
explicitly accounted for as a command CI/the test suite already runs
(the ``KNOWN_EXERCISED`` map).  A documented command nobody runs is a
doc bug, and this test makes it a failing one.
"""

import importlib
import pathlib
import re
import shlex

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
DOCS = REPO / "docs"
PAGES = ("architecture.md", "quickstart.md", "scenarios.md", "traces.md",
         "faults.md", "brain.md", "serve.md")

#: Documented commands this test does NOT execute, mapped to where they
#: are exercised instead.  Keep the rationale honest: if a command stops
#: being covered there, remove it here and cover it.
KNOWN_EXERCISED = {
    # The tier-1 suite itself (CI `test` job runs `python -m pytest tests -x -q`).
    "python -m pytest tests -x -q": "CI test job",
    # Part of the tier-1 suite (CI test job).
    "python -m pytest tests/sched/test_scheduler.py -q": "CI test job",
    # Editable install; CI uses PYTHONPATH=src instead (this repo has no
    # third-party build deps, so the install path is trivial).
    "python setup.py develop": "install step (CI uses PYTHONPATH=src)",
    # The 10k-job day replay (~2.5 s each) — the CI test job replays four
    # such days (faults + brain) through benchmarks/e2e's sched-replay
    # workload against their recorded digest.
    "python -m repro sched --trace /tmp/big_day.jsonl": (
        "CI test job (sched-replay at full scale)"
    ),
    "python -m repro sched --trace /tmp/big_day.jsonl --set "
    "'policies=[\"bin-pack\", \"spread\", \"network-aware\"]' --jobs 0": (
        "CI test job (sched-replay at full scale) + exec pool parity in "
        "tests/sched/test_traces.py"
    ),
    # Part of the tier-1 suite, and of CI faults-smoke's unit-test subset.
    "python -m pytest tests/faults/test_drill.py -q": "CI test + faults-smoke jobs",
    # The socket daemon blocks until stopped, so the live-submission
    # trio can't run inline; the exact transport round trip (daemon
    # thread + client submit/tick/status/stop) runs in
    # tests/serve/test_socket.py.
    "python -m repro serve --config examples/configs/serve_smoke.json "
    "--socket /tmp/repro.sock": "tests/serve/test_socket.py (daemon thread)",
    "python -m repro submit --socket /tmp/repro.sock --job "
    "'{\"name\": \"late-job\", \"profile\": \"resnet50\", \"iterations\": 200}'": (
        "tests/serve/test_socket.py (send_ops round trip)"
    ),
    "python -m repro submit --socket /tmp/repro.sock --op '{\"op\": \"tick\"}' "
    "--op '{\"op\": \"status\"}'": "tests/serve/test_socket.py (op stream)",
    # The SIGKILL-then-recover sequence needs a process that dies and a
    # second process sharing its state dir — the CI serve-smoke job runs
    # exactly these commands and byte-compares the recovered payload;
    # the in-process equivalent is tests/serve/test_recovery.py.
    "python -m repro serve --config examples/configs/serve_smoke.json "
    "--trace examples/traces/sample_day.jsonl --limit 12 "
    "--state-dir /tmp/serve-day --kill-at tick:2 --kill-mode sigkill": (
        "CI serve-smoke job (real SIGKILL + restart)"
    ),
    "python -m repro serve --config examples/configs/serve_smoke.json "
    "--trace examples/traces/sample_day.jsonl --limit 12 "
    "--state-dir /tmp/serve-day --kill-at snapshot:2 --kill-mode sigkill": (
        "CI serve-smoke job (real SIGKILL + restart)"
    ),
    "python -m repro serve --config examples/configs/serve_smoke.json "
    "--trace examples/traces/sample_day.jsonl --limit 12 "
    "--state-dir /tmp/serve-day --out /tmp/serve-day/payload.json": (
        "CI serve-smoke job (recovered-run byte compare)"
    ),
}

#: Non-python shell lines that may appear in fences (ignored).
IGNORED_PREFIXES = ("export ", "cd ", "pip ", "#")


def bash_commands(page: str) -> list[str]:
    """All command lines inside ```bash fences of one page."""
    text = (DOCS / page).read_text()
    commands: list[str] = []
    for block in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
        for line in block.splitlines():
            line = line.strip()
            if not line or line.startswith(IGNORED_PREFIXES):
                continue
            commands.append(line)
    return commands


ALL_COMMANDS = sorted({cmd for page in PAGES for cmd in bash_commands(page)})


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or attributes off its longest
    importable prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


class TestDocsExist:
    @pytest.mark.parametrize("page", PAGES)
    def test_page_exists_with_content(self, page):
        path = DOCS / page
        assert path.exists(), f"docs/{page} is missing"
        assert len(path.read_text()) > 500

    def test_readme_links_every_page(self):
        readme = (REPO / "README.md").read_text()
        for page in PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    def test_pages_cross_link(self):
        assert "architecture.md" in (DOCS / "quickstart.md").read_text()
        assert "quickstart.md" in (DOCS / "scenarios.md").read_text()
        assert "traces.md" in (DOCS / "scenarios.md").read_text()
        assert "scenarios.md" in (DOCS / "traces.md").read_text()
        assert "faults.md" in (DOCS / "scenarios.md").read_text()
        assert "scenarios.md" in (DOCS / "faults.md").read_text()
        assert "brain.md" in (DOCS / "scenarios.md").read_text()
        assert "brain.md" in (DOCS / "faults.md").read_text()
        assert "faults.md" in (DOCS / "brain.md").read_text()
        assert "scenarios.md" in (DOCS / "brain.md").read_text()
        assert "serve.md" in (DOCS / "scenarios.md").read_text()
        assert "faults.md" in (DOCS / "serve.md").read_text()
        assert "traces.md" in (DOCS / "serve.md").read_text()
        assert "serve.md" in (DOCS / "architecture.md").read_text()

    def test_architecture_has_mermaid_subsystem_map(self):
        text = (DOCS / "architecture.md").read_text()
        assert "```mermaid" in text
        for subsystem in ("repro.api", "repro.sched", "repro.elastic",
                          "repro.comm", "repro.cluster", "repro.perf",
                          "repro.faults", "repro.brain", "repro.serve"):
            assert subsystem in text, subsystem

    def test_docs_reference_only_existing_paths(self):
        """Every examples/... or src/... path a page mentions exists."""
        pattern = re.compile(r"(?:examples|src|benchmarks|results)/[\w./-]+")
        for page in PAGES:
            for ref in pattern.findall((DOCS / page).read_text()):
                ref = ref.rstrip(".")
                assert (REPO / ref).exists(), f"{page} references missing {ref}"

    @pytest.mark.parametrize("path", ["README.md", ".github/workflows/ci.yml"])
    def test_readme_and_ci_name_only_existing_files(self, path):
        """Every examples/, src/, benchmarks/ or tests/ path the README
        mentions or a CI step runs exists."""
        pattern = re.compile(r"(?:examples|src|benchmarks|tests)/[\w./-]+")
        refs = pattern.findall((REPO / path).read_text())
        assert refs
        for ref in refs:
            ref = ref.rstrip(".")
            assert (REPO / ref).exists(), f"{path} references missing {ref}"

    def test_docs_name_only_importable_code(self):
        """Every backticked ``repro.…`` dotted name in the README and the
        docs pages imports as a module or resolves as an attribute of one."""
        names = set()
        for path in [REPO / "README.md", *sorted(DOCS.glob("*.md"))]:
            for match in re.finditer(r"`(repro\.[\w.]+)[^`]*`", path.read_text()):
                names.add((path.name, match.group(1).rstrip(".")))
        assert len(names) >= 40, names
        unresolved = [f"{page}: {dotted}" for page, dotted in sorted(names) if not resolves(dotted)]
        assert not unresolved, unresolved

    def test_ci_runs_every_benchmark_script(self):
        """The inverse: every ``benchmarks/*.py`` outside ``e2e/`` is named
        by a CI step, so a script nothing runs fails here instead of
        rotting (a ``conftest.py`` runs with the files beside it)."""
        ci = (REPO / ".github/workflows/ci.yml").read_text()
        unrun = sorted(
            path.name
            for path in (REPO / "benchmarks").glob("*.py")
            if path.name != "conftest.py" and f"benchmarks/{path.name}" not in ci
        )
        assert not unrun, f"no CI step runs {unrun}"


class TestEveryDocumentedCommandRuns:
    def test_commands_were_collected(self):
        # The cookbook should be substantial: a docs change that drops
        # the fences (or renames the language tag) fails loudly.
        assert len(ALL_COMMANDS) >= 12, ALL_COMMANDS

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_documented_command_is_exercised(self, command, capsys, monkeypatch):
        if command in KNOWN_EXERCISED:
            return
        argv = shlex.split(command)
        assert argv[:3] == ["python", "-m", "repro"], (
            f"undocumented command shape {command!r}: execute it here or add "
            "it to KNOWN_EXERCISED with a justification"
        )
        from repro.api.cli import main

        monkeypatch.chdir(REPO)  # docs paths are repo-root relative
        assert main(argv[3:]) == 0, command
        out = capsys.readouterr().out
        assert out.strip(), f"{command!r} produced no output"


def test_registering_your_own_fault_example_runs():
    """docs/faults.md's plugin example is real: exec the fence, run a
    scheduler scenario naming the new fault, and check the three
    guarantees the page states (swept + logged, counted, a boundary)."""
    from repro.api.config import SchedConfig
    from repro.api.facade import run_sched
    from repro.faults.drill import gray_storm_config
    from repro.faults.registry import FAULTS

    section = (DOCS / "faults.md").read_text().split("## Registering your own fault")[1]
    (fence,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    try:
        exec(fence, {})
        data = gray_storm_config(["bin-pack"], storm=False).to_dict()
        data["faults"] = {"events": [
            {"kind": "thermal-throttle", "at": 100, "duration": 50, "stretch": 4.0, "node": 0}
        ]}
        (report,) = run_sched(SchedConfig.from_dict(data)).values()
    finally:
        FAULTS._entries.pop("thermal-throttle", None)
    log = report.fault_log
    assert (log["injected"], log["recovered"], log["absorbed"]) == (1, 1, 0)
    assert [(e["phase"], e["t"]) for e in log["entries"]] == [
        ("inject", 100.0), ("detect", 100.0), ("recover", 150.0)
    ]
    assert {(e["kind"], e["fault_id"], e["target"]) for e in log["entries"]} == {
        ("thermal-throttle", 0, "sched")
    }
    assert log["entries"][2]["detail"] == {"action": "compute speed restored", "node": 0}
