"""The BENCH_*.json envelope: one builder, one validator, and the
``benchmarks/validate_payload.py`` CLI over it."""

import importlib.util
import json
import pathlib

import pytest

from repro.utils.bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    validate_bench_payload,
)

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


class TestBuilder:
    def test_structured_payload_renders_its_table(self):
        payload = bench_payload(
            "demo", title="Demo", columns=("a", "b"), rows=[(1, "x")], meta={"k": 1}
        )
        assert payload == {
            "bench": "demo",
            "schema_version": BENCH_SCHEMA_VERSION,
            "structured": True,
            "columns": ["a", "b"],
            "rows": [[1, "x"]],
            "text": payload["text"],
            "meta": {"k": 1},
        }
        assert payload["text"].startswith("Demo\n") and payload["text"].endswith("\n")
        validate_bench_payload(payload)

    @pytest.mark.parametrize("text", ["one line", "one line\n"])
    def test_text_ends_with_exactly_its_own_newline(self, text):
        payload = bench_payload("plain", text=text)
        assert payload["text"] == "one line\n"
        assert payload["structured"] is False
        assert "columns" not in payload and "meta" not in payload
        validate_bench_payload(payload)

    def test_columns_and_rows_travel_together(self):
        with pytest.raises(ValueError, match="columns and rows together"):
            bench_payload("half", text="t", columns=["a"])

    def test_rows_without_columns_rejected(self):
        with pytest.raises(ValueError, match="columns and rows together"):
            bench_payload("half", text="t", rows=[[1]])

    def test_empty_meta_is_left_out(self):
        assert "meta" not in bench_payload("plain", text="t", meta={})


class TestValidator:
    @pytest.mark.parametrize(
        "break_it, needle",
        [
            (lambda p: p.pop("bench"), "missing required key 'bench'"),
            (lambda p: p.__setitem__("bench", ""), "non-empty string"),
            (lambda p: p.__setitem__("meta", []), "'meta' must be a dict"),
            (lambda p: p.__setitem__("columns", []), "non-empty str 'columns'"),
            (lambda p: p.__setitem__("rows", None), "needs a 'rows' list"),
            (lambda p: p.pop("schema_version"), "missing required key 'schema_version'"),
            (lambda p: p.pop("structured"), "missing required key 'structured'"),
            (lambda p: p.__setitem__("bench", 7), "'bench' must be a non-empty string"),
            (lambda p: p.__setitem__("schema_version", 2), "schema_version 2 != 1"),
            (lambda p: p.__setitem__("schema_version", "1"), "schema_version '1' != 1"),
            (lambda p: p.pop("text"), "'text' must be a string"),
            (lambda p: p.__setitem__("text", ["a"]), "payload 'text' must be a string"),
            (lambda p: p.__setitem__("columns", ["a", 1]), "needs a non-empty str 'columns'"),
            (lambda p: p.__setitem__("columns", "a"), "non-empty str 'columns' list"),
            (lambda p: p.__setitem__("rows", [[1, 2]]), "row 0 has 2 cells, expected 1"),
            (lambda p: p.__setitem__("rows", [[1], (2,)]), "row 1 has no cells, expected 1"),
            (lambda p: p.__setitem__("rows", [[{"k": 1}]]), "row 0 contains non-scalar cell"),
            (lambda p: p.__setitem__("rows", [[[1]]]), r"non-scalar cell \[1\] \(list\)"),
        ],
    )
    def test_violations_raise_value_error(self, break_it, needle):
        payload = bench_payload("demo", columns=["a"], rows=[[1]], meta={"k": 1})
        break_it(payload)
        with pytest.raises(ValueError, match=needle):
            validate_bench_payload(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            validate_bench_payload([1, 2])

    def test_every_json_scalar_is_a_cell_and_survives_the_disk(self):
        payload = bench_payload(
            "scalars", columns=list("sifbn"), rows=[["x", 1, 1.5, True, None]]
        )
        assert validate_bench_payload(payload) is payload
        on_disk = json.loads(json.dumps(payload, sort_keys=True))
        assert validate_bench_payload(on_disk) == payload

    def test_structured_payload_may_have_no_rows(self):
        validate_bench_payload(bench_payload("empty", columns=["a"], rows=[]))


def _validate_cli():
    """``benchmarks/validate_payload.py`` as a module (it is a script)."""
    path = REPO / "benchmarks" / "validate_payload.py"
    spec = importlib.util.spec_from_file_location("validate_payload", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestValidatePayloadCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload, sort_keys=True))
        return path

    def test_no_arguments_is_usage_exit_2(self, capsys):
        assert _validate_cli().main([]) == 2
        assert capsys.readouterr().err.startswith("usage: validate_payload.py")

    def test_structured_payload_prints_its_meta(self, tmp_path, capsys):
        path = self._write(
            tmp_path, "BENCH_demo.json",
            bench_payload("demo", columns=["a"], rows=[[1]], meta={"k": 1}),
        )
        assert _validate_cli().main([str(path)]) == 0
        assert capsys.readouterr().out == f"ok: {path} (demo) {{'k': 1}}\n"

    def test_every_file_gets_one_line_in_order(self, tmp_path, capsys):
        paths = [
            self._write(tmp_path, f"BENCH_{name}.json", bench_payload(name, text="t"))
            for name in ("b", "a")
        ]
        assert _validate_cli().main([str(p) for p in paths]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"ok: {paths[0]} (b) None", f"ok: {paths[1]} (a) None"]

    def test_a_broken_file_raises_the_violation(self, tmp_path):
        payload = bench_payload("demo", text="t")
        payload["schema_version"] = 2
        path = self._write(tmp_path, "BENCH_demo.json", payload)
        with pytest.raises(ValueError, match="schema_version 2 != 1"):
            _validate_cli().main([str(path)])

    def test_a_non_mapping_file_is_rejected(self, tmp_path):
        path = self._write(tmp_path, "BENCH_list.json", [1, 2])
        with pytest.raises(ValueError, match="must be a mapping"):
            _validate_cli().main([str(path)])

    def test_cli_json_output_passes(self, tmp_path, capsys):
        # The CI smoke jobs feed it `python -m repro ... --json` output.
        from repro.api.cli import main

        config = REPO / "examples" / "configs" / "smoke.json"
        assert main(["run", "--config", str(config), "--json"]) == 0
        path = tmp_path / "smoke_payload.json"
        path.write_text(capsys.readouterr().out)
        assert _validate_cli().main([str(path)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: {path} (")
