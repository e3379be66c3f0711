"""The BENCH_*.json envelope: one builder, one validator."""

import pytest

from repro.utils.bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    validate_bench_payload,
)


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


class TestValidator:
    @pytest.mark.parametrize(
        "break_it, needle",
        [
            (lambda p: p.pop("bench"), "missing required key 'bench'"),
            (lambda p: p.__setitem__("bench", ""), "non-empty string"),
            (lambda p: p.__setitem__("meta", []), "'meta' must be a dict"),
            (lambda p: p.__setitem__("columns", []), "non-empty str 'columns'"),
            (lambda p: p.__setitem__("rows", None), "needs a 'rows' list"),
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
