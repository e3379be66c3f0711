"""benchmarks/check_regression.py: the one gate over the five committed baselines.

Table-driven: every committed ``results/BENCH_<bench>.json`` passes
against itself; every **hard** row of the gates table fails (exit 1,
row named) on a copy of the baseline with the one value it reads
flipped; advisory rows only ``note:``; and nothing is gated before the
envelope schema and the required-meta check pass.
"""

import copy
import json

import pytest
from check_regression import ADVISORY, GATES, HARD, RESULTS, assert_gates, main


def baseline(bench: str) -> dict:
    return json.loads((RESULTS / f"BENCH_{bench}.json").read_text())


def gate(tmp_path, capsys, bench: str, current: dict, base: dict) -> tuple[int, str]:
    """Exit code and stdout of the CLI over two payload files."""
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "cur.json").write_text(json.dumps(current))
    code = main([bench, "--baseline", str(tmp_path / "base.json"),
                 "--current", str(tmp_path / "cur.json")])
    return code, capsys.readouterr().out


def set_cell(payload: dict, key_column: str, key, column: str, value) -> None:
    columns = payload["columns"]
    for row in payload["rows"]:
        if row[columns.index(key_column)] == key:
            row[columns.index(column)] = value


def flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def meta(key, value):
    return lambda cur, base: cur["meta"].__setitem__(key, value)


def exec_drifted(cur, base):
    base["meta"].update(cpu_count=8, sweep_speedup_jobs4=3.0)
    cur["meta"].update(cpu_count=8, sweep_speedup_jobs4=1.6)  # clears the 1.5x floor


def scheme_digest_flipped(cur, base):
    cur["meta"]["digests"]["mstopk"] = flip(cur["meta"]["digests"]["mstopk"])


def policy_digest_flipped(cur, base):
    digests = cur["meta"]["policy_drill"]["digests"]
    digests["spread"] = flip(digests["spread"])


def brain_digest_flipped(cur, base):
    pair = cur["meta"]["digests"]["health-migrate"]
    pair["brain"] = flip(pair["brain"])


#: (bench, hard row, mutation of (current, baseline) copies that must fail it).
HARD_CASES = [
    ("exec_scaling", "parallel sweep parity", meta("parity_ok", False)),
    ("exec_scaling", "jobs=4 sweep speedup floor", meta("cpu_count", 4)),
    ("exec_scaling", "sweep speedup vs baseline", exec_drifted),
    ("trace_replay", "replay determinism", meta("determinism_ok", False)),
    ("trace_replay", "10k-job day wall clock", meta("seconds_10k", 61)),
    ("trace_replay", "10k-job throughput floor", meta("jobs_per_sec_10k", 99.0)),
    ("fault_drills", "drill determinism", meta("deterministic", False)),
    ("fault_drills", "per-scheme fault-log digests", scheme_digest_flipped),
    ("fault_drills", "per-scheme fault-log digests",
     lambda cur, base: cur["meta"]["digests"].pop("dense")),
    ("fault_drills", "storm recovery",
     lambda cur, base: set_cell(cur, "scheme", "topk", "recovered", 6)),
    ("fault_drills", "storm recovery",
     lambda cur, base: set_cell(cur, "scheme", "topk", "corrupt_checkpoints", 0)),
    ("fault_drills", "goodput floor under the storm",
     lambda cur, base: set_cell(cur, "scheme", "dense", "goodput_ratio", 0.01)),
    ("fault_drills", "fault-aware beats fault-blind",
     lambda cur, base: set_cell(
         cur["meta"]["policy_drill"], "policy", "fault-aware", "storm_goodput", 0.1)),
    ("fault_drills", "fault-aware beats fault-blind",
     lambda cur, base: set_cell(
         cur["meta"]["policy_drill"], "policy", "spread", "quarantines", 0)),
    ("fault_drills", "per-policy gray-storm digests", policy_digest_flipped),
    ("brain", "drill determinism", meta("deterministic", False)),
    ("brain", "per-brain decision/fault-log digests", brain_digest_flipped),
    ("brain", "health-migrate beats static",
     lambda cur, base: set_cell(cur, "brain", "health-migrate", "storm_goodput", 1.0)),
    ("brain", "health-migrate beats static",
     lambda cur, base: set_cell(cur, "brain", "health-migrate", "fairness", 0.5)),
    ("brain", "health-migrate migrated",
     lambda cur, base: set_cell(cur, "brain", "health-migrate", "migrations", 0)),
    ("serve", "kill-anywhere recovery",
     lambda cur, base: set_cell(cur, "point", "tick:2", "lost_acked", 1)),
    ("serve", "kill-anywhere recovery", meta("lost_acked_total", 1)),
    ("serve", "kill-anywhere recovery",
     lambda cur, base: set_cell(cur, "point", "append:3", "payload_match", False)),
    ("serve", "reference determinism", meta("deterministic", False)),
    ("serve", "reference payload digest", meta("reference_digest", "0" * 16)),
    ("serve", "worst-case recovery ceiling", meta("max_recovery_s", 2.5)),
]


def baseline_doubled(column):
    def mutate(cur, base):
        index = base["columns"].index(column)
        for row in base["rows"]:
            row[index] *= 2

    return mutate


#: (bench, advisory row, mutation that trips it — and nothing hard).
ADVISORY_CASES = [
    ("trace_replay", "jobs/s vs baseline", meta("jobs_per_sec_10k", 300.0)),
    ("fault_drills", "goodput ratio vs baseline", baseline_doubled("goodput_ratio")),
    ("brain", "goodput ratio vs baseline", baseline_doubled("goodput_ratio")),
    ("serve", "recovery time vs baseline",
     lambda cur, base: cur["meta"].__setitem__(
         "max_recovery_s", 20 * cur["meta"]["max_recovery_s"])),
]


class TestVerdicts:
    @pytest.mark.parametrize("bench", sorted(GATES))
    def test_committed_baseline_passes_against_itself(self, bench, capsys):
        assert main([bench, "--current", str(RESULTS / f"BENCH_{bench}.json")]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and f"ok: {bench} within the gate" in out

    @pytest.mark.parametrize(
        "bench, label, mutate", HARD_CASES, ids=[f"{b}:{l}" for b, l, _ in HARD_CASES]
    )
    def test_hard_row_fails_on_its_flipped_input(
        self, bench, label, mutate, tmp_path, capsys
    ):
        cur, base = baseline(bench), baseline(bench)
        mutate(cur, base)
        code, out = gate(tmp_path, capsys, bench, cur, base)
        assert code == 1
        assert f"FAIL: {label}: " in out
        failed = [line for line in out.splitlines() if line.startswith("FAIL: ")]
        assert failed == [failed[0], f"FAIL: {bench} gate: {[label]}"], out

    @pytest.mark.parametrize(
        "bench, label, mutate", ADVISORY_CASES, ids=[c[0] for c in ADVISORY_CASES]
    )
    def test_advisory_row_only_notes(self, bench, label, mutate, tmp_path, capsys):
        cur, base = baseline(bench), baseline(bench)
        mutate(cur, base)
        code, out = gate(tmp_path, capsys, bench, cur, base)
        assert code == 0
        assert f"note: {label}: " in out and "FAIL" not in out

    def test_every_row_of_the_table_has_a_case(self):
        """A new gate row lands with its failing input, or this fails."""
        for level, cases in ((HARD, HARD_CASES), (ADVISORY, ADVISORY_CASES)):
            covered = {(bench, label) for bench, label, _ in cases}
            rows = {
                (bench, g.label)
                for bench, spec in GATES.items()
                for g in spec.gates
                if g.level == level
            }
            assert covered == rows, rows ^ covered

    def test_not_applicable_row_notes_without_failing(self, capsys):
        """The committed exec baseline is a 1-core recording: below the
        gate-cores bar the floor does not apply, pass or fail."""
        assert main(["exec_scaling",
                     "--current", str(RESULTS / "BENCH_exec_scaling.json")]) == 0
        assert "note: jobs=4 sweep speedup floor: only 1 usable core" in (
            capsys.readouterr().out
        )


class TestLoader:
    @pytest.mark.parametrize(
        "break_it, needle",
        [
            (lambda p: p.pop("text"), "'text' must be a string"),
            (lambda p: p.__setitem__("schema_version", 2), "schema_version 2 != 1"),
            (lambda p: p["rows"][0].pop(), "row 0 has"),
            (lambda p: p["rows"][0].__setitem__(0, {"nested": 1}), "non-scalar cell"),
        ],
    )
    def test_envelope_violation_rejected_before_any_gate(
        self, break_it, needle, tmp_path, capsys
    ):
        cur = baseline("serve")
        break_it(cur)
        with pytest.raises(SystemExit) as err:
            gate(tmp_path, capsys, "serve", cur, baseline("serve"))
        assert needle in str(err.value) and "\n" not in str(err.value)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("bench", sorted(GATES))
    def test_missing_required_meta_key_is_one_line(self, bench, tmp_path, capsys):
        cur = baseline(bench)
        dropped = GATES[bench].meta_keys[0]
        del cur["meta"][dropped]
        with pytest.raises(SystemExit) as err:
            gate(tmp_path, capsys, bench, cur, baseline(bench))
        assert f"lacks ['{dropped}']" in str(err.value)
        assert "\n" not in str(err.value)

    def test_unstructured_or_unreadable_payload_rejected(self, tmp_path, capsys):
        cur = baseline("brain")
        cur["structured"] = False
        with pytest.raises(SystemExit, match="not a brain payload"):
            gate(tmp_path, capsys, "brain", cur, baseline("brain"))
        with pytest.raises(SystemExit, match="missing.json"):
            main(["brain", "--current", str(tmp_path / "missing.json")])
        (tmp_path / "junk.json").write_text("{not json")
        with pytest.raises(SystemExit, match="junk.json"):
            main(["brain", "--current", str(tmp_path / "junk.json")])


class TestAssertGates:
    """The bench-test entry: same rows, in-memory payload."""

    def test_named_rows_pass_and_fail(self):
        payload = baseline("brain")
        assert_gates("brain", payload, "health-migrate beats static",
                     "health-migrate migrated")
        broken = copy.deepcopy(payload)
        set_cell(broken, "brain", "health-migrate", "migrations", 0)
        assert_gates("brain", broken, "health-migrate beats static")
        with pytest.raises(AssertionError, match="health-migrate migrated"):
            assert_gates("brain", broken, "health-migrate migrated")

    def test_unknown_row_name_fails_loudly(self):
        with pytest.raises(AssertionError, match="no such brain gate"):
            assert_gates("brain", baseline("brain"), "health-migrate wins")
