"""Kill-anywhere recovery: journal replay, snapshot fallback, drills."""

import json
import pathlib

import pytest

from repro.api.config import ServeConfig
from repro.serve.daemon import ServeRuntime, SimulatedCrash, parse_kill_spec
from repro.serve.drill import DEFAULT_POINTS, RecoveryDrill, ops_from_script
from repro.serve.journal import canonical_json, scan_journal

CONFIG = ServeConfig.from_dict(
    {
        "name": "drill",
        "seed": 7,
        "cluster": {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 2},
        "policy": "bin-pack",
        "snapshot_every": 3,
    }
)

OPS = [
    {"op": "submit", "id": 1, "job": {"name": "a", "iterations": 150, "max_nodes": 3}},
    {"op": "submit", "id": 2, "job": {"name": "b", "profile": "vgg19",
                                      "iterations": 80, "arrival_seconds": 10.0}},
    {"op": "tick", "id": 3, "until": 30.0},
    {"op": "submit", "id": 4, "job": {"name": "c", "iterations": 120,
                                      "arrival_seconds": 35.0, "priority": 1}},
    {"op": "tick", "id": 5, "until": 60.0},
    {"op": "drain", "id": 6},
]


def run_ops(runtime, ops):
    acks = []
    for op in ops:
        ack = runtime.handle(op)
        assert ack.get("ok"), ack
        acks.append(ack)
    return acks


class TestKillSpec:
    def test_parses_point_and_count(self):
        assert parse_kill_spec("tick:2") == ("tick", 2)
        assert parse_kill_spec("snapshot:1") == ("snapshot", 1)
        assert parse_kill_spec("append:3") == ("append", 3)

    @pytest.mark.parametrize("spec", ["tick", "tick:0", "tick:x", "reboot:1", ""])
    def test_rejects_junk(self, spec):
        with pytest.raises(ValueError, match="bad kill point"):
            parse_kill_spec(spec)


class TestRestart:
    def test_clean_restart_replays_to_the_same_digest(self, tmp_path):
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS)
        digest = runtime.engine.state_digest()
        payload = runtime.finalize()
        runtime.close()

        again = ServeRuntime(CONFIG, tmp_path)
        assert again.recovery["recovered"]
        assert again.engine.state_digest() == digest
        assert again.finalize() == payload
        again.close()

    def test_a_tick_far_ahead_returns_and_a_restart_on_it_recovers(self, tmp_path):
        """The brain catches up a skipped stretch in O(1): a tick to 1e12
        (1.7e9 intervals of 600 s) or to 1e20 (where ``now + 600 == now``)
        returns, and the restart that replays it from the journal does too."""
        config = ServeConfig.from_file(TestCommittedDayOps.EXAMPLES / "configs" / "serve_smoke.json")
        ops = [
            {"op": "submit", "id": 1, "job": {"name": "a", "iterations": 150}},
            {"op": "tick", "id": 2, "until": 1200},
            {"op": "tick", "id": 3, "until": 1e12},
            {"op": "tick", "id": 4, "until": 1e20},
        ]
        runtime = ServeRuntime(config, tmp_path)
        run_ops(runtime, ops)
        assert runtime.engine.core.now == 1e20
        digest = runtime.engine.state_digest()
        runtime.close()

        again = ServeRuntime(config, tmp_path)
        assert again.recovery["recovered"]
        assert again.engine.state_digest() == digest
        again.close()

    def test_an_op_nested_too_deep_to_journal_is_rejected_unjournaled(self, tmp_path):
        # Such an op decodes from a socket line just under the decode
        # limit; the journal's encoder, a few calls deeper, used to raise
        # ``RecursionError`` and end the daemon.
        deep = []
        for _ in range(5_000):
            deep = [deep]
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS[:1])
        with pytest.raises(ValueError, match="nested too deeply"):
            runtime.handle({"op": "submit", "id": 2, "job": {"name": "b", "tags": deep}})
        run_ops(runtime, OPS[1:3])  # the rejected op consumed no id
        digest = runtime.engine.state_digest()
        runtime.close()

        again = ServeRuntime(CONFIG, tmp_path)
        assert again.engine.state_digest() == digest
        again.close()

    def test_hostile_submit_is_rejected_not_a_poison_pill(self, tmp_path):
        # A wrong-typed nested value used to escape apply_op as an
        # AttributeError *after* the WAL append, so every restart from
        # this state dir re-crashed replaying it.
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS[:1])
        before = runtime.engine.rejected
        ack = runtime.handle(
            {"op": "submit", "id": 2, "job": {"name": "b", "payload": {"model": 3}}}
        )
        assert ack == {
            "ok": False, "id": 2, "error": "job.payload.model must be str, got 3",
        }
        # The rejection consumed its id; the daemon keeps serving.
        assert runtime.handle(OPS[1])["duplicate"]
        run_ops(runtime, OPS[2:3])
        assert runtime.engine.rejected == before + 1
        assert "b" not in runtime.engine.records
        digest = runtime.engine.state_digest()
        runtime.close()

        again = ServeRuntime(CONFIG, tmp_path)
        assert again.recovery["recovered"]
        assert again.engine.state_digest() == digest
        assert again.engine.rejected == before + 1
        assert "b" not in again.engine.records
        again.close()

    @pytest.mark.parametrize(
        "until", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_non_finite_tick_is_rejected_not_a_poison_pill(self, tmp_path, until):
        # A NaN bound is journaled, then never reached: the tick used to
        # raise at its event cap, and so did every replay of the state
        # dir.  An infinite one was acked and moved the clock to inf.
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS[:1])
        ack = runtime.handle({"op": "tick", "id": 2, "until": until})
        assert ack["ok"] is False and "must be finite" in ack["error"]
        assert runtime.engine.rejected == 1
        assert runtime.engine.now == 0.0
        digest = runtime.engine.state_digest()
        runtime.close()

        again = ServeRuntime(CONFIG, tmp_path)
        assert again.recovery["recovered"]
        assert again.engine.state_digest() == digest
        assert again.engine.rejected == 1
        # ... and it keeps serving: the rest of the stream (past b, whose
        # id the tick took) applies and drains a and c.
        *_, drained = run_ops(again, OPS[2:])
        assert drained["done"] == 2
        again.close()

    def test_restart_dedups_resent_ops(self, tmp_path):
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS)
        runtime.close()
        again = ServeRuntime(CONFIG, tmp_path)
        for op in OPS:  # the whole stream again, at-least-once style
            ack = again.handle(op)
            assert ack == {"ok": True, "id": op["id"], "duplicate": True}
        again.close()

    def test_recovered_note_lands_in_the_journal(self, tmp_path):
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS[:3])
        runtime.close()
        again = ServeRuntime(CONFIG, tmp_path)
        again.close()
        notes = [
            r for r in scan_journal(tmp_path / "journal.bin").records
            if r.get("kind") == "note" and r.get("event") == "recovered"
        ]
        assert len(notes) == 1
        assert notes[0]["digest"] == again.engine.state_digest()

    # RPSNAP01: before the RPSNAP02 layout bump.  RPSNAP04: the last
    # layout whose pickled fault driver kept its windows in private
    # fields instead of a FaultWindows ledger.
    @pytest.mark.parametrize("old_magic", [b"RPSNAP01", b"RPSNAP04"])
    def test_old_format_snapshots_fall_back_to_full_journal_replay(
        self, tmp_path, old_magic
    ):
        from repro.serve.snapshot import SLOT_NAMES, SNAPSHOT_MAGIC

        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS)  # snapshot_every=3: both slots get written
        digest = runtime.engine.state_digest()
        runtime.close()
        # What a daemon of an older layout left behind: intact files
        # whose magic this build no longer accepts.
        for name in SLOT_NAMES:
            slot = tmp_path / name
            data = slot.read_bytes()
            assert data.startswith(SNAPSHOT_MAGIC) and SNAPSHOT_MAGIC != old_magic
            slot.write_bytes(old_magic + data[len(SNAPSHOT_MAGIC):])
        recovered = ServeRuntime(CONFIG, tmp_path)
        assert recovered.recovery["corrupt_snapshots"] == 2
        assert recovered.recovery["snapshot_slot"] is None
        assert recovered.recovery["replayed"] == len(OPS)  # from genesis
        assert recovered.engine.state_digest() == digest
        recovered.close()

    @staticmethod
    def _rewrite_audits(state_dir, edit):
        """Re-journal the state dir with ``edit`` applied to each audit."""
        from repro.serve.journal import Journal

        path = state_dir / "journal.bin"
        records = scan_journal(path).records
        for record in records:
            if record.get("kind") == "audit":
                edit(record)
        path.unlink()
        with Journal(path) as journal:
            for record in records:
                journal.append(record)

    @pytest.mark.parametrize(
        "field, forged", [("link", "0" * 16), ("ack", {"ok": True, "id": 1})]
    )
    def test_tampered_audit_fails_replay_loudly(self, tmp_path, field, forged):
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS[:2])  # below snapshot_every: replay from genesis
        runtime.close()
        # One audit field falsified: replay must refuse rather than
        # silently diverge, at the op the audit belongs to.
        self._rewrite_audits(
            tmp_path, lambda r: r.update({field: forged}) if r["of"] == 1 else None
        )
        with pytest.raises(RuntimeError, match=f"replay diverged at seq 1: {field}"):
            ServeRuntime(CONFIG, tmp_path)

    def test_full_digest_audits_of_older_builds_are_ack_checked_only(self, tmp_path):
        runtime = ServeRuntime(CONFIG, tmp_path)
        run_ops(runtime, OPS[:2])
        digest = runtime.engine.state_digest()
        runtime.close()

        def downgrade(record):  # what a pre-witness build journaled
            del record["link"]
            record["digest"] = "f" * 16

        self._rewrite_audits(tmp_path, downgrade)
        again = ServeRuntime(CONFIG, tmp_path)
        assert again.recovery["replayed"] == 2
        assert again.engine.state_digest() == digest
        again.close()
        # ... but their acks still are.
        self._rewrite_audits(tmp_path, lambda r: r.update(ack={"ok": False}))
        with pytest.raises(RuntimeError, match="replay diverged at seq 1: ack"):
            ServeRuntime(CONFIG, tmp_path)

    def test_state_divergence_fails_at_the_op_that_accrues_it(
        self, tmp_path, monkeypatch
    ):
        from repro.sched.scheduler import MultiTenantScheduler

        config = ServeConfig.from_dict({**CONFIG.to_dict(), "snapshot_every": 100})
        runtime = ServeRuntime(config, tmp_path)
        acks = run_ops(runtime, OPS[:5])
        runtime.close()
        # Input frames take the odd seqs (audits the even ones): the
        # first tick — the first op to accrue any progress — is seq 5.
        assert acks[2]["completed"] == []

        real = MultiTenantScheduler.iteration_seconds

        def slower_a(self, spec, **kwargs):  # one running job's rate, perturbed
            return real(self, spec, **kwargs) * (1.001 if spec.name == "a" else 1.0)

        monkeypatch.setattr(MultiTenantScheduler, "iteration_seconds", slower_a)
        # Same ack (nothing completes either way), different state: the
        # chained witness catches it at that tick, not a snapshot later.
        with pytest.raises(RuntimeError, match="replay diverged at seq 5: link"):
            ServeRuntime(config, tmp_path)

    def test_witness_audits_of_older_builds_are_ack_checked_only(
        self, tmp_path, monkeypatch
    ):
        """Older builds journaled a ``witness`` whose submit links hashed
        every running job, which this build cannot recompute.  Such a
        state dir recovers on its acks, and the links this build appends
        after it verify whether recovery starts from the older build's
        snapshot or, once no slot loads, from genesis."""
        from repro.serve.engine import ServeEngine
        from repro.serve.snapshot import SLOT_NAMES, SNAPSHOT_MAGIC
        from repro.utils.eventlog import digest16

        # The older build: the same ops on a chain this build never
        # computes, audited as "witness", snapshotted after op 3.
        real_apply = ServeEngine.apply_op

        def older_apply(engine, op, seq=None):
            ack = real_apply(engine, op, seq)
            engine.witness = digest16(["older", engine.witness])
            return ack

        with monkeypatch.context() as patch:
            patch.setattr(ServeEngine, "apply_op", older_apply)
            runtime = ServeRuntime(CONFIG, tmp_path)  # snapshot_every=3
            run_ops(runtime, OPS[:4])
            runtime.close()
        self._rewrite_audits(tmp_path, lambda r: r.update(witness=r.pop("link")))
        legacy = [
            r["witness"] for r in scan_journal(tmp_path / "journal.bin").records
            if r.get("kind") == "audit"
        ]
        # This build: recover from the older snapshot, then append links.
        again = ServeRuntime(CONFIG, tmp_path)
        assert again.recovery["snapshot_slot"] is not None
        assert again.recovery["replayed"] == 1
        assert again.engine.witness == legacy[-1]
        run_ops(again, OPS[4:])
        digest, witness = again.engine.state_digest(), again.engine.witness
        again.close()
        # A later layout bump: no slot loads, so replay from genesis
        # meets the same chain at every link this build journaled.
        for slot in (tmp_path / name for name in SLOT_NAMES):
            if slot.exists():
                slot.write_bytes(b"RPSNAP04" + slot.read_bytes()[len(SNAPSHOT_MAGIC):])
        third = ServeRuntime(CONFIG, tmp_path)
        assert third.recovery["replayed"] == len(OPS)
        assert (third.engine.state_digest(), third.engine.witness) == (digest, witness)
        third.close()
        # ... and a forged link among them still fails at its own op.
        seq = max(r["of"] for r in scan_journal(tmp_path / "journal.bin").records
                  if "link" in r)
        self._rewrite_audits(
            tmp_path, lambda r: r.update(link="0" * 16) if r["of"] == seq else None
        )
        with pytest.raises(RuntimeError, match=f"replay diverged at seq {seq}: link"):
            ServeRuntime(CONFIG, tmp_path)


class TestKillPoints:
    def _crash_at(self, tmp_path, point):
        runtime = ServeRuntime(CONFIG, tmp_path, kill_plan=point)
        acked = 0
        with pytest.raises(SimulatedCrash):
            for op in OPS:
                ack = runtime.handle(op)
                assert ack.get("ok"), ack
                acked += 1
        runtime.close()
        return acked

    def test_mid_tick_crash_loses_nothing_acked(self, tmp_path):
        acked = self._crash_at(tmp_path, "tick:1")
        recovered = ServeRuntime(CONFIG, tmp_path)
        # The tick was journaled before the crash, so replay applied it.
        assert recovered.recovery["replayed"] == acked + 1
        for name in ("a", "b"):
            assert name in recovered.engine.records
        recovered.close()

    def test_mid_append_crash_loses_only_the_unacked_op(self, tmp_path):
        acked = self._crash_at(tmp_path, "append:2")
        recovered = ServeRuntime(CONFIG, tmp_path)
        assert recovered.recovery["torn_bytes_dropped"] > 0
        assert recovered.recovery["replayed"] == acked == 1
        # Op 2 (submit "b") was never acked; the client resends it.
        assert "b" not in recovered.engine.records
        ack = recovered.handle(OPS[1])
        assert ack["ok"] and not ack.get("duplicate")
        assert "b" in recovered.engine.records
        recovered.close()

    def test_mid_snapshot_crash_falls_back_to_previous_slot(self, tmp_path):
        # snapshot_every=3 → snapshot 1 after op 3, snapshot 2 after op
        # 6; killing snapshot 2 mid-write tears the *stale* slot while
        # the snapshot-1 slot survives.
        runtime = ServeRuntime(CONFIG, tmp_path, kill_plan="snapshot:2")
        with pytest.raises(SimulatedCrash):
            run_ops(runtime, OPS)
        runtime.close()
        recovered = ServeRuntime(CONFIG, tmp_path)
        assert recovered.recovery["corrupt_snapshots"] == 1  # fell back
        assert recovered.recovery["snapshot_slot"] is not None
        assert recovered.recovery["snapshot_seq"] > 0
        # The logged recovery step records the fallback.
        notes = [
            r for r in scan_journal(tmp_path / "journal.bin").records
            if r.get("kind") == "note" and r.get("event") == "recovered"
        ]
        assert notes and notes[-1]["corrupt_snapshots"] == 1
        recovered.close()


class TestDrillHarness:
    def test_default_points_cover_every_kill_kind(self):
        kinds = {parse_kill_spec(p)[0] for p in DEFAULT_POINTS}
        assert kinds == {"tick", "snapshot", "append"}

    def test_full_drill_is_byte_identical_with_zero_losses(self, tmp_path):
        drill = RecoveryDrill(
            CONFIG, [dict(op) for op in OPS], work_dir=tmp_path,
            points=("tick:1", "snapshot:1", "append:4"),
        )
        result = drill.run()
        assert result["all_match"] is True
        assert result["lost_acked_total"] == 0
        assert result["ops"] == len(OPS)
        assert result["reference_digest"]
        for outcome in result["points"]:
            assert outcome["payload_match"], outcome
            assert outcome["lost_acked"] == 0
            assert outcome["resent"] >= 1

    def test_drill_rejects_points_past_the_stream(self, tmp_path):
        drill = RecoveryDrill(
            CONFIG, [dict(op) for op in OPS], work_dir=tmp_path,
            points=("tick:99",),
        )
        with pytest.raises(ValueError, match="finished before the injection"):
            drill.run()

    def test_ops_from_script_assigns_positional_ids(self):
        lines = [
            "# a comment",
            json.dumps({"op": "submit", "job": {"name": "x"}}),
            "",
            json.dumps({"op": "drain"}),
        ]
        ops = ops_from_script(lines)
        assert [op["id"] for op in ops] == [1, 2]

    def test_ops_from_script_rejects_bad_json(self):
        with pytest.raises(ValueError, match="line 2: invalid JSON"):
            ops_from_script(["{}", "{nope"])


class TestCommittedDayOps:
    """The committed day of ops (``examples/configs/serve_smoke.json`` +
    ``examples/serve/day_ops.jsonl``: faults and a brain riding along)
    through the default drill, pinned to its reference payload digest."""

    EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

    @pytest.fixture(scope="class")
    def day(self, tmp_path_factory):
        config = ServeConfig.from_file(self.EXAMPLES / "configs" / "serve_smoke.json")
        script = (self.EXAMPLES / "serve" / "day_ops.jsonl").read_text().splitlines()
        work = tmp_path_factory.mktemp("day-ops")
        drill = RecoveryDrill(config, ops_from_script(script), work_dir=work / "a")
        result = drill.run()
        return {"config": config, "script": script, "work": work,
                "drill": drill, "result": result,
                "points": {p["point"]: p for p in result["points"]}}

    def test_default_drill_recovers_to_the_pinned_bytes(self, day):
        result = day["result"]
        assert result["reference_digest"] == "eb1c29fad7927953"
        assert result["all_match"] is True and result["lost_acked_total"] == 0
        assert [p["point"] for p in result["points"]] == list(DEFAULT_POINTS)

    @pytest.mark.parametrize("point", DEFAULT_POINTS)
    def test_every_kill_point_loses_no_ack(self, day, point):
        row = day["points"][point]
        assert row["payload_match"] is True and row["lost_acked"] == 0, row
        # The client resends exactly what it saw no ack for.
        assert row["acked_before_crash"] + row["resent"] == day["result"]["ops"], row

    def test_append_kill_tears_the_journal_tail(self, day):
        assert day["points"]["append:3"]["torn_bytes_dropped"] > 0

    def test_tick_kill_replays_the_unapplied_op(self, day):
        # The tick kill leaves a journaled-but-unapplied op behind.
        assert day["points"]["tick:2"]["replayed"] >= 1

    def test_snapshot_restart_replays_at_most_one_interval(self, day):
        # A lost snapshot path shows up here as a genesis replay.
        restored = [p for p in day["result"]["points"] if p["snapshot_slot"] is not None]
        assert restored
        for point in restored:
            assert point["replayed"] <= day["config"].snapshot_every, point

    def test_independent_reference_run_gives_equal_bytes(self, day):
        again = RecoveryDrill(
            day["config"], ops_from_script(day["script"]), work_dir=day["work"] / "b"
        )
        again.run_reference()
        assert again.reference_bytes == day["drill"].reference_bytes


class TestSigtermDrain:
    def test_drain_request_stops_the_script_and_finalizes(self, tmp_path):
        runtime = ServeRuntime(CONFIG, tmp_path)
        runtime.handle(OPS[0])
        runtime.request_drain()
        from repro.serve.daemon import run_script

        lines = [canonical_json(op) for op in OPS[1:]]
        acks = run_script(runtime, lines)
        # The in-flight op finishes; everything after is left unread.
        assert len(acks) == 1 and acks[0]["job"] == "b"
        payload = runtime.finalize()
        assert payload["meta"]["serve"]["submitted"] == 2
        runtime.close()
