"""Fault storms through the multi-tenant scheduler.

Crashes evict tenants through the same membership machinery churn uses:
survivors above the job's ``min_nodes`` shrink in place; below the
floor the job is requeued and its recovery latency closes when the
scheduler re-places it.  ``duration > 0`` on a crash schedules node
repair.  Everything replays bit-identically on the process backend.
"""

import dataclasses
import json

from repro.api.config import (
    ClusterConfig,
    ExecConfig,
    FaultConfig,
    FaultsConfig,
    JobSpec,
    SchedConfig,
)
from repro.api.facade import run_sched
from repro.sched.scheduler import payload_for_reports


def _sched_config(events, *, num_nodes=4, jobs=None, policies=("bin-pack",),
                  seed=11, exec_section=None):
    return SchedConfig(
        name="fault-sched-unit",
        seed=seed,
        cluster=ClusterConfig(
            instance="tencent", num_nodes=num_nodes, gpus_per_node=2
        ),
        policies=tuple(policies),
        jobs=tuple(jobs) if jobs else (
            JobSpec(
                name="prod",
                profile="resnet50",
                scheme="mstopk",
                density=0.01,
                iterations=200,
                min_nodes=1,
                max_nodes=3,
            ),
        ),
        faults=FaultsConfig(events=tuple(events)),
        **({"exec": exec_section} if exec_section else {}),
    )


def _entries(report, phase, kind=None):
    return [
        e
        for e in report.fault_log["entries"]
        if e["phase"] == phase and (kind is None or e["kind"] == kind)
    ]


class TestCrashRecovery:
    def test_crash_shrinks_survivors_above_floor(self):
        reports = run_sched(_sched_config(
            [FaultConfig(kind="node-crash", at=40)]
        ))
        report = reports["bin-pack"]
        log = report.fault_log
        assert log["injected"] == 1 and log["recovered"] == 1
        (recover,) = _entries(report, "recover", "node-crash")
        assert recover["detail"]["action"] == "shrunk to surviving nodes"
        assert log["lost_iterations"] > 0  # progress rolled back to a checkpoint
        assert report.summary()["jobs_done"] == 1

    def test_crash_with_duration_repairs_the_node(self):
        reports = run_sched(_sched_config(
            [FaultConfig(kind="node-crash", at=10, duration=20)]
        ))
        report = reports["bin-pack"]
        (repair,) = _entries(report, "repair")
        assert repair["t"] >= 30  # crash at 10 + repair after 20 virtual s
        assert report.fault_log["nodes_down_end"] == []

    def test_permanent_crash_leaves_node_down(self):
        reports = run_sched(_sched_config(
            [FaultConfig(kind="node-crash", at=40)]
        ))
        report = reports["bin-pack"]
        assert len(report.fault_log["nodes_down_end"]) == 1
        assert _entries(report, "repair") == []

    def test_below_min_nodes_requeues_then_replaces(self):
        # Two nodes, the job needs both; an AZ reclaim takes half the
        # cluster, dropping the job below its floor.  With a repair
        # scheduled, the job is re-placed and the recovery latency is the
        # requeue-to-replacement gap.
        config = _sched_config(
            [FaultConfig(kind="az-reclaim", at=30, duration=50, fraction=0.5)],
            num_nodes=2,
            jobs=[
                JobSpec(
                    name="wide",
                    profile="resnet50",
                    scheme="mstopk",
                    density=0.01,
                    iterations=150,
                    min_nodes=2,
                    max_nodes=2,
                ),
            ],
        )
        report = run_sched(config)["bin-pack"]
        log = report.fault_log
        assert log["requeues"] == 1
        assert log["injected"] == 1 and log["recovered"] == 1
        (recover,) = _entries(report, "recover", "az-reclaim")
        assert recover["detail"]["action"] == "requeued job re-placed"
        assert recover["detail"]["latency_s"] >= 50  # waits out the repair
        assert report.summary()["jobs_done"] == 1

    def test_crash_on_empty_cluster_absorbed(self):
        # Crash an explicit node that is already down: first crash takes
        # it, the second finds nothing up at that address.
        reports = run_sched(_sched_config(
            [
                FaultConfig(kind="node-crash", at=10, node=0),
                FaultConfig(kind="node-crash", at=20, node=0),
            ]
        ))
        report = reports["bin-pack"]
        log = report.fault_log
        assert log["injected"] == 2  # attempts; the second one hit nothing
        assert log["absorbed"] == 1
        (absorb,) = _entries(report, "absorb")
        assert absorb["t"] == 20.0


class TestPerformanceFaults:
    def test_nic_degrade_stretches_makespan(self):
        base = run_sched(_sched_config([]))["bin-pack"]
        degraded = run_sched(_sched_config(
            [FaultConfig(kind="nic-degrade", at=10, duration=200, scale=0.3)]
        ))["bin-pack"]
        assert degraded.makespan_s > base.makespan_s
        assert degraded.summary()["jobs_done"] == base.summary()["jobs_done"]

    def test_straggler_stretches_makespan(self):
        base = run_sched(_sched_config([]))["bin-pack"]
        slowed = run_sched(_sched_config(
            [FaultConfig(kind="straggler", at=10, duration=200, stretch=3.0)]
        ))["bin-pack"]
        assert slowed.makespan_s > base.makespan_s

    def test_gray_net_inject_logs_link_telemetry(self):
        report = run_sched(_sched_config(
            [FaultConfig(kind="gray-net", at=10, duration=100, node=1,
                         loss_rate=0.1, jitter=0.5)]
        ))["bin-pack"]
        (inject,) = _entries(report, "inject", "gray-net")
        detail = inject["detail"]
        assert detail["node"] == 1
        assert detail["loss_rate"] == 0.1
        assert detail["jitter"] == 0.5
        assert detail["jitter_dist"] == "exp"
        # Realised stretch: >= the pure retransmission floor 1/(1-loss).
        assert detail["stretch"] >= 1.0 / (1.0 - 0.1) - 1e-9
        (detect,) = _entries(report, "detect", "gray-net")
        assert detect["detail"]["source"] == "per-link loss/latency telemetry"

    def test_gray_net_stretches_makespan_and_recovers(self):
        base = run_sched(_sched_config([]))["bin-pack"]
        gray = run_sched(_sched_config(
            [FaultConfig(kind="gray-net", at=10, duration=25, node=0,
                         loss_rate=0.2, jitter=0.5)]
        ))["bin-pack"]
        assert gray.makespan_s > base.makespan_s
        assert gray.summary()["jobs_done"] == base.summary()["jobs_done"]
        (recover,) = _entries(gray, "recover", "gray-net")
        assert recover["detail"]["action"] == "link health restored"

    def test_no_faults_attribute_means_no_fault_log(self):
        config = dataclasses.replace(_sched_config([]), faults=None)
        report = run_sched(config)["bin-pack"]
        assert report.fault_log is None
        payload = payload_for_reports([report])
        assert "faults" not in payload["meta"]


def _flap_train_config(policies=("bin-pack",)):
    """A crash flap train that quarantines node 0, then probes it back."""
    config = _sched_config(
        [FaultConfig(kind="node-crash", at=10, duration=15, node=0,
                     repeat=3, period=30)],
        policies=policies,
        jobs=[
            JobSpec(
                name="prod",
                profile="resnet50",
                scheme="mstopk",
                density=0.01,
                iterations=600,  # long enough to outlive the probe at ~100 s
                min_nodes=1,
                max_nodes=3,
            ),
        ],
    )
    return dataclasses.replace(
        config,
        faults=dataclasses.replace(
            config.faults,
            quarantine_threshold=1.5,
            health_half_life=300.0,
            probe_cooldown=60.0,
        ),
    )


class TestHealthLedgerLifecycle:
    def test_flap_train_quarantines_then_probes_back(self):
        report = run_sched(_flap_train_config())["bin-pack"]
        (quarantine,) = _entries(report, "quarantine")
        assert quarantine["detail"]["node"] == 0
        assert quarantine["detail"]["suspicion"] >= 1.5
        probe_at = quarantine["detail"]["probe_at"]
        assert probe_at == quarantine["t"] + 60.0
        probes = _entries(report, "probe")
        assert probes and probes[0]["kind"] == "health"
        assert probes[0]["fault_id"] == -1
        assert probes[0]["t"] >= probe_at
        assert probes[0]["detail"]["action"] == (
            "cool-down elapsed; node returned to candidate pool"
        )
        health = report.fault_log["health"]
        assert health["quarantines"] == 1
        assert health["probes"] >= 1
        assert health["quarantined_end"] == []

    def test_health_timeline_identical_across_policies(self):
        # The ledger is driven by the fault plan alone, so every policy
        # sees the same quarantine/probe schedule — that is what makes
        # the policy comparison fair.
        reports = run_sched(
            _flap_train_config(policies=("bin-pack", "spread", "fault-aware"))
        )
        timelines = {
            policy: [
                (e["phase"], e["t"], e.get("detail", {}).get("node"))
                for e in report.fault_log["entries"]
                if e["phase"] in ("quarantine", "probe")
            ]
            for policy, report in reports.items()
        }
        assert len({json.dumps(t) for t in timelines.values()}) == 1
        healths = {
            json.dumps(r.fault_log["health"], sort_keys=True)
            for r in reports.values()
        }
        assert len(healths) == 1

    def test_health_summary_present_without_storm(self):
        report = run_sched(_sched_config([]))["bin-pack"]
        health = report.fault_log["health"]
        assert health["quarantines"] == 0
        assert health["suspects"] == []


class TestSchedDeterminism:
    def test_every_policy_sees_the_same_storm(self):
        reports = run_sched(_sched_config(
            [FaultConfig(kind="node-crash", at=40, duration=60)],
            policies=("bin-pack", "spread"),
        ))
        logs = {p: r.fault_log for p, r in reports.items()}
        assert all(log["injected"] == 1 for log in logs.values())
        payload = payload_for_reports(list(reports.values()))
        assert set(payload["meta"]["faults"]) == {"bin-pack", "spread"}

    def test_process_backend_parity(self):
        events = [
            FaultConfig(kind="nic-degrade", at=20, duration=40, scale=0.4),
            FaultConfig(kind="node-crash", at=50, duration=80),
            FaultConfig(kind="straggler", at=30, duration=40, stretch=2.0),
        ]
        serial = run_sched(_sched_config(events, policies=("bin-pack", "spread")))
        pooled = run_sched(_sched_config(
            events,
            policies=("bin-pack", "spread"),
            exec_section=ExecConfig(backend="process", jobs=2),
        ))
        for policy in serial:
            a, b = serial[policy], pooled[policy]
            assert json.dumps(a.fault_log, sort_keys=True) == json.dumps(
                b.fault_log, sort_keys=True
            )
            assert a.summary() == b.summary()

    def test_repeat_runs_byte_identical(self):
        config = _sched_config(
            [FaultConfig(kind="az-reclaim", at=30, duration=50, fraction=0.5)]
        )
        first = run_sched(config)["bin-pack"].fault_log
        second = run_sched(config)["bin-pack"].fault_log
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["digest"] == second["digest"]
