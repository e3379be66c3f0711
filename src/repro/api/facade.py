"""The run facade: ``run(RunConfig) -> RunReport``.

One call composes the pieces every experiment used to hand-wire —
cluster preset → :class:`NetworkModel` → comm scheme → trainer — and
returns a structured report.  The wiring deliberately mirrors the legacy
paths step for step (:class:`~repro.train.convergence.ConvergenceRunner`
for synchronous runs, :mod:`repro.experiments.elastic_churn` for elastic
ones), so a fixed seed produces *bit-identical* results either way;
``tests/api/test_facade.py`` pins that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.config import RunConfig
from repro.api.registry import (
    CLUSTERS,
    SCHEMES,
    build_cluster,
    build_scheme,
    build_workload,
)
from repro.faults.plan import FaultPlan
from repro.utils.bench import bench_payload
from repro.utils.seeding import new_rng


@dataclass
class RunReport:
    """Structured result of one facade run.

    ``summary`` holds the headline scalars (keys differ between the two
    modes); the raw sub-reports stay attached for callers that need the
    full curves or the cost breakdown.
    """

    name: str
    mode: str  # "train" | "elastic"
    scheme: str
    model: str
    world_size: int
    seed: int
    config: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    training: Any = None  # TrainingReport | None
    elastic_run: Any = None  # ElasticRunReport | None
    cost: Any = None  # ElasticCostReport | None
    #: Fault-drill record: ``{"entries": [...], "summary": {...}}`` from
    #: the injector's structured log; ``None`` when no faults ran.
    faults: Any = None

    @property
    def final_loss(self) -> float:
        if self.mode == "elastic":
            return self.elastic_run.final_loss
        return self.training.epoch_losses[-1]

    def bench_payload(self, bench: str | None = None) -> dict:
        """A ``BENCH_*.json``-compatible payload (schema version 1)."""
        columns = sorted(self.summary)
        return bench_payload(
            bench or f"run_{self.name}",
            title=f"{self.name}: {self.model} / {self.scheme} ({self.mode})",
            columns=columns,
            rows=[[self.summary[c] for c in columns]],
            meta={
                "mode": self.mode,
                "scheme": self.scheme,
                "model": self.model,
                "world_size": self.world_size,
                "seed": self.seed,
                **({"faults": self.faults} if self.faults is not None else {}),
            },
        )

    def format(self) -> str:
        """Human-readable one-run summary table."""
        return self.bench_payload()["text"]


def _run_train(config: RunConfig, workload) -> RunReport:
    # Mirrors ConvergenceRunner.run() so fixed seeds are bit-identical.
    from repro.optim.sgd import SGD
    from repro.train.synthetic import train_val_split
    from repro.train.trainer import DistributedTrainer

    import numpy as np

    train = config.train
    network = build_cluster(
        config.cluster.instance,
        config.cluster.num_nodes,
        gpus_per_node=config.cluster.gpus_per_node,
    )
    scheme = build_scheme(
        config.comm.scheme,
        network,
        density=config.comm.density,
        wire_bytes=config.comm.wire_bytes,
        n_samplings=config.comm.n_samplings,
        compressor=config.comm.compressor,
    )
    trainer = DistributedTrainer(
        workload.model,
        scheme,
        optimizer=SGD(lr=train.lr, momentum=train.momentum),
        seed=config.seed,
    )
    train_x, train_y, val_x, val_y = train_val_split(
        np.asarray(workload.x), np.asarray(workload.y)
    )
    scheme_name = SCHEMES.canonical(config.comm.scheme) or config.comm.scheme
    report = trainer.train(
        train_x,
        train_y,
        epochs=train.epochs,
        local_batch=train.local_batch,
        val_x=val_x,
        val_y=val_y,
        evaluate=workload.evaluate,
        algorithm_name=scheme_name,
    )
    summary = {
        "final_loss": report.epoch_losses[-1],
        "final_metric": report.final_val_metric if report.val_metrics else None,
        "iterations": report.iterations,
        "comm_seconds": report.comm_seconds,
        "epochs": train.epochs,
    }
    return RunReport(
        name=config.name,
        mode="train",
        scheme=scheme_name,
        model=workload.name,
        world_size=network.topology.world_size,
        seed=config.seed,
        config=config.to_dict(),
        summary=summary,
        training=report,
    )


def _run_elastic(config: RunConfig, workload) -> RunReport:
    # Mirrors experiments/elastic_churn.py so fixed seeds are bit-identical.
    from repro.cluster.variability import VariabilityModel
    from repro.elastic.elastic_trainer import ElasticTrainer
    from repro.elastic.events import PoissonChurn
    from repro.optim.sgd import SGD
    from repro.perf.elastic_cost import account

    elastic = config.elastic
    assert elastic is not None
    schedule = (
        PoissonChurn(
            elastic.rate,
            warned_fraction=elastic.warned_fraction,
            rejoin_delay=elastic.rejoin_delay,
        )
        if elastic.schedule == "poisson" and elastic.rate > 0
        else None
    )
    variability = VariabilityModel(sigma=elastic.sigma) if elastic.sigma > 0 else None
    injector = None
    if config.faults is not None:
        from repro.faults.injector import FaultInjector

        plan = FaultPlan.from_config(config.faults, seed=config.seed, target="run")
        injector = FaultInjector(plan)
    scheme_name = SCHEMES.canonical(config.comm.scheme) or config.comm.scheme
    # Canonicalize so aliases ("p3.16xlarge" -> "aws") hit the right
    # spot-price profile in the cost layer.
    instance = CLUSTERS.canonical(config.cluster.instance) or config.cluster.instance
    trainer = ElasticTrainer(
        workload.model,
        scheme=scheme_name,
        density=config.comm.density,
        wire_bytes=config.comm.wire_bytes,
        n_samplings=config.comm.n_samplings,
        compressor=config.comm.compressor,
        instance=instance,
        num_nodes=config.cluster.num_nodes,
        gpus_per_node=config.cluster.gpus_per_node,
        min_nodes=elastic.min_nodes,
        optimizer=SGD(lr=config.train.lr, momentum=config.train.momentum),
        seed=config.seed,
        checkpoint_every=elastic.checkpoint_every,
        compute_seconds=elastic.compute_seconds,
        checkpoint_seconds=elastic.checkpoint_seconds,
        restart_seconds=elastic.restart_seconds,
        warning_seconds=elastic.warning_seconds,
        timing_d=elastic.timing_d,
        variability=variability,
        faults=injector,
    )
    report = trainer.run(
        workload.x,
        workload.y,
        iterations=elastic.iterations,
        local_batch=config.train.local_batch,
        schedule=schedule,
    )
    cost = account(report, instance=instance)
    summary = {
        "final_loss": report.final_loss,
        "goodput_it_per_s": report.goodput,
        "raw_it_per_s": report.raw_throughput,
        "lost_work_fraction": report.lost_fraction,
        "revocations": report.revocations,
        "joins": report.joins,
        "usd_per_kilo_iter": cost.cost_per_kilo_iteration,
        "savings_vs_on_demand": cost.savings_fraction,
        "useful_iterations": report.useful_iterations,
    }
    faults_record = None
    if injector is not None:
        metrics = injector.metrics()
        faults_record = {
            "entries": injector.log.to_dicts(),
            "summary": metrics,
        }
        summary["fault_injections"] = metrics["injected"]
        summary["fault_recoveries"] = metrics["recovered"]
        summary["fault_detect_recover_s"] = metrics["mean_detect_recover_s"]
    return RunReport(
        name=config.name,
        mode="elastic",
        scheme=report.scheme,
        model=workload.name,
        world_size=config.cluster.num_nodes * config.cluster.gpus_per_node,
        seed=config.seed,
        config=config.to_dict(),
        summary=summary,
        elastic_run=report,
        cost=cost,
        faults=faults_record,
    )


def preflight(config: RunConfig) -> None:
    """Fail fast on anything a config can get wrong, without training.

    Runs registry-name validation plus a real cluster + scheme build, so
    build-time rejections (e.g. a dense scheme given a compressor)
    surface before any work — and callers like the CLI can treat
    everything raised here as a user error, and anything raised later as
    a genuine bug.
    """
    config.validate()
    network = build_cluster(
        config.cluster.instance,
        config.cluster.num_nodes,
        gpus_per_node=config.cluster.gpus_per_node,
    )
    build_scheme(
        config.comm.scheme,
        network,
        density=config.comm.density,
        wire_bytes=config.comm.wire_bytes,
        n_samplings=config.comm.n_samplings,
        compressor=config.comm.compressor,
    )


def run(config: RunConfig) -> RunReport:
    """Execute one fully-specified run and return its structured report."""
    config.validate()
    data_seed = (
        config.train.data_seed if config.train.data_seed is not None else config.seed
    )
    workload = build_workload(
        config.train.model,
        num_samples=config.train.num_samples,
        rng=new_rng(data_seed),
    )
    if config.elastic is not None:
        return _run_elastic(config, workload)
    return _run_train(config, workload)


def run_sched(config) -> dict:
    """Execute a :class:`~repro.api.config.SchedConfig` scenario.

    Runs the job queue once per configured placement policy over the
    shared virtual cluster and returns ``policy -> SchedReport``
    (insertion-ordered as configured).  Combine into one BENCH payload
    with :func:`repro.sched.payload_for_reports`.

    With ``exec.backend: process`` the per-policy simulations (each
    fully independent and deterministic) fan across the worker pool,
    each worker running :func:`run_sched_serial` on one policy; the
    returned mapping is identical to the serial loop's.
    """
    config.validate()
    from repro.exec.backend import BACKENDS

    pool = config.exec
    if BACKENDS.canonical(pool.backend) == "serial":
        return run_sched_serial(config)
    from repro.exec.sweeper import ParallelSweeper

    # Named, so the sweeper owns the pool and closes it after the map.
    sweeper = ParallelSweeper(
        pool.backend, jobs=pool.jobs, start_method=pool.start_method
    )
    return sweeper.run_sched_policies(config)


def run_sched_serial(config) -> dict:
    """The in-process body of :func:`run_sched`: load the queue (inline
    jobs or trace), resolve the fault plan, run every policy in turn."""
    from repro.sched import compare_policies
    from repro.sched.traces import job_specs_for

    plan = None
    if config.faults is not None:
        plan = FaultPlan.from_config(config.faults, seed=config.seed, target="sched")
    return compare_policies(
        job_specs_for(config),
        config.policies,
        num_nodes=config.cluster.num_nodes,
        instance=config.cluster.instance,
        gpus_per_node=config.cluster.gpus_per_node,
        seed=config.seed,
        name=config.name,
        faults=plan,
        brain=config.brain,
    )


__all__ = ["run", "run_sched", "run_sched_serial", "preflight", "RunReport"]
