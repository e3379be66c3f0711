"""The run facade: ``run(RunConfig) -> RunReport``.

The one place a config becomes a trainer: cluster preset →
:class:`NetworkModel` → comm scheme → trainer.  The experiment harnesses
call :func:`run`; the scheduler's payload replay builds its
:class:`~repro.elastic.ElasticTrainer` through :func:`elastic_trainer`.
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
from repro.exec.config import resolve_jobs
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
    #: What ``summary["final_metric"]`` and the validation curve measure.
    metric_name: str
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


def _scheme(config: RunConfig):
    """The run's comm scheme on its virtual cluster."""
    network = build_cluster(
        config.cluster.instance,
        config.cluster.num_nodes,
        gpus_per_node=config.cluster.gpus_per_node,
    )
    return build_scheme(
        config.comm.scheme,
        network,
        density=config.comm.density,
        wire_bytes=config.comm.wire_bytes,
        n_samplings=config.comm.n_samplings,
        compressor=config.comm.compressor,
    )


def workload_for(config: RunConfig):
    """The run's model and synthetic dataset (seeded by ``train.data_seed``,
    else the run seed)."""
    data_seed = (
        config.train.data_seed if config.train.data_seed is not None else config.seed
    )
    return build_workload(
        config.train.model,
        num_samples=config.train.num_samples,
        rng=new_rng(data_seed),
    )


def _run_train(config: RunConfig, workload) -> RunReport:
    from repro.optim.sgd import SGD
    from repro.train.synthetic import train_val_split
    from repro.train.trainer import DistributedTrainer

    import numpy as np

    train = config.train
    scheme = _scheme(config)
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
        metric_name=workload.metric_name,
        world_size=scheme.topology.world_size,
        seed=config.seed,
        config=config.to_dict(),
        summary=summary,
        training=report,
    )


def elastic_trainer(config: RunConfig, workload, faults=None):
    """The :class:`~repro.elastic.ElasticTrainer` of an elastic run config.

    ``faults`` is an optional :class:`~repro.faults.injector.FaultInjector`;
    the churn schedule is not built here but handed to the trainer's
    ``run``, so a caller may replay any schedule (the scheduler passes a
    job's allocation history).
    """
    from repro.cluster.variability import VariabilityModel
    from repro.elastic.elastic_trainer import ElasticTrainer
    from repro.optim.sgd import SGD

    elastic = config.elastic
    return ElasticTrainer(
        workload.model,
        scheme=config.comm.scheme,
        density=config.comm.density,
        wire_bytes=config.comm.wire_bytes,
        n_samplings=config.comm.n_samplings,
        compressor=config.comm.compressor,
        instance=config.cluster.instance,
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
        variability=VariabilityModel(sigma=elastic.sigma) if elastic.sigma > 0 else None,
        faults=faults,
    )


def _run_elastic(config: RunConfig, workload) -> RunReport:
    from repro.elastic.events import PoissonChurn
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
    injector = None
    if config.faults is not None:
        from repro.faults.injector import FaultInjector

        plan = FaultPlan.from_config(config.faults, seed=config.seed, target="run")
        injector = FaultInjector(plan)
    report = elastic_trainer(config, workload, injector).run(
        workload.x,
        workload.y,
        iterations=elastic.iterations,
        local_batch=config.train.local_batch,
        schedule=schedule,
    )
    # Canonicalize so aliases ("p3.16xlarge" -> "aws") hit the right
    # spot-price profile in the cost layer.
    instance = CLUSTERS.canonical(config.cluster.instance) or config.cluster.instance
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
        metric_name=workload.metric_name,
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
    _scheme(config)


def run(config: RunConfig) -> RunReport:
    """Execute one fully-specified run and return its structured report."""
    config.validate()
    workload = workload_for(config)
    if config.elastic is not None:
        return _run_elastic(config, workload)
    return _run_train(config, workload)


def run_sched(config) -> dict:
    """Execute a :class:`~repro.api.config.SchedConfig` scenario.

    Runs the job queue once per configured placement policy over the
    shared virtual cluster and returns ``policy -> SchedReport``
    (insertion-ordered as configured).  Combine into one BENCH payload
    with :func:`repro.sched.payload_for_reports`.

    With ``exec.jobs`` wider than 1 the per-policy simulations (each
    fully independent and deterministic) fan across a process pool, each
    worker running :func:`run_sched_serial` on one policy; the returned
    mapping is identical to the inline run's.
    """
    config.validate()
    if resolve_jobs(config.exec.jobs) == 1:
        return run_sched_serial(config)
    from repro.exec.sweeper import ParallelSweeper

    return ParallelSweeper(jobs=config.exec.jobs).run_sched_policies(config)


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
