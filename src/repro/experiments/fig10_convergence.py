"""Fig. 10: convergence comparison of Dense-SGD, TopK-SGD and MSTopK-SGD.

The paper trains ResNet-50 and VGG-19 for 90 epochs at 32K global batch
and plots top-5 accuracy per epoch; the finding is that both sparsified
variants track Dense-SGD closely.  Our laptop-scale analogue trains the
MLP (ResNet stand-in) and the small CNN (VGG stand-in) on 8 virtual
workers with real error-feedback pipelines; curves are per-epoch top-1
validation accuracy.
"""

from __future__ import annotations

from repro.api.config import ClusterConfig, CommConfig, RunConfig, TrainConfig
from repro.api.facade import RunReport
from repro.api.facade import run as run_config
from repro.api.registry import CONVERGENCE_ALGORITHMS
from repro.utils.tables import print_table

#: The harness's full settings; ``--fast`` runs the trim below.
DEFAULT_EPOCHS = 15
DEFAULT_SAMPLES = 1024

#: ``(lr, density)`` of each workload's runs.  The paper trains at
#: ρ = 0.001 on 25M parameters; at our ~1e4-parameter scale the
#: equivalent aggressive compression is a few percent.  The attention
#: model needs a hotter rate to move in 15 epochs and a higher density
#: for the sparsified runs (its ~7k parameters make ρ·d/n per shard tiny
#: otherwise); the paper's Transformer likewise shows the largest
#: sparse-vs-dense metric gap of the three workloads (Table 2).
HYPERPARAMETERS = {
    "mlp": (0.05, 0.05),
    "cnn": (0.05, 0.05),
    "transformer": (0.15, 0.10),
}


def configs(
    workload: str, *, epochs: int, num_samples: int, seed: int
) -> list[RunConfig]:
    """One run per algorithm on 4×2 virtual workers; the shared seed gives
    every algorithm the same data and the same initialisation."""
    lr, density = HYPERPARAMETERS[workload]
    return [
        RunConfig(
            name=f"fig10_{workload}_{algorithm}",
            seed=seed,
            cluster=ClusterConfig(instance="tencent", num_nodes=4, gpus_per_node=2),
            comm=CommConfig(scheme=algorithm, density=density),
            train=TrainConfig(
                model=workload,
                epochs=epochs,
                num_samples=num_samples,
                local_batch=16,
                lr=lr,
                momentum=0.9,
            ),
        )
        for algorithm in CONVERGENCE_ALGORITHMS
    ]


def convergence_runs(
    workload: str, *, epochs: int, num_samples: int, seed: int
) -> dict[str, RunReport]:
    """``algorithm -> RunReport`` of one workload's runs."""
    return {
        config.comm.scheme: run_config(config)
        for config in configs(
            workload, epochs=epochs, num_samples=num_samples, seed=seed
        )
    }


def run(
    *,
    workloads: tuple[str, ...] = ("mlp", "cnn"),
    epochs: int = DEFAULT_EPOCHS,
    num_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
) -> dict[str, dict[str, RunReport]]:
    return {
        w: convergence_runs(w, epochs=epochs, num_samples=num_samples, seed=seed)
        for w in workloads
    }


#: ``--fast`` trim (Table 2 uses it too): enough epochs for the curves
#: to separate, small data.
FAST_EPOCHS = 4
FAST_SAMPLES = 512


def main(*, fast: bool = False) -> None:
    if fast:
        results = run(epochs=FAST_EPOCHS, num_samples=FAST_SAMPLES)
    else:
        results = run()
    for workload, reports in results.items():
        algorithms = list(reports)
        curves = [reports[a].training.val_metrics for a in algorithms]
        rows = [
            [epoch] + [round(curve[epoch], 4) for curve in curves]
            for epoch in range(len(curves[0]))
        ]
        print_table(
            ["Epoch"] + algorithms,
            rows,
            title=f"Fig. 10 ({workload}): validation "
            f"{reports[algorithms[0]].metric_name} per epoch",
        )
        finals = ", ".join(
            f"{a}={r.summary['final_metric']:.4f}" for a, r in reports.items()
        )
        print(f"final: {finals}\n")


if __name__ == "__main__":
    main()
