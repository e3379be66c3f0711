"""Fig. 10: convergence comparison of Dense-SGD, TopK-SGD and MSTopK-SGD.

The paper trains ResNet-50 and VGG-19 for 90 epochs at 32K global batch
and plots top-5 accuracy per epoch; the finding is that both sparsified
variants track Dense-SGD closely.  Our laptop-scale analogue trains the
MLP (ResNet stand-in) and the small CNN (VGG stand-in) on 8 virtual
workers with real error-feedback pipelines; curves are per-epoch top-1
validation accuracy.
"""

from __future__ import annotations

from repro.train.convergence import ConvergenceResult, ConvergenceRunner
from repro.utils.tables import print_table

#: The harness's full settings; ``--fast`` runs the trim below.
DEFAULT_EPOCHS = 15
DEFAULT_SAMPLES = 1024


def run(
    *,
    workloads: tuple[str, ...] = ("mlp", "cnn"),
    epochs: int = DEFAULT_EPOCHS,
    num_samples: int = DEFAULT_SAMPLES,
    seed: int = 7,
) -> dict[str, ConvergenceResult]:
    runner = ConvergenceRunner(
        epochs=epochs, num_samples=num_samples, seed=seed
    )
    return {w: runner.run(w) for w in workloads}


#: ``--fast`` trim (Table 2 uses it too): enough epochs for the curves
#: to separate, small data.
FAST_EPOCHS = 4
FAST_SAMPLES = 512


def main(*, fast: bool = False) -> None:
    if fast:
        results = run(epochs=FAST_EPOCHS, num_samples=FAST_SAMPLES)
    else:
        results = run()
    for workload, result in results.items():
        algorithms = list(result.reports)
        epochs = len(result.reports[algorithms[0]].val_metrics)
        rows = []
        for epoch in range(epochs):
            rows.append(
                [epoch]
                + [round(result.reports[a].val_metrics[epoch], 4) for a in algorithms]
            )
        print_table(
            ["Epoch"] + [a for a in algorithms],
            rows,
            title=f"Fig. 10 ({workload}): validation {result.metric_name} per epoch",
        )
        finals = ", ".join(
            f"{a}={result.final(a):.4f}" for a in algorithms
        )
        print(f"final: {finals}\n")


if __name__ == "__main__":
    main()
