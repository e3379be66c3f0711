"""Table 2: final validation performance of the three algorithms.

Paper values (top-5 accuracy for CNNs, BLEU for Transformer):

=============  ==========  =========  ===========
Model          2DTAR-SGD   TopK-SGD   MSTopK-SGD
=============  ==========  =========  ===========
ResNet-50      93.31%      92.68%     93.12%
VGG-19         92.19%      91.55%     91.94%
Transformer    26.74       24.42      24.16
=============  ==========  =========  ===========

The qualitative claims our runs must reproduce: the sparsified
algorithms land slightly below dense, the gap is small (a fraction of a
point of accuracy at the paper's scale), and MSTopK-SGD is not worse
than TopK-SGD on the CNN workloads (dense intra-node aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.fig10_convergence import (
    FAST_EPOCHS,
    FAST_SAMPLES,
    convergence_runs,
)
from repro.utils.tables import print_table

#: Paper Table 2: model -> algorithm -> metric.
PAPER_TABLE2 = {
    "ResNet-50": {"dense": 93.31, "topk": 92.68, "mstopk": 93.12},
    "VGG-19": {"dense": 92.19, "topk": 91.55, "mstopk": 91.94},
    "Transformer": {"dense": 26.74, "topk": 24.42, "mstopk": 24.16},
}

#: Workload analogue used for each paper model.
ANALOGUES = {"ResNet-50": "mlp", "VGG-19": "cnn", "Transformer": "transformer"}


@dataclass(frozen=True)
class ValidationRow:
    model: str
    workload: str
    metric_name: str
    dense: float
    topk: float
    mstopk: float


def run(
    *, epochs: int = 15, num_samples: int = 1024, seed: int = 7
) -> list[ValidationRow]:
    rows: list[ValidationRow] = []
    for model, workload in ANALOGUES.items():
        reports = convergence_runs(
            workload, epochs=epochs, num_samples=num_samples, seed=seed
        )
        finals = {a: r.summary["final_metric"] for a, r in reports.items()}
        rows.append(
            ValidationRow(
                model=model,
                workload=workload,
                metric_name=reports["dense"].metric_name,
                **finals,
            )
        )
    return rows


def main(*, fast: bool = False) -> None:
    rows = run(epochs=FAST_EPOCHS, num_samples=FAST_SAMPLES) if fast else run()
    table = []
    for r in rows:
        paper = PAPER_TABLE2[r.model]
        table.append(
            [
                f"{r.model} ({r.workload})",
                round(r.dense, 4),
                paper["dense"],
                round(r.topk, 4),
                paper["topk"],
                round(r.mstopk, 4),
                paper["mstopk"],
            ]
        )
    print_table(
        ["Model", "Dense", "paper", "TopK", "paper", "MSTopK", "paper"],
        table,
        title="Table 2: final validation metric (ours: small-model analogue; paper: full-scale)",
    )


if __name__ == "__main__":
    main()
