"""Scenario: CNN training on a public-cloud cluster, end to end.

Two halves, mirroring the paper's evaluation:

1. **Convergence (real training)** — an MLP/CNN-scale model trained
   across 8 virtual workers under Dense-SGD, TopK-SGD and MSTopK-SGD
   with error feedback (the Fig. 10 experiment).
2. **Performance (calibrated model)** — ResNet-50 at 128 GPUs: iteration
   breakdown and throughput per scheme (the Table 3 experiment),
   including the DataCache and PTO optimisations.

Run:  python examples/train_cnn_cloud.py
"""

from repro.api import CONVERGENCE_ALGORITHMS, RunConfig, run
from repro.cluster import paper_testbed
from repro.models import resnet50_profile
from repro.perf.iteration_model import IterationModel
from repro.utils.tables import print_table


def convergence_demo() -> None:
    print("=== real distributed training (8 virtual workers) ===\n")
    reports = {}
    for algorithm in CONVERGENCE_ALGORITHMS:
        config = RunConfig.from_dict({
            "name": f"cnn-cloud-{algorithm}",
            "seed": 7,
            "cluster": {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 2},
            "comm": {"scheme": algorithm, "density": 0.05},
            "train": {"model": "cnn", "epochs": 10, "num_samples": 1024,
                      "local_batch": 16, "lr": 0.05},
        })
        reports[algorithm] = run(config)
    rows = [
        [epoch]
        + [round(reports[a].training.val_metrics[epoch], 4) for a in reports]
        for epoch in range(0, 10, 2)
    ]
    print_table(
        ["Epoch"] + list(reports),
        rows,
        title="validation accuracy per epoch (synthetic CNN task)",
    )
    finals = {a: reports[a].summary["final_metric"] for a in reports}
    print(f"final accuracies: {finals}")
    print("note: sparse variants track dense closely thanks to error feedback\n")


def performance_demo() -> None:
    print("=== calibrated 128-GPU performance model (ResNet-50, 224x224) ===\n")
    net = paper_testbed()
    profile = resnet50_profile()
    rows = []
    for label, scheme, optimised in (
        ("Dense-SGD (TreeAR baseline)", "dense", False),
        ("2DTAR-SGD", "2dtar", True),
        ("MSTopK-SGD (this paper)", "mstopk", True),
    ):
        model = IterationModel(
            network=net,
            profile=profile,
            scheme=scheme,
            resolution=224,
            local_batch=256,
            single_gpu_throughput=profile.table3_single_gpu,
            use_datacache=optimised,
            use_pto=optimised,
        )
        b = model.breakdown()
        rows.append(
            [
                label,
                round(b.get("io") * 1000, 1),
                round(b.get("ff_bp") * 1000, 1),
                round(b.get("compression") * 1000, 1),
                round(b.get("communication") * 1000, 1),
                round(b.get("lars") * 1000, 1),
                round(model.throughput()),
                f"{100 * model.scaling_efficiency():.1f}%",
            ]
        )
    print_table(
        ["Scheme", "I/O", "FF&BP", "Compr", "Comm", "LARS", "samples/s", "SE"],
        rows,
        title="per-iteration visible time (ms) and throughput, 16 nodes x 8 V100",
    )


def main() -> None:
    convergence_demo()
    performance_demo()


if __name__ == "__main__":
    main()
