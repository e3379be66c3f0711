"""Scenario: Transformer training on a public-cloud cluster.

The paper's hardest scaling case: the Transformer's 110M parameters and
small per-sample compute give the worst communication-to-computation
ratio (Table 3: Dense-SGD reaches only 16.5% scaling efficiency).  This
example shows both halves:

1. real distributed training of a tiny attention model on a synthetic
   token-mapping task (the Table 2 BLEU-proxy setup);
2. the calibrated 128-GPU throughput comparison at 110M parameters.

Run:  python examples/train_transformer_cloud.py
"""

from repro.api import CONVERGENCE_ALGORITHMS, RunConfig, run
from repro.cluster import paper_testbed
from repro.models import transformer_profile
from repro.perf.iteration_model import IterationModel
from repro.utils.tables import print_table


def convergence_demo() -> None:
    print("=== real distributed training: tiny Transformer, 8 workers ===\n")
    reports = {}
    for algorithm in CONVERGENCE_ALGORITHMS:
        # The attention model wants a hotter rate and higher density at
        # this scale.  RunConfig is deliberately explicit — it applies
        # no hidden per-model overrides — so we spell out the values the
        # Fig. 10 / Table 2 harness runs it with.
        config = RunConfig.from_dict({
            "name": f"transformer-cloud-{algorithm}",
            "seed": 7,
            "cluster": {"instance": "tencent", "num_nodes": 4, "gpus_per_node": 2},
            "comm": {"scheme": algorithm, "density": 0.10},
            "train": {"model": "transformer", "epochs": 12, "num_samples": 1024,
                      "local_batch": 16, "lr": 0.15},
        })
        reports[algorithm] = run(config)
    rows = [
        [epoch]
        + [round(reports[a].training.val_metrics[epoch], 4) for a in reports]
        for epoch in range(0, 12, 3)
    ]
    print_table(
        ["Epoch"] + list(reports),
        rows,
        title="validation token accuracy (BLEU proxy)",
    )
    print(
        "the sparse-vs-dense gap is widest on the Transformer — matching\n"
        "the paper's Table 2, where top-k costs ~2.5 BLEU.\n"
    )


def performance_demo() -> None:
    print("=== calibrated 128-GPU model: Transformer (110M params) ===\n")
    net = paper_testbed()
    profile = transformer_profile()
    rows = []
    for label, scheme, optimised in (
        ("Dense-SGD", "dense", False),
        ("2DTAR-SGD", "2dtar", True),
        ("MSTopK-SGD", "mstopk", True),
    ):
        model = IterationModel(
            network=net,
            profile=profile,
            scheme=scheme,
            resolution=0,  # text workload
            local_batch=8,
            use_datacache=optimised,
            use_pto=optimised,
        )
        rows.append(
            [
                label,
                round(model.iteration_time() * 1000),
                round(model.throughput()),
                f"{100 * model.scaling_efficiency():.1f}%",
            ]
        )
    print_table(
        ["Scheme", "iter (ms)", "sentences/s", "SE"],
        rows,
        title="throughput, 16 nodes x 8 V100, 25GbE (paper Table 3: 678 / 2534 / 3502)",
    )


def main() -> None:
    convergence_demo()
    performance_demo()


if __name__ == "__main__":
    main()
