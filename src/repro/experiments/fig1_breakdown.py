"""Fig. 1: per-iteration time breakdown of the existing training schemes.

Dense-SGD (TreeAR) and TopK-SGD (exact top-k + flat All-Gather) on
ResNet-50 at 224² and 96² input, 128 GPUs, the *un-optimised* system
(no DataCache, serial LARS).  The paper's observations to reproduce:

* I/O and communication dominate the Dense-SGD iteration;
* TopK-SGD shrinks communication but its exact top-k "Compression" bar
  (0.239 s) exceeds the whole FF&BP time (0.204 s);
* at 96² the LARS bar becomes relatively significant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cloud_presets import paper_testbed
from repro.cluster.network import NetworkModel
from repro.models.profiles import resnet50_profile
from repro.perf.calibration import CALIBRATION, Calibration
from repro.perf.iteration_model import IterationModel
from repro.utils.tables import print_table

#: Fig. 1's bars, in legend order.
COMPONENTS = ("io", "ff_bp", "compression", "communication", "lars")


@dataclass(frozen=True)
class BreakdownBar:
    """One bar of Fig. 1."""

    scheme: str
    resolution: int
    components: dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.components.values())


def run(
    network: NetworkModel | None = None, *, cal: Calibration = CALIBRATION
) -> list[BreakdownBar]:
    network = network if network is not None else paper_testbed()
    profile = resnet50_profile()
    bars: list[BreakdownBar] = []
    for scheme_label, scheme in (("Dense-SGD", "dense"), ("TopK-SGD", "topk")):
        for resolution in (224, 96):
            model = IterationModel(
                network=network,
                profile=profile,
                scheme=scheme,
                resolution=resolution,
                local_batch=256,
                density=cal.training_density,
                use_datacache=False,  # the "existing schemes" baseline
                use_pto=False,
                cal=cal,
            )
            breakdown = model.breakdown()
            bars.append(
                BreakdownBar(
                    scheme=scheme_label,
                    resolution=resolution,
                    components={c: breakdown.get(c) for c in COMPONENTS},
                )
            )
    return bars


def main() -> None:
    bars = run()
    rows = [
        [f"{b.scheme} {b.resolution}x{b.resolution}"]
        + [round(b.components[c], 4) for c in COMPONENTS]
        + [round(b.total, 4)]
        for b in bars
    ]
    print_table(
        ["Scheme", "I/O", "FF&BP", "Compression", "Communication", "LARS", "Total"],
        rows,
        title="Fig. 1: time breakdown of one iteration (seconds), ResNet-50, 128 GPUs",
    )


if __name__ == "__main__":
    main()
