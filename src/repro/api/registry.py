"""Component registries — the single source of truth for names.

Every pluggable piece of the system registers here under a canonical
name (plus aliases): communication *schemes*, gradient *compressors*,
trainable *model workloads*, and cloud *cluster* presets.  The
registries replace the string-keyed if/elif ladders that used to live in
``train/algorithms.py`` (gone) and ``cluster/cloud_presets.py`` (now a
thin shim over this module).

Extending the system is a decorator away::

    from repro.api import register_compressor

    @register_compressor("ema")
    def _build_ema(*, n_samplings=30):
        return EmaThresholdTopK()

    cfg = RunConfig.from_dict({"comm": {"scheme": "mstopk", "compressor": "ema"}})

Discovery is first-class: ``SCHEMES.available()`` (and friends) is what
``python -m repro list`` prints, and what config validation checks
against — no hard-coded name lists anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.cluster.cloud_presets import CLOUD_INSTANCES, CloudInstance, make_cluster
from repro.cluster.network import NetworkModel
from repro.comm.base import CommScheme
from repro.comm.dense import RingAllReduce, Torus2DAllReduce, TreeAllReduce
from repro.comm.gtopk import GlobalTopK
from repro.comm.hitopkcomm import HiTopKComm
from repro.comm.naive_allgather import NaiveAllGather
from repro.compression.base import TopKCompressor
from repro.compression.dgc import DGCTopK
from repro.compression.exact_topk import ExactTopK
from repro.compression.mstopk import MSTopK
from repro.compression.randomk import RandomK
from repro.utils.registry import Registry
from repro.utils.seeding import RandomState


SCHEMES = Registry("scheme")
COMPRESSORS = Registry("compressor")
MODELS = Registry("model")
CLUSTERS = Registry("cluster")


def register_scheme(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a scheme builder ``f(network, **options) -> CommScheme``."""
    return SCHEMES.register(name, aliases=aliases, overwrite=overwrite)


def register_compressor(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a compressor builder ``f(*, n_samplings) -> TopKCompressor``."""
    return COMPRESSORS.register(name, aliases=aliases, overwrite=overwrite)


def register_model(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a workload builder ``f(*, num_samples, rng) -> Workload``."""
    return MODELS.register(name, aliases=aliases, overwrite=overwrite)


def register_cluster(name: str, *, aliases: Iterable[str] = (), overwrite: bool = False):
    """Register a :class:`CloudInstance` preset."""
    return CLUSTERS.register(name, aliases=aliases, overwrite=overwrite)


def available(group: str | None = None) -> dict[str, list[str]] | list[str]:
    """Names per registry; pass a group for one flat list."""
    groups = {
        "schemes": SCHEMES.available(),
        "compressors": COMPRESSORS.available(),
        "models": MODELS.available(),
        "clusters": CLUSTERS.available(),
    }
    if group is None:
        return groups
    if group not in groups:
        raise KeyError(f"unknown group {group!r}; available: {', '.join(sorted(groups))}")
    return groups[group]


# ---------------------------------------------------------------------------
# Compressors
# ---------------------------------------------------------------------------

@register_compressor("exact-topk", aliases=("exact", "topk", "nn.topk"))
def _build_exact_topk(*, n_samplings: int = 30) -> TopKCompressor:
    return ExactTopK()


@register_compressor("mstopk")
def _build_mstopk(*, n_samplings: int = 30) -> TopKCompressor:
    return MSTopK(n_samplings=n_samplings)


@register_compressor("dgc")
def _build_dgc(*, n_samplings: int = 30) -> TopKCompressor:
    return DGCTopK()


@register_compressor("randomk", aliases=("random-k",))
def _build_randomk(*, n_samplings: int = 30) -> TopKCompressor:
    return RandomK()


def build_compressor(name: str, *, n_samplings: int = 30) -> TopKCompressor:
    """Build a registered compressor by name."""
    return COMPRESSORS.get(name)(n_samplings=n_samplings)


# ---------------------------------------------------------------------------
# Communication schemes
# ---------------------------------------------------------------------------
# Builder contract: f(network, *, density, wire_bytes, n_samplings,
# compressor) -> CommScheme.  Dense builders reject a custom compressor
# so a config typo fails loudly instead of silently training dense.

def _reject_compressor(scheme: str, compressor: TopKCompressor | None) -> None:
    if compressor is not None:
        raise ValueError(
            f"scheme {scheme!r} aggregates dense gradients and does not "
            "accept a compressor"
        )


@register_scheme("dense", aliases=("dense-tree", "tree", "trear"))
def _build_dense_tree(network: NetworkModel, *, wire_bytes: int = 4,
                      compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    _reject_compressor("dense", compressor)
    return TreeAllReduce(network, wire_bytes=wire_bytes)


@register_scheme("dense-ring", aliases=("ring",))
def _build_dense_ring(network: NetworkModel, *, wire_bytes: int = 4,
                      compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    _reject_compressor("dense-ring", compressor)
    return RingAllReduce(network, wire_bytes=wire_bytes)


@register_scheme("2dtar", aliases=("torus", "dense-2dtar"))
def _build_dense_2dtar(network: NetworkModel, *, wire_bytes: int = 4,
                       compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    _reject_compressor("2dtar", compressor)
    return Torus2DAllReduce(network, wire_bytes=wire_bytes)


@register_scheme("topk", aliases=("topk-sgd", "naiveag"))
def _build_topk(network: NetworkModel, *, density: float = 0.001,
                compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    return NaiveAllGather(
        network,
        density=density,
        compressor=compressor if compressor is not None else ExactTopK(),
        error_feedback=True,
    )


@register_scheme("gtopk", aliases=("gtopk-sgd", "globaltopk"))
def _build_gtopk(network: NetworkModel, *, density: float = 0.001,
                 compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    kwargs: dict[str, Any] = {"density": density, "error_feedback": True}
    if compressor is not None:
        kwargs["compressor"] = compressor
    return GlobalTopK(network, **kwargs)


@register_scheme("mstopk", aliases=("mstopk-sgd", "hitopk", "hitopkcomm"))
def _build_mstopk_scheme(network: NetworkModel, *, density: float = 0.001,
                         wire_bytes: int = 4, n_samplings: int = 30,
                         compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    return HiTopKComm(
        network,
        density=density,
        compressor=compressor if compressor is not None else MSTopK(n_samplings=n_samplings),
        error_feedback=True,
        dense_wire_bytes=wire_bytes,
    )


@register_scheme("naiveag-mstopk")
def _build_naiveag_mstopk(network: NetworkModel, *, density: float = 0.001,
                          n_samplings: int = 30,
                          compressor: TopKCompressor | None = None, **_: Any) -> CommScheme:
    return NaiveAllGather(
        network,
        density=density,
        compressor=compressor if compressor is not None else MSTopK(n_samplings=n_samplings),
        error_feedback=True,
    )


def build_scheme(
    name: str,
    network: NetworkModel,
    *,
    density: float = 0.001,
    wire_bytes: int = 4,
    n_samplings: int = 30,
    compressor: str | TopKCompressor | None = None,
) -> CommScheme:
    """Build a registered :class:`CommScheme` by name.

    ``compressor`` may be a registered compressor name or an instance;
    sparse schemes default to their paper operator when it is ``None``.
    """
    if isinstance(compressor, str):
        compressor = build_compressor(compressor, n_samplings=n_samplings)
    builder = SCHEMES.get(name)
    return builder(
        network,
        density=density,
        wire_bytes=wire_bytes,
        n_samplings=n_samplings,
        compressor=compressor,
    )


#: Canonical algorithm triple of the convergence experiments (Fig. 10).
CONVERGENCE_ALGORITHMS = ("dense", "topk", "mstopk")


# ---------------------------------------------------------------------------
# Model workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """A trainable model plus its synthetic dataset and metric."""

    name: str
    model: Any
    x: np.ndarray
    y: np.ndarray
    metric_name: str
    evaluate: Callable[..., float]


@register_model("mlp")
def _build_mlp(*, num_samples: int, rng: RandomState) -> Workload:
    from repro.models.nn.mlp import MLPClassifier
    from repro.train.synthetic import make_spiral_classification

    x, y = make_spiral_classification(num_samples, num_classes=4, rng=rng)
    model = MLPClassifier(input_dim=2, hidden=(48, 48), num_classes=4)
    return Workload(
        "mlp", model, x, y, "top-1 accuracy",
        lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
    )


@register_model("mlp-tiny")
def _build_mlp_tiny(*, num_samples: int, rng: RandomState) -> Workload:
    from repro.models.nn.mlp import MLPClassifier
    from repro.train.synthetic import make_spiral_classification

    x, y = make_spiral_classification(num_samples, num_classes=4, rng=rng)
    model = MLPClassifier(input_dim=2, hidden=(12,), num_classes=4)
    return Workload(
        "mlp-tiny", model, x, y, "top-1 accuracy",
        lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
    )


@register_model("cnn", aliases=("convnet",))
def _build_cnn(*, num_samples: int, rng: RandomState) -> Workload:
    from repro.models.nn.convnet import SmallConvNet
    from repro.train.synthetic import make_synthetic_images

    x, y = make_synthetic_images(num_samples, num_classes=4, image_size=12, rng=rng)
    model = SmallConvNet(in_channels=3, channels=(6, 12), num_classes=4, image_size=12)
    return Workload(
        "cnn", model, x, y, "top-1 accuracy",
        lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
    )


@register_model("resnet", aliases=("resnet-tiny",))
def _build_resnet(*, num_samples: int, rng: RandomState) -> Workload:
    from repro.models.nn.resnet_tiny import TinyResNet
    from repro.train.synthetic import make_synthetic_images

    x, y = make_synthetic_images(num_samples, num_classes=4, image_size=8, rng=rng)
    model = TinyResNet(width=6, num_classes=4, image_size=8)
    return Workload(
        "resnet", model, x, y, "top-1 accuracy",
        lambda p, vx, vy: model.evaluate(p, vx, vy, topk=1),
    )


@register_model("transformer", aliases=("attention",))
def _build_transformer(*, num_samples: int, rng: RandomState) -> Workload:
    from repro.models.nn.transformer import TinyTransformer, make_copy_task

    x, y = make_copy_task(rng, num_samples=num_samples, vocab_size=32, seq_len=10)
    model = TinyTransformer(vocab_size=32, d_model=24, d_ff=48, max_len=10)
    return Workload(
        "transformer", model, x, y, "token accuracy (BLEU proxy)", model.evaluate
    )


def build_workload(name: str, *, num_samples: int, rng: RandomState) -> Workload:
    """Build a registered model workload (model + data + metric)."""
    return MODELS.get(name)(num_samples=num_samples, rng=rng)


# ---------------------------------------------------------------------------
# Cluster presets
# ---------------------------------------------------------------------------

for _key, _instance in CLOUD_INSTANCES.items():
    CLUSTERS.register(_key, aliases=(_instance.instance,))(_instance)


def get_cluster(name: str) -> CloudInstance:
    """Resolve a registered cluster preset by name."""
    return CLUSTERS.get(name)


def build_cluster(
    name: str, num_nodes: int, *, gpus_per_node: int | None = None
) -> NetworkModel:
    """Build a :class:`NetworkModel` from a registered cluster preset."""
    return make_cluster(num_nodes, get_cluster(name), gpus_per_node=gpus_per_node)


__all__ = [
    "Registry",
    "Workload",
    "SCHEMES",
    "COMPRESSORS",
    "MODELS",
    "CLUSTERS",
    "register_scheme",
    "register_compressor",
    "register_model",
    "register_cluster",
    "available",
    "build_scheme",
    "build_compressor",
    "build_workload",
    "build_cluster",
    "get_cluster",
    "CONVERGENCE_ALGORITHMS",
]
