"""``train-compute`` and ``train-comm``: the trainer hot path, closed loop.

Both drive ``DistributedTrainer.train_step`` with one batch per virtual
worker, cycling through seeded shards.  ``train-compute`` is the Fig. 10
CNN (d=862, per-worker compute path): forward/backward is ~90 % of the
step, so communication and compression work must not show there.
``train-comm`` is a wide MLP (d=304 144, worker-fused compute path) at
W=16, local batch 2: ``comm.aggregate`` is ~65 % of the step — the
regime HiTopKComm + MSTopK exist for.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.api.registry import (
    build_cluster,
    build_compressor,
    build_scheme,
    build_workload,
)
from repro.collectives.all_reduce import matrix_ring_allreduce
from repro.collectives.reduce_scatter import matrix_reduce_scatter
from repro.collectives.sparse import batched_scatter_add
from repro.models.nn.mlp import MLPClassifier
from repro.optim.sgd import SGD
from repro.train.synthetic import make_blob_classification
from repro.train.trainer import DistributedTrainer
from repro.utils.partition import chunk_bounds, round_robin_shards
from repro.utils.seeding import new_rng

from .spec import median, percentile
from .tracing import SpanRecorder, merge_halves, traced

#: Losses averaged at each end of the fixed-step window.
LOSS_WINDOW = 8
#: Tolerance tier against the recorded float64 loss: 5 % or 1e-3
#: absolute, whichever is looser (a later dtype or reduction-order
#: change is judged against this, exact equality is reported apart).
LOSS_RTOL, LOSS_ATOL = 0.05, 1e-3


@dataclass
class TrainContext:
    name: str
    seed: int
    sizes: dict
    trainer: DistributedTrainer
    batches: list
    recorder: SpanRecorder | None


def _model_and_data(name: str, seed: int, sizes: dict):
    if name == "train-compute":
        workload = build_workload("cnn", num_samples=sizes["samples"], rng=new_rng(seed))
        return workload.model, workload.x, workload.y, None
    x, y = make_blob_classification(
        sizes["samples"], num_classes=sizes["classes"], dim=sizes["input_dim"],
        separation=sizes["separation"], rng=new_rng(seed),
    )
    model = MLPClassifier(
        input_dim=sizes["input_dim"], hidden=tuple(sizes["hidden"]),
        num_classes=sizes["classes"],
    )
    return model, x, y, SGD(lr=sizes["lr"])


def _scheme(sizes: dict, recorder: SpanRecorder | None):
    network = build_cluster("tencent", sizes["nodes"], gpus_per_node=sizes["gpus"])
    compressor = traced(
        build_compressor("mstopk"), recorder,
        {"select": "compression.select", "select_batch": "compression.select"},
    )
    scheme = build_scheme(
        "mstopk", network, density=sizes["density"], compressor=compressor
    )
    scheme.ef = traced(
        scheme.ef, recorder,
        {"apply": "compression.error_feedback", "update": "compression.error_feedback"},
    )
    return scheme


def _trainer(name, seed, sizes, recorder):
    model, x, y, optimizer = _model_and_data(name, seed, sizes)
    model = traced(
        model, recorder,
        {
            "loss_and_grad": "models.forward_backward",
            "loss_and_grad_workers": "models.forward_backward",
        },
    )
    optimizer = traced(
        optimizer if optimizer is not None else SGD(lr=0.05),
        recorder, {"step": "optim.step"},
    )
    trainer = DistributedTrainer(
        model, _scheme(sizes, recorder), optimizer, seed=seed, timer=recorder
    )
    return trainer, x, y


def setup(name, seed, sizes, work_dir, recorder=None) -> TrainContext:
    trainer, x, y = _trainer(name, seed, sizes, recorder)
    world, batch = trainer.world_size, sizes["local_batch"]
    shards = round_robin_shards(np.asarray(x), np.asarray(y), world)
    per_epoch = min(len(sx) for sx, _ in shards) // batch
    batches = [
        [(sx[j * batch : (j + 1) * batch], sy[j * batch : (j + 1) * batch])
         for sx, sy in shards]
        for j in range(per_epoch)
    ]
    # Warm-up on a throwaway twin, so the measured trainer's step count
    # (and therefore its checked loss) starts from step 0.
    twin, _, _ = _trainer(name, seed, sizes, None)
    for j in range(2):
        twin.train_step(batches[j % per_epoch])
    return TrainContext(name, seed, sizes, trainer, batches, recorder)


def _run(ctx: TrainContext, seconds: float, speed=None, shadow=None) -> dict:
    """Closed loop for ``seconds`` and at least the fixed step count;
    one host-speed sample between every ``rate_steps`` steps.  A
    ``shadow`` trainer takes the same batches, one step after each timed
    step, so the two see the same moments of the host."""
    trainer, batches, recorder = ctx.trainer, ctx.batches, ctx.recorder
    check_steps, group = ctx.sizes["check_steps"], ctx.sizes["rate_steps"]
    step_s: list[float] = []
    shadow_s: list[float] = []
    losses: list[float] = []
    virtual_s = 0.0
    failed = 0
    first_error = ""
    tick = time.perf_counter
    deadline = tick() + seconds
    while len(step_s) < check_steps or tick() < deadline:
        if speed is not None and len(step_s) % group == 0:
            speed.sample()
        step_batches = batches[len(step_s) % len(batches)]
        start = tick()
        try:
            if recorder is None:
                loss, metrics = trainer.train_step(step_batches)
            else:
                with recorder.span("train.step"):
                    loss, metrics = trainer.train_step(step_batches)
        except Exception as exc:  # a raising step is a failed op, not a crash
            loss, metrics = math.nan, {}
            first_error = first_error or f"{type(exc).__name__}: {exc}"
        step_s.append(tick() - start)
        if shadow is not None:
            start = tick()
            shadow.train_step(step_batches)
            shadow_s.append(tick() - start)
        losses.append(loss)
        virtual_s += metrics.get("comm_seconds", 0.0)
        if not math.isfinite(loss):
            failed += 1
    head = float(np.mean(losses[:LOSS_WINDOW]))
    final = float(np.mean(losses[check_steps - LOSS_WINDOW : check_steps]))
    return {
        "step_s": step_s, "shadow_s": shadow_s, "failed": failed, "first_error": first_error,
        "head_loss": head, "final_loss": final, "virtual_s": virtual_s,
    }


def _summarise(ctx: TrainContext, run: dict, reference: dict | None) -> dict:
    step_s = run["step_s"]
    group = ctx.sizes["rate_steps"]
    rates = [
        group / sum(step_s[i : i + group])
        for i in range(0, len(step_s) - group + 1, group)
    ]
    final = run["final_loss"]
    checks = {
        "loss_finite": {
            "ok": run["failed"] == 0 and math.isfinite(final),
            "detail": run["first_error"] or f"{run['failed']} non-finite steps",
        },
        "loss_decreased": {
            "ok": final < run["head_loss"],
            "detail": f"first {run['head_loss']!r} -> step {ctx.sizes['check_steps']} {final!r}",
        },
    }
    if reference is not None:
        want = reference["loss"]
        checks["loss_reference"] = {
            "ok": abs(final - want) <= max(LOSS_ATOL, LOSS_RTOL * abs(want)),
            "detail": f"loss {final!r} vs recorded {want!r}",
        }
    return {
        "attempted": len(step_s),
        "failed": run["failed"],
        "checks": checks,
        "observed": {"loss": final},
        "work_per_s": median(rates),
        "latency_ms_p50": median(step_s) * 1e3,
        "layers": {
            "train.steps_per_s": len(step_s) / sum(step_s),
            "train.step_ms_p50": median(step_s) * 1e3,
            "train.step_ms_p95": percentile(step_s, 0.95) * 1e3,
            "train.grad_dim": ctx.trainer.grad_dim,
            "comm.virtual_ms_per_step": run["virtual_s"] / len(step_s) * 1e3,
        },
    }


def measure(ctx: TrainContext, seconds: float, reference: dict | None, speed) -> dict:
    return _summarise(ctx, _run(ctx, seconds, speed), reference)


def _timed(call, repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e3


def _probe(ctx: TrainContext) -> dict:
    """Direct calls at the workload's ``(W, d)`` / k̃ shape.

    The collectives are module-level functions a proxy cannot intercept,
    the byte counts live on the ``AggregationResult`` the trainer drops,
    and the dense ring is not on the sparse path at all — so one
    aggregation of a seeded matrix on a fresh scheme supplies all three.
    """
    scheme = _scheme(ctx.sizes, None)
    topo = scheme.topology
    m, n, world = topo.num_nodes, topo.gpus_per_node, topo.world_size
    d = ctx.trainer.grad_dim
    mat = new_rng(ctx.seed).normal(size=(world, d))
    result = scheme.aggregate(mat, rng=new_rng(ctx.seed))
    selections = result.extras["selections"]
    bounds = chunk_bounds(d, n)
    order = [selections[topo.rank(node, local)] for local in range(n) for node in range(m)]
    offsets = [bounds[local][0] for local in range(n) for _ in range(m)]
    return {
        "comm.inter_bytes_per_step": result.inter_bytes,
        "comm.intra_bytes_per_step": result.intra_bytes,
        "compression.selected_elems_per_step": sum(s.nnz for s in selections.values()),
        "collectives.reduce_scatter_probe_ms": _timed(
            lambda: [matrix_reduce_scatter(mat[i * n : (i + 1) * n]) for i in range(m)]
        ),
        "collectives.scatter_add_probe_ms": _timed(
            lambda: batched_scatter_add(order, d, dtype=mat.dtype, offsets=offsets)
        ),
        "collectives.ring_allreduce_probe_ms": _timed(lambda: matrix_ring_allreduce(mat)),
    }


def trace(ctx: TrainContext, seconds, reference: dict | None, untraced: dict) -> dict:
    """The traced half: same seed, fresh trainer, proxies injected, and
    an untraced twin stepped alternately to price the tracing."""
    twin, _, _ = _trainer(ctx.name, ctx.seed, ctx.sizes, None)
    run = _run(ctx, seconds, shadow=twin)
    traced_half = _summarise(ctx, run, reference)
    steps = len(run["step_s"])
    totals = ctx.recorder.totals()

    def per_step(name: str, key: str = "total") -> float:
        return totals.get(name, {}).get(key, 0.0) / steps * 1e3

    step_ms = per_step("train.step")
    attributed = sum(
        per_step(name) for name in ("models.forward_backward", "fuse", "aggregate", "apply")
    )
    recorded = reference["loss"] if reference is not None else untraced["observed"]["loss"]
    layers = dict(untraced["layers"])  # rates and percentiles come from the untraced half
    layers.update(_probe(ctx))
    layers.update({
        "models.forward_backward_ms": per_step("models.forward_backward"),
        "models.calls_per_step": totals["models.forward_backward"]["count"] / steps,
        "train.fuse_ms": per_step("fuse"),
        "train.apply_ms": per_step("apply", "self"),
        "train.step_overhead_ms": step_ms - attributed,
        "train.loss_bit_identical": float(
            untraced["observed"]["loss"] == recorded and run["final_loss"] == recorded
        ),
        "optim.step_ms": per_step("optim.step"),
        "comm.aggregate_ms": per_step("aggregate"),
        "comm.self_ms": per_step("aggregate", "self"),
        "compression.select_ms": per_step("compression.select"),
        "compression.select_calls_per_step": totals["compression.select"]["count"] / steps,
        "compression.error_feedback_ms": per_step("compression.error_feedback"),
        "trace.overhead_share": median(run["step_s"]) / median(run["shadow_s"]) - 1.0,
        "trace.spans": len(ctx.recorder.spans),
    })
    result = merge_halves(untraced, traced_half)
    result["layers"] = layers
    result["shares"] = {
        "models.forward_backward_ms": layers["models.forward_backward_ms"] / step_ms,
        "comm.aggregate_ms": layers["comm.aggregate_ms"] / step_ms,
        "attributed": attributed / step_ms,
    }
    return result
