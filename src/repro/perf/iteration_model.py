"""Iteration-time model with overlap (the Fig. 1 decomposition).

One training iteration decomposes into I/O, FF&BP, compression,
communication, and LARS (paper §2.2); the bars of Fig. 1 are the
*visible* — non-overlapped — parts.  This module composes those parts
for any (model profile, resolution, batch, scheme, options) tuple on a
virtual cluster, yielding the throughput and scaling-efficiency numbers
of Tables 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import SCHEMES, build_scheme
from repro.cluster.network import NetworkModel
from repro.comm.base import CommScheme
from repro.comm.breakdown import TimeBreakdown
from repro.models.profiles import ModelProfile
from repro.perf.calibration import CALIBRATION, Calibration
from repro.pto.operator import PTOCostModel


def io_visible_time(
    resolution: int,
    local_batch: int,
    t_compute: float,
    *,
    cached: bool,
    workers: int,
    cal: Calibration = CALIBRATION,
    text: bool = False,
) -> float:
    """Visible input-pipeline time per iteration.

    The naive path (no DataCache) decodes from NFS every epoch; its
    pipeline runs slower than the GPU and is fully visible (the starved
    pipeline of Figs. 1 and 9).  The DataCache path reads pre-processed
    pixels from memory and re-augments; it overlaps with GPU compute up
    to a straggler residue.
    """
    if text:
        payload = local_batch * cal.text_sample_bytes
        if cached:
            pipeline = payload / cal.memory_read_bandwidth
            return pipeline + cal.io_straggler_fraction * pipeline
        return payload / cal.nfs_bandwidth + payload / cal.decode_bytes_per_sec

    pixel_bytes = resolution * resolution * 3 * local_batch
    encoded_bytes = pixel_bytes * cal.encoded_bytes_per_pixel
    if cached:
        read = pixel_bytes / cal.memory_read_bandwidth
        augment = (pixel_bytes * 4) / cal.augment_bytes_per_sec / workers
        pipeline = read + augment
        hidden = min(pipeline, t_compute)
        return (pipeline - hidden) + cal.io_straggler_fraction * hidden
    read = encoded_bytes / cal.nfs_bandwidth
    decode = pixel_bytes / cal.decode_bytes_per_sec / workers
    return read + decode


@dataclass
class IterationModel:
    """Composable per-iteration time model.

    Parameters
    ----------
    network:
        The virtual cluster.
    profile:
        Workload inventory + throughput calibration.
    scheme:
        A registered comm-scheme name or alias (``python -m repro list
        schemes``), stored canonical; priced by that scheme's own
        :meth:`~repro.comm.base.CommScheme.time_model`.
    resolution:
        Input resolution (images) or ``0`` (Transformer).
    local_batch:
        Per-GPU batch ``b``.
    single_gpu_throughput:
        Samples/s of one GPU at this resolution; defaults to the
        profile's Table 4 calibration, override with
        ``profile.table3_single_gpu`` for Table 3 reproductions.
    density:
        Sparsity ρ for the top-k schemes.
    use_datacache / use_pto:
        The §4 optimisations; the Dense-SGD baseline disables both.
    contention:
        Number of co-located jobs sharing this job's node NICs (>= 1).
        Values above 1 split the inter-node link capacity via
        :meth:`~repro.cluster.network.NetworkModel.contended`, so the
        communication (and PTO) terms stretch while compute, I/O and
        compression stay solo — the multi-tenant degradation model used
        by :mod:`repro.sched`.
    compute_stretch:
        Straggler factor (>= 1) multiplying the FF&BP term: synchronous
        training runs at the pace of its slowest worker, so a persistent
        straggler on any node stretches every iteration.  Used by the
        fault subsystem (:mod:`repro.faults`); ``1.0`` is a healthy
        cluster.
    comm_jitter:
        Gray-failure factor (>= 1) multiplying the *visible*
        communication term: a lossy, jittery link stretches every
        collective beyond what its (clean) bandwidth predicts.  The
        fault subsystem passes the realised per-window jitter here;
        ``1.0`` is a healthy link.
    """

    network: NetworkModel
    profile: ModelProfile
    scheme: str
    resolution: int
    local_batch: int
    single_gpu_throughput: float | None = None
    density: float = CALIBRATION.training_density
    use_datacache: bool = True
    use_pto: bool = True
    pipeline_workers: int = CALIBRATION.pipeline_workers_system
    cal: Calibration = CALIBRATION
    contention: float = 1.0
    compute_stretch: float = 1.0
    comm_jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.local_batch < 1:
            raise ValueError(f"local_batch must be >= 1, got {self.local_batch}")
        if self.contention < 1:
            raise ValueError(f"contention must be >= 1, got {self.contention}")
        if self.compute_stretch < 1:
            raise ValueError(
                f"compute_stretch must be >= 1, got {self.compute_stretch}"
            )
        if self.comm_jitter < 1:
            raise ValueError(
                f"comm_jitter must be >= 1, got {self.comm_jitter}"
            )
        SCHEMES.get(self.scheme)  # one-line KeyError on an unknown name
        self.scheme = SCHEMES.canonical(self.scheme)

    @property
    def contended_network(self) -> NetworkModel:
        """The cluster as this job sees it: NIC capacity split by tenants."""
        return self.network.contended(self.contention)

    # -- components -------------------------------------------------------
    @property
    def gpu_rate(self) -> float:
        if self.single_gpu_throughput is not None:
            return self.single_gpu_throughput
        return self.profile.single_gpu_throughput(self.resolution)

    def t_ffbp(self) -> float:
        """Feed-forward + backprop time for one local batch.

        ``compute_stretch`` models a persistent straggler: the
        synchronous barrier stretches everyone to the slowest worker.
        """
        return self.compute_stretch * self.local_batch / self.gpu_rate

    def _comm_scheme(self) -> CommScheme:
        """The registered scheme, built on the contended cluster.

        ``dense`` is the TF + Horovod baseline and all-reduces at its
        wire format; every other scheme's dense steps run at CommLib's.
        """
        cal = self.cal
        wire_bytes = (
            cal.dense_baseline_wire_bytes if self.scheme == "dense" else cal.commlib_wire_bytes
        )
        return build_scheme(
            self.scheme, self.contended_network, density=self.density, wire_bytes=wire_bytes
        )

    def t_communication_visible(self, scheme: CommScheme, t_comm_raw: float) -> float:
        cal = self.cal
        if scheme.dense:
            return max(0.0, t_comm_raw - cal.dense_overlap_fraction * self.t_ffbp())
        # Sparse paths: no overlap, plus pack/unpack overhead.
        return t_comm_raw + cal.sparse_pipeline_overhead

    def t_lars(self) -> float:
        pto = PTOCostModel(kernels_per_layer=self.profile.lars_kernels_per_layer)
        sizes = self.profile.layer_sizes
        if self.use_pto:
            # PTO's partitioned all-reduce crosses the same shared NIC,
            # so it sees the contended link too.
            return pto.pto_time(sizes, self.contended_network)
        return pto.serial_time(sizes)

    def t_io(self) -> float:
        return io_visible_time(
            self.resolution,
            self.local_batch,
            self.t_ffbp(),
            cached=self.use_datacache,
            workers=self.pipeline_workers,
            cal=self.cal,
            text=self.resolution == 0,
        )

    # -- composition ---------------------------------------------------------
    def breakdown(self, lars: float | None = None) -> TimeBreakdown:
        """The Fig. 1 bars: visible time per component.

        ``lars`` is the LARS term when the caller already holds it:
        it depends only on (profile, world size, nodes, α), and neither
        contention (which keeps every link's α), stretch nor jitter
        reaches it, so a scheduler prices it once per cluster slice.
        """
        scheme = self._comm_scheme()
        compression, comm_raw = scheme.selection_and_communication(self.profile.num_params)
        return TimeBreakdown(
            {
                "io": self.t_io(),
                "ff_bp": self.t_ffbp(),
                "compression": compression,
                "communication": self.comm_jitter * self.t_communication_visible(scheme, comm_raw),
                "lars": self.t_lars() if lars is None else lars,
                "sync": self.cal.sync_overhead,
            }
        )

    def iteration_time(self) -> float:
        return self.breakdown().total

    def throughput(self) -> float:
        """Global samples/s: ``b * P / t_iter``."""
        return self.local_batch * self.network.world_size / self.iteration_time()

    def scaling_efficiency(self, baseline_single_gpu: float | None = None) -> float:
        """Throughput / (P × single-GPU throughput), as in Table 3."""
        base = baseline_single_gpu if baseline_single_gpu is not None else self.gpu_rate
        return self.throughput() / (self.network.world_size * base)


__all__ = ["IterationModel", "io_visible_time"]
