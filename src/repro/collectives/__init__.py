"""Functional collective operations over simulated workers.

Each collective takes the per-worker inputs as one ``(W, d)`` matrix
(row ``r`` is rank ``r``'s tensor) and returns the aggregate, with no
real networking involved — the point is numerical fidelity to the
algorithms (ring reduce-scatter, ring/tree/2D-torus all-reduce, and the
sparse scatter-add the paper's TopK-SGD needs).  Timing is handled
separately by :class:`repro.cluster.NetworkModel` and the schemes in
:mod:`repro.comm`.

Each matrix fold performs the same floating-point additions in the same
order as the real schedule, so its result equals a rank-by-rank
simulation of that schedule bit for bit; the tests hold it to one.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.collectives.all_reduce": [
            "matrix_ring_allreduce",
            "matrix_torus_allreduce_2d",
            "matrix_tree_allreduce",
        ],
        "repro.collectives.primitives": ["broadcast", "broadcast_views", "gather", "scatter"],
        "repro.collectives.reduce_scatter": ["matrix_reduce_scatter", "ring_fold"],
        "repro.collectives.sparse": ["SparseVector", "batched_scatter_add", "coalesce"],
    },
)
