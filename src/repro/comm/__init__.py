"""CommLib — the paper's gradient communication library (§3, §4).

Each *scheme* aggregates per-worker gradients across the virtual cluster
and reports a per-step virtual-time breakdown:

* :class:`~repro.comm.dense.RingAllReduce` — flat ring all-reduce
  (Baidu 2017), reference dense baseline;
* :class:`~repro.comm.dense.TreeAllReduce` — NCCL's double-binary-tree
  all-reduce ("TreeAR" in Fig. 7 and Dense-SGD in Table 3);
* :class:`~repro.comm.dense.Torus2DAllReduce` — 2D-Torus all-reduce
  ("2DTAR", Mikami et al. 2018 / Cho et al. 2019);
* :class:`~repro.comm.naive_allgather.NaiveAllGather` — sparse top-k with
  a flat All-Gather ("NaiveAG", the SparCML-style baseline);
* :class:`~repro.comm.hitopkcomm.HiTopKComm` — the paper's hierarchical
  top-k communication (Algorithm 2).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.comm.base": ["AggregationResult", "CommScheme"],
        "repro.comm.breakdown": ["TimeBreakdown"],
        "repro.comm.dense": ["RingAllReduce", "Torus2DAllReduce", "TreeAllReduce"],
        "repro.comm.gtopk": ["GlobalTopK"],
        "repro.comm.hitopkcomm": ["HiTopKComm"],
        "repro.comm.naive_allgather": ["NaiveAllGather"],
    },
)
