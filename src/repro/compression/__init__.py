"""Gradient compression operators.

The paper's first contribution is **MSTopK** (§3.1, Algorithm 1), an
approximate top-k selection that replaces sort-based selection with a
fixed number of binary-search threshold passes.  This package implements
it alongside the baselines it is compared against in Fig. 6:

* :mod:`repro.compression.exact_topk` — sort-based exact top-k (the
  ``nn.topk`` analogue) and an ``argpartition`` variant;
* :mod:`repro.compression.dgc` — the double-sampling selection of Deep
  Gradient Compression (Lin et al. 2018);
* :mod:`repro.compression.mstopk` — Algorithm 1;
* :mod:`repro.compression.randomk` — random-k (convergence baseline);
* :mod:`repro.compression.error_feedback` — the residual memory that
  makes sparsified SGD converge (Stich et al. 2018; Karimireddy et al.
  2019).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.compression.base": ["TopKCompressor", "density_to_k"],
        "repro.compression.dgc": ["DGCTopK"],
        "repro.compression.error_feedback": ["ErrorFeedback"],
        "repro.compression.exact_topk": ["ExactTopK", "naive_topk_sort", "topk_argpartition"],
        "repro.compression.mstopk": ["MSTopK", "mstopk_select", "mstopk_select_batch"],
        "repro.compression.randomk": ["RandomK"],
    },
)
