"""PTO — parallel tensor operators (paper §4.2).

After gradient aggregation every GPU holds the same gradients and
weights, so post-aggregation computations (LARS/LAMB learning rates,
norm clipping, ...) are traditionally replicated ``P`` times.  PTO
partitions such a computation across the GPUs (Eq. 13) and re-assembles
the results with an All-Gather (Eq. 14), trading ``P``-fold compute for
one cheap collective.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.pto.operator": ["PTOCostModel", "PTOResult", "ParallelTensorOperator"],
        "repro.pto.lars_pto": ["lars_learning_rates_pto"],
    },
)
