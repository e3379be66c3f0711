"""PTO — parallel tensor operators (paper §4.2).

After gradient aggregation every GPU holds the same gradients and
weights, so post-aggregation computations (LARS/LAMB learning rates,
norm clipping, ...) are traditionally replicated ``P`` times.  PTO
partitions such a computation across the GPUs (Eq. 13) and re-assembles
the results with an All-Gather (Eq. 14), trading ``P``-fold compute for
one cheap collective.
"""

from repro.pto.operator import PTOCostModel, PTOResult, ParallelTensorOperator
from repro.pto.lars_pto import lars_learning_rates_pto

__all__ = [
    "ParallelTensorOperator",
    "PTOResult",
    "PTOCostModel",
    "lars_learning_rates_pto",
]
