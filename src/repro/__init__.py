"""repro — reproduction of *Towards Scalable Distributed Training of
Deep Learning on Public Cloud Clusters* (Shi et al., MLSys 2021).

The package implements the paper's system on a deterministic virtual
cluster substrate:

* :mod:`repro.compression` — **MSTopK**, the approximate GPU-friendly
  top-k operator (Algorithm 1), plus the exact/DGC baselines and error
  feedback;
* :mod:`repro.comm` — **CommLib**: HiTopKComm (Algorithm 2) and the
  dense/sparse aggregation baselines (TreeAR, 2DTAR, NaiveAG);
* :mod:`repro.data` — **DataCache**: the multi-level (NFS → local FS →
  memory KV) input pipeline;
* :mod:`repro.pto` — **PTO**: parallel tensor operators for LARS/LAMB;
* :mod:`repro.cluster` / :mod:`repro.collectives` — the virtual
  public-cloud cluster and functional collectives they all run on;
* :mod:`repro.train` / :mod:`repro.perf` / :mod:`repro.experiments` —
  end-to-end training, the calibrated performance model, and one
  harness per paper table/figure;
* :mod:`repro.elastic` — preemption-aware elastic training over the
  same substrate: churn schedules, membership epochs, checkpoint
  rollback, and spot-market cost accounting;
* :mod:`repro.sched` — multi-tenant scheduling of many jobs on one
  shared cluster: pluggable placement policies, NIC-contention-aware
  throughput, priority preemption and autoscaling through the elastic
  membership machinery.

Quickstart::

    from repro.cluster import make_cluster
    from repro.comm import HiTopKComm
    from repro.compression import MSTopK

    net = make_cluster(4, "tencent", gpus_per_node=8)
    scheme = HiTopKComm(net, density=0.01, compressor=MSTopK())
    result = scheme.aggregate(worker_gradients)
    print(result.breakdown.format())
"""

from repro.api import (
    RunConfig,
    RunReport,
    available,
    build_scheme,
    register_cluster,
    register_compressor,
    register_model,
    register_scheme,
    run,
)
from repro.cluster import ClusterTopology, NetworkModel, make_cluster, paper_testbed
from repro.comm import (
    HiTopKComm,
    NaiveAllGather,
    RingAllReduce,
    TimeBreakdown,
    Torus2DAllReduce,
    TreeAllReduce,
)
from repro.compression import (
    DGCTopK,
    ErrorFeedback,
    ExactTopK,
    MSTopK,
    RandomK,
    mstopk_select,
)
from repro.data import CachedDataLoader, DataCache, SyntheticImageDataset
from repro.elastic import ElasticTrainer, MembershipView, PoissonChurn
from repro.models import resnet50_profile, transformer_profile, vgg19_profile
from repro.sched import JobSpec, MultiTenantScheduler, register_policy
from repro.optim import LAMB, LARS, SGD
from repro.pto import ParallelTensorOperator, lars_learning_rates_pto
from repro.train import ConvergenceRunner, DistributedTrainer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # api facade
    "RunConfig",
    "RunReport",
    "run",
    "available",
    "build_scheme",
    "register_scheme",
    "register_compressor",
    "register_model",
    "register_cluster",
    # cluster
    "ClusterTopology",
    "NetworkModel",
    "make_cluster",
    "paper_testbed",
    # compression
    "MSTopK",
    "mstopk_select",
    "ExactTopK",
    "DGCTopK",
    "RandomK",
    "ErrorFeedback",
    # comm
    "HiTopKComm",
    "NaiveAllGather",
    "TreeAllReduce",
    "Torus2DAllReduce",
    "RingAllReduce",
    "TimeBreakdown",
    # data
    "DataCache",
    "CachedDataLoader",
    "SyntheticImageDataset",
    # pto / optim
    "ParallelTensorOperator",
    "lars_learning_rates_pto",
    "SGD",
    "LARS",
    "LAMB",
    # train
    "DistributedTrainer",
    "ConvergenceRunner",
    # elastic
    "ElasticTrainer",
    "MembershipView",
    "PoissonChurn",
    # sched
    "JobSpec",
    "MultiTenantScheduler",
    "register_policy",
    # models
    "resnet50_profile",
    "vgg19_profile",
    "transformer_profile",
]
