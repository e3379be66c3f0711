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

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.api.config": ["RunConfig"],
        "repro.api.facade": ["RunReport", "run"],
        "repro.api.registry": [
            "available",
            "build_scheme",
            "register_cluster",
            "register_compressor",
            "register_model",
            "register_scheme",
        ],
        "repro.cluster.cloud_presets": ["make_cluster", "paper_testbed"],
        "repro.cluster.network": ["NetworkModel"],
        "repro.cluster.topology": ["ClusterTopology"],
        "repro.comm.breakdown": ["TimeBreakdown"],
        "repro.comm.dense": ["RingAllReduce", "Torus2DAllReduce", "TreeAllReduce"],
        "repro.comm.hitopkcomm": ["HiTopKComm"],
        "repro.comm.naive_allgather": ["NaiveAllGather"],
        "repro.compression.dgc": ["DGCTopK"],
        "repro.compression.error_feedback": ["ErrorFeedback"],
        "repro.compression.exact_topk": ["ExactTopK"],
        "repro.compression.mstopk": ["MSTopK", "mstopk_select"],
        "repro.compression.randomk": ["RandomK"],
        "repro.data.cache": ["DataCache"],
        "repro.data.dataset": ["SyntheticImageDataset"],
        "repro.data.loader": ["CachedDataLoader"],
        "repro.elastic.elastic_trainer": ["ElasticTrainer"],
        "repro.elastic.events": ["PoissonChurn"],
        "repro.elastic.membership": ["MembershipView"],
        "repro.models.profiles": ["resnet50_profile", "transformer_profile", "vgg19_profile"],
        "repro.optim.lars": ["LARS"],
        "repro.optim.sgd": ["SGD"],
        "repro.pto.lars_pto": ["lars_learning_rates_pto"],
        "repro.pto.operator": ["ParallelTensorOperator"],
        "repro.sched.job": ["JobSpec"],
        "repro.sched.policies": ["register_policy"],
        "repro.sched.scheduler": ["MultiTenantScheduler"],
        "repro.train.trainer": ["DistributedTrainer"],
    },
)
__all__ += ["__version__"]
