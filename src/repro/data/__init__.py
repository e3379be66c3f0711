"""DataCache — multi-level data caching for efficient data reading (§4.1).

On public clouds the training data sits in a networked file system whose
read path is slow; pre-processing (decode + augmentation) then burns CPU
every epoch.  The paper's DataCache layers three tiers:

1. **NFS** (CFS/EBS/OSS) — the source of truth; paid on the first epoch
   of the first run;
2. **local file-system cache** — makes *subsequent runs* (hyper-parameter
   tuning) cheap;
3. **in-memory key-value store of pre-processed samples** — makes
   *subsequent epochs* nearly free, with the dataset sharded across the
   nodes' memory to bound per-node consumption.

This package implements the tiers with real payloads (synthetic encoded
images that actually decode to pixel arrays) and *virtual-time*
accounting for every read/decode, so Fig. 9 can be regenerated
deterministically.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "repro.data.cache": ["CacheStats", "DataCache", "ReadOutcome"],
        "repro.data.dataset": ["SyntheticImageDataset"],
        "repro.data.loader": ["CachedDataLoader", "EpochTimings"],
        "repro.data.preprocess": ["PreprocessModel", "augment_image", "decode_image"],
        "repro.data.storage": ["LocalDiskStore", "MemoryStore", "NfsStore", "StorageBackend"],
    },
)
