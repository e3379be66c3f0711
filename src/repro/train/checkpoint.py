"""Checkpointing for the distributed trainer.

Long DAWNBench-style runs checkpoint every epoch (the per-epoch overhead
in :mod:`repro.perf.calibration` accounts for it); this module provides
the actual mechanism for the NumPy trainer: parameters, optimizer
momentum, the communication scheme's error-feedback residuals, *and* the
trainer's RNG state all round-trip through one ``.npz`` file, so a
resumed sparsified run is bit-identical to an uninterrupted one
(tested) — including the data-shuffle and MSTopK sampling streams.

Elastic restore: :func:`load_checkpoint` with ``strict_world=False``
accepts a checkpoint taken at a *different* world size (the elastic
trainer rescales after revocations).  Parameters, momentum, and RNG
state restore normally — they are world-size independent — while the
rank-keyed error-feedback residuals are returned raw in
``meta["residuals"]`` for the caller to remap (see
:func:`repro.elastic.membership.fold_residuals`).

Integrity: every saved record carries a CRC32 in the metadata, and
:func:`load_checkpoint` verifies the whole file *before* touching any
trainer state.  Damage of any kind — flipped bytes, truncation, a
mangled archive — surfaces as one typed :class:`CheckpointCorruptError`
instead of an arbitrary downstream ``zlib``/``json``/shape error, so
recovery code (``repro.faults``' checkpoint-corrupt drill, the elastic
trainer's rollback fallback) can catch corruption and fall back to an
older checkpoint without masking real bugs.
"""

from __future__ import annotations

import json
import pathlib
import zlib

import numpy as np

from repro.optim.sgd import SGD
from repro.train.trainer import DistributedTrainer

#: Version 3 adds per-record CRC32 checksums; version 2 added the
#: trainer RNG state.  Checkpoints from versions 1 and 2 still load
#: (without checksum verification — they carry none).
_FORMAT_VERSION = 3


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file is damaged (bad archive, checksum mismatch).

    Distinct from the ``ValueError``s a *valid* checkpoint can raise
    (wrong world size, unknown version, shape mismatch): those mean the
    checkpoint does not fit this trainer; this means the bytes on disk
    are not the bytes that were written.
    """


def save_checkpoint(trainer: DistributedTrainer, path: str | pathlib.Path) -> pathlib.Path:
    """Serialise trainer state (params + momentum + EF residuals + RNG)."""
    path = pathlib.Path(path)
    arrays: dict[str, np.ndarray] = {}
    for name, value in trainer.params.items():
        arrays[f"param/{name}"] = value
    optimizer = trainer.optimizer
    if isinstance(optimizer, SGD):
        for name, velocity in optimizer._velocity.items():
            arrays[f"momentum/{name}"] = velocity
    ef = getattr(trainer.scheme, "ef", None)
    ef_keys: list[str] = []
    if ef is not None:
        for key in ef.keys():
            residual = ef.residual(key)
            if residual is not None:
                slot = f"residual/{key}"
                arrays[slot] = residual
                ef_keys.append(str(key))
    meta = {
        "version": _FORMAT_VERSION,
        "world_size": trainer.world_size,
        "num_nodes": trainer.scheme.topology.num_nodes,
        "gpus_per_node": trainer.scheme.topology.gpus_per_node,
        "scheme": trainer.scheme.name,
        "ef_keys": ef_keys,
        # PCG64 state is a nest of (big) ints and strings — JSON-safe.
        "rng_state": trainer._rng.bit_generator.state,
        "checksums": {key: _crc32(value) for key, value in arrays.items()},
    }
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez(path, **arrays)
    # np.savez appends .npz when missing.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _crc32(value: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(value).tobytes())


def _read_verified(path: pathlib.Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and integrity-check a checkpoint: ``(meta, arrays)``.

    Every record is read (exercising the archive's own CRCs) and, for
    version >= 3 checkpoints, verified against the stored checksums.
    Any damage raises :class:`CheckpointCorruptError`; a missing file
    keeps raising ``FileNotFoundError`` (absence is not corruption).
    """
    try:
        with np.load(path) as data:
            if "__meta__" not in data.files:
                raise CheckpointCorruptError(
                    f"checkpoint {path} has no __meta__ record"
                )
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            arrays = {key: data[key] for key in data.files if key != "__meta__"}
    except (FileNotFoundError, CheckpointCorruptError):
        raise
    except Exception as exc:  # zip/zlib/json/np damage — all mean corruption
        raise CheckpointCorruptError(
            f"checkpoint {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(meta, dict) or "version" not in meta or "world_size" not in meta:
        raise CheckpointCorruptError(
            f"checkpoint {path} metadata lacks version/world_size"
        )
    checksums = meta.get("checksums")
    if checksums is not None:
        missing = set(checksums) - set(arrays)
        extra = set(arrays) - set(checksums)
        if missing or extra:
            raise CheckpointCorruptError(
                f"checkpoint {path} record set does not match its manifest "
                f"(missing: {sorted(missing)}, unexpected: {sorted(extra)})"
            )
        for key in sorted(arrays):
            actual = _crc32(arrays[key])
            if actual != checksums[key]:
                raise CheckpointCorruptError(
                    f"checkpoint {path} record {key!r} failed its checksum "
                    f"(crc32 {actual:#010x} != {checksums[key]:#010x})"
                )
    return meta, arrays


def _check_fits(record: str, value: np.ndarray, dtype: np.dtype, shape: tuple | None = None) -> None:
    """One ``ValueError`` line unless a record has the trainer's dtype (and shape)."""
    if shape is not None and value.shape != shape:
        raise ValueError(f"checkpoint {record} has shape {value.shape}, model expects {shape}")
    if value.dtype != dtype:
        raise ValueError(f"checkpoint {record} is {value.dtype}, model expects {dtype}")


def load_checkpoint(
    trainer: DistributedTrainer,
    path: str | pathlib.Path,
    *,
    strict_world: bool = True,
) -> dict:
    """Restore trainer state in place; returns the checkpoint metadata.

    With ``strict_world=True`` (default) a world-size mismatch raises.
    With ``strict_world=False`` and a mismatched world size, the
    world-size-independent state (params, momentum, RNG) restores
    normally and the rank-keyed residuals are *not* loaded into the
    scheme; they come back raw in ``meta["residuals"]`` (``{rank:
    array}``) for the caller to fold onto the new topology.

    The file is integrity-checked *before* any trainer state is touched;
    a damaged file raises :class:`CheckpointCorruptError` and leaves the
    trainer exactly as it was.  So does a valid one that does not fit:
    every parameter, momentum and residual record is checked against the
    trainer's shapes and dtype first (``KeyError`` for an unknown name,
    one ``ValueError`` line for a shape or dtype that differs).
    """
    path = pathlib.Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta, arrays = _read_verified(path)
    if meta["version"] not in (1, 2, _FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    world_matches = meta["world_size"] == trainer.world_size
    if strict_world and not world_matches:
        raise ValueError(
            f"checkpoint was taken at world size {meta['world_size']}, "
            f"trainer has {trainer.world_size}"
        )
    # Every record is checked against the trainer before any state
    # changes, so a checkpoint that does not fit leaves it untouched.
    params: dict[str, np.ndarray] = {}
    momentum: dict[str, np.ndarray] = {}
    residuals: dict[object, np.ndarray] = {}
    for key, value in arrays.items():
        kind, _, name = key.partition("/")
        if kind == "param" or kind == "momentum":
            record = f"{'parameter' if kind == 'param' else kind} {name!r}"
            if name not in trainer.params:
                raise KeyError(f"checkpoint {record} unknown to model")
            want = trainer.params[name]
            _check_fits(record, value, want.dtype, want.shape)
            (params if kind == "param" else momentum)[name] = value
        elif kind == "residual":
            _check_fits(f"residual {name!r}", value, trainer._layout.dtype)
            # EF keys are worker ranks (ints) in the built-in
            # schemes; fall back to the string form otherwise.
            residuals[int(name) if name.lstrip("-").isdigit() else name] = value
    rng_state = meta.get("rng_state")
    if rng_state is not None:  # first: the one assignment that can still raise
        trainer._rng.bit_generator.state = rng_state
    # Restoring must reproduce the checkpointed state exactly:
    # momentum/residual entries that post-date the checkpoint (e.g.
    # rolling back a trainer that kept stepping) are cleared before
    # the saved ones are loaded back in.
    for name, value in params.items():
        trainer.params[name] = value.copy()
    if isinstance(trainer.optimizer, SGD):
        trainer.optimizer._velocity.clear()
        trainer.optimizer._velocity.update({name: v.copy() for name, v in momentum.items()})
    if world_matches:
        ef = getattr(trainer.scheme, "ef", None)
        if ef is not None:
            ef.replace(residuals)
    elif residuals:
        meta["residuals"] = residuals
    return meta


__all__ = ["CheckpointCorruptError", "save_checkpoint", "load_checkpoint"]
