"""Driver-state checkpoint/restart.

A checkpoint captures everything the resilient driver needs to resume a
run killed by a fail-stop crash *bit-identically*: the block→rank
assignment, the cost tracker's per-block estimates, the full telemetry
collector state, and — crucially for determinism — both RNG streams
(the driver's measurement-noise stream and the BSP model's step-noise
stream).  Restoring a checkpoint and replaying the remaining epochs
produces exactly the phases the uninterrupted run would have produced.

Two stores share one interface: :class:`MemoryCheckpointStore` (cheap,
test-friendly) and :class:`DirectoryCheckpointStore`, which persists
each checkpoint as a rotated snapshot directory ``ckpt-NNNNNN`` —

* ``meta.json`` — scalars, the assignment, cluster/tuning state, both
  RNG states, the cost-tracker estimates keyed by packed block key, and
  a SHA-256 digest of all of the above (integrity seal);
* ``steps.rprc`` / ``epochs.rprc`` / ... — the collector's tables in
  the repo's binary columnar format (per-column CRC32-verified).

Snapshots are written to a temp directory and published by a single
rename, the newest ``keep`` are retained, and :meth:`~
DirectoryCheckpointStore.load` verifies integrity and falls back to the
newest earlier *good* snapshot when the latest is corrupt or truncated
— a torn checkpoint write must not turn a recoverable crash into a
lost run.  The format is self-describing and versioned; see
``docs/resilience.md``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..telemetry.columnar import (
    ColumnTable,
    CorruptTelemetryError,
    fsync_dir,
    read_table,
    write_table,
)

__all__ = [
    "DriverCheckpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DirectoryCheckpointStore",
]

CHECKPOINT_VERSION = 2


@dataclasses.dataclass
class DriverCheckpoint:
    """Complete resumable driver state at one epoch boundary.

    ``epoch_index`` is the index (into the trajectory's epoch list) of
    the *next* epoch to execute; ``assignment`` is the placement of the
    epoch just completed, in that epoch's block order.  Progress
    counters (``total_steps``, ``lb_invocations``, ``msg_acc``) reflect
    logical progress — work re-done after a restore is not re-counted.
    """

    epoch_index: int
    total_steps: int
    lb_invocations: int
    placement_s_max: float
    msg_acc: np.ndarray
    assignment: Optional[np.ndarray]
    alive_nodes: Tuple[int, ...]          #: original node ids still in the job
    node_speed_factor: np.ndarray         #: current cluster health state
    n_ranks: int
    drain_queue: bool
    driver_rng_state: dict
    model_rng_state: dict
    #: the cost tracker's ``(keys, values, dim)`` (see ``BlockCostTracker.state``)
    tracker_state: Tuple[np.ndarray, np.ndarray, Optional[int]]
    tables: Dict[str, ColumnTable]        #: collector snapshot

    def clone(self) -> "DriverCheckpoint":
        """Deep copy, so restored state can't alias live driver state."""
        return copy.deepcopy(self)


class CheckpointStore(Protocol):
    """Where checkpoints live.  Only the latest checkpoint is retained —
    the driver's recovery model is single-level, like most production
    AMR checkpointing (Schornbaum & Rüde keep one redundant snapshot)."""

    def save(self, ckpt: DriverCheckpoint) -> None: ...
    def load(self) -> Optional[DriverCheckpoint]: ...


class MemoryCheckpointStore:
    """In-process checkpoint store (deep-copied both ways)."""

    def __init__(self) -> None:
        self._ckpt: Optional[DriverCheckpoint] = None
        self.n_saved = 0

    def save(self, ckpt: DriverCheckpoint) -> None:
        self._ckpt = ckpt.clone()
        self.n_saved += 1

    def load(self) -> Optional[DriverCheckpoint]:
        return self._ckpt.clone() if self._ckpt is not None else None


class DirectoryCheckpointStore:
    """Rotating on-disk checkpoint store using the repo's columnar format.

    Each :meth:`save` writes one self-contained snapshot directory
    ``ckpt-NNNNNN`` (staged as ``.tmp``, published by rename) and prunes
    all but the newest ``keep``.  :meth:`load` returns the newest
    snapshot that passes integrity verification — the meta digest, the
    version, and the per-column table checksums — silently skipping
    corrupt or truncated snapshots.  It returns ``None`` when no
    snapshot exists and raises :class:`CorruptTelemetryError` only when
    snapshots exist but *none* is loadable.
    """

    #: collector tables every valid checkpoint must contain
    REQUIRED_TABLES = ("steps", "epochs")

    def __init__(self, path: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        existing = self._snapshot_ids()
        self._next_id = (existing[-1] + 1) if existing else 0
        self.n_saved = 0

    # ------------------------------------------------------------------ #

    def _snapshot_ids(self) -> List[int]:
        ids = []
        for p in self.path.glob("ckpt-*"):
            if p.is_dir() and not p.name.endswith(".tmp"):
                try:
                    ids.append(int(p.name.split("-", 1)[1]))
                except ValueError:
                    continue
        return sorted(ids)

    def _snapshot_dir(self, snap_id: int) -> Path:
        return self.path / f"ckpt-{snap_id:06d}"

    def save(self, ckpt: DriverCheckpoint) -> None:
        tracker_keys, tracker_values, tracker_dim = ckpt.tracker_state
        meta = {
            "version": CHECKPOINT_VERSION,
            "epoch_index": ckpt.epoch_index,
            "total_steps": ckpt.total_steps,
            "lb_invocations": ckpt.lb_invocations,
            "placement_s_max": ckpt.placement_s_max,
            "msg_acc": [float(x) for x in ckpt.msg_acc],
            "assignment": None
            if ckpt.assignment is None
            else [int(r) for r in ckpt.assignment],
            "alive_nodes": [int(n) for n in ckpt.alive_nodes],
            "node_speed_factor": [float(f) for f in ckpt.node_speed_factor],
            "n_ranks": ckpt.n_ranks,
            "drain_queue": ckpt.drain_queue,
            "driver_rng_state": _jsonable_rng(ckpt.driver_rng_state),
            "model_rng_state": _jsonable_rng(ckpt.model_rng_state),
            "tracker": {
                "keys": np.asarray(tracker_keys, dtype=np.int64).tolist(),
                "values": np.asarray(tracker_values, dtype=np.float64).tolist(),
                "dim": tracker_dim,
            },
            "tables": sorted(ckpt.tables),
        }
        meta["digest"] = _meta_digest(meta)
        final = self._snapshot_dir(self._next_id)
        tmp = final.with_name(final.name + ".tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        for name, table in ckpt.tables.items():
            write_table(table, tmp / f"{name}.rprc")
        with open(tmp / "meta.json", "w") as fh:
            fh.write(json.dumps(meta))
            fh.flush()
            os.fsync(fh.fileno())
        # Publish: a snapshot directory without the .tmp suffix is, by
        # contract, complete (the rename is the commit point); the
        # directory fsync makes the publication power-loss durable.
        fsync_dir(tmp)
        tmp.replace(final)
        fsync_dir(self.path)
        self._next_id += 1
        self.n_saved += 1
        for old in self._snapshot_ids()[: -self.keep]:
            shutil.rmtree(self._snapshot_dir(old), ignore_errors=True)

    def load(self) -> Optional[DriverCheckpoint]:
        ids = self._snapshot_ids()
        if not ids:
            return None
        errors: List[str] = []
        for snap_id in reversed(ids):
            try:
                return self._load_one(self._snapshot_dir(snap_id))
            except (CorruptTelemetryError, OSError, KeyError, TypeError) as exc:
                # Fall back to the newest earlier good snapshot.
                errors.append(f"ckpt-{snap_id:06d}: {exc}")
        raise CorruptTelemetryError(
            "no loadable checkpoint: " + "; ".join(errors)
        )

    def _load_one(self, snap: Path) -> DriverCheckpoint:
        meta_path = snap / "meta.json"
        if not meta_path.exists():
            raise CorruptTelemetryError("snapshot has no meta.json")
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise CorruptTelemetryError(f"corrupt checkpoint meta: {exc}") from exc
        if not isinstance(meta, dict):
            raise CorruptTelemetryError("checkpoint meta is not an object")
        recorded = meta.get("digest")
        if recorded is None or _meta_digest(meta) != recorded:
            raise CorruptTelemetryError(
                "checkpoint meta digest mismatch (tampered or truncated)"
            )
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CorruptTelemetryError(
                f"checkpoint version {meta.get('version')} != {CHECKPOINT_VERSION}"
            )
        table_names = meta.get("tables") or [
            p.stem for p in sorted(snap.glob("*.rprc"))
        ]
        missing = [n for n in self.REQUIRED_TABLES if n not in table_names]
        if missing:
            raise CorruptTelemetryError(f"checkpoint lacks tables {missing}")
        tables = {
            name: read_table(snap / f"{name}.rprc") for name in table_names
        }
        assignment = meta["assignment"]
        tracker = meta["tracker"]
        return DriverCheckpoint(
            epoch_index=meta["epoch_index"],
            total_steps=meta["total_steps"],
            lb_invocations=meta["lb_invocations"],
            placement_s_max=meta["placement_s_max"],
            msg_acc=np.asarray(meta["msg_acc"], dtype=np.float64),
            assignment=None
            if assignment is None
            else np.asarray(assignment, dtype=np.int64),
            alive_nodes=tuple(meta["alive_nodes"]),
            node_speed_factor=np.asarray(
                meta["node_speed_factor"], dtype=np.float64
            ),
            n_ranks=meta["n_ranks"],
            drain_queue=meta["drain_queue"],
            driver_rng_state=_rng_from_json(meta["driver_rng_state"]),
            model_rng_state=_rng_from_json(meta["model_rng_state"]),
            tracker_state=(
                np.asarray(tracker["keys"], dtype=np.int64),
                np.asarray(tracker["values"], dtype=np.float64),
                tracker["dim"],
            ),
            tables=tables,
        )


def _meta_digest(meta: dict) -> str:
    """SHA-256 over the canonical JSON of everything but the digest."""
    body = {k: v for k, v in meta.items() if k != "digest"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


def _jsonable_rng(state: dict) -> dict:
    """Make a numpy BitGenerator state dict JSON-round-trippable.

    PCG64 state is plain Python (big) ints already; this guards against
    numpy scalar leakage from other generators.
    """
    def conv(x):
        if isinstance(x, dict):
            return {k: conv(v) for k, v in x.items()}
        if isinstance(x, np.ndarray):
            return {"__ndarray__": x.tolist(), "dtype": str(x.dtype)}
        if isinstance(x, (np.integer,)):
            return int(x)
        return x

    return conv(state)


def _rng_from_json(state: dict) -> dict:
    def conv(x):
        if isinstance(x, dict):
            if "__ndarray__" in x:
                return np.asarray(x["__ndarray__"], dtype=np.dtype(x["dtype"]))
            return {k: conv(v) for k, v in x.items()}
        return x

    return conv(state)
