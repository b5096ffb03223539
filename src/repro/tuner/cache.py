"""The persistent tuning cache: tuned configs computed once, reused forever.

A :class:`TuningCache` maps a *tuning key* — the SHA-256 fingerprint of
(problem shape/dtype, machine model, heuristic constraints) — to the
winning :class:`~repro.templates.params.MatmulParams` and its scores.
Backed by a JSON file written atomically (temp file + ``os.replace`` in
the cache's directory), with a versioned schema: a missing, corrupt,
partial or version-mismatched file never crashes the compiler — the
cache starts empty and the tuner falls back to searching (or to the
heuristic in ``cached-only`` mode).

Process-wide instances are shared through :func:`get_tuning_cache`, so
every compilation pointed at the same path (or at the in-memory default)
sees each other's entries — this is what lets a warmed cache make the
second ``compile_graph`` call skip search entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.options import CompilerOptions
from ..dtypes import DType
from ..graph_ir.symbolic import canonical_dim
from ..microkernel.machine import MachineModel
from ..templates.heuristics import HeuristicConstraints
from ..templates.params import MatmulParams

#: Version of the on-disk schema AND of the tuning-entry semantics.  Bump
#: whenever records become incompatible (field changes, cost-model units);
#: the graph signature folds this in so partitions compiled against
#: different tuning generations never collide in a PartitionCache.
TUNING_CACHE_SCHEMA_VERSION = 1


def machine_fingerprint(machine: MachineModel) -> str:
    """Stable digest of every machine fact the tuner's decisions depend on."""
    payload = {
        "name": machine.name,
        "num_cores": machine.num_cores,
        "frequency_hz": machine.frequency_hz,
        "flops_per_cycle": {
            dt.value: rate for dt, rate in machine.flops_per_cycle.items()
        },
        "vector_bytes": machine.vector_bytes,
        "num_vector_registers": machine.num_vector_registers,
        "caches": [
            [c.name, c.size_bytes, c.bandwidth_bytes_per_cycle, c.shared]
            for c in machine.caches
        ],
        "barrier_cycles": machine.barrier_cycles,
        "api_call_cycles": machine.api_call_cycles,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def tuning_key(
    m: int,
    n: int,
    k: int,
    dtype: DType,
    machine: MachineModel,
    batch: int = 1,
    constraints: Optional[HeuristicConstraints] = None,
    executor: str = CompilerOptions.executor,
) -> str:
    """The cache key of one tuning problem.

    Incorporates the op fingerprint (shape, dtype, batch), the machine
    fingerprint, the constraints other optimizations imposed — the same
    problem under a different layout-negotiation pin is a different
    tuning task — and the executor backend: measured-mode rankings time
    real executions under the configured backend, so records tuned for
    one executor are never served to another.
    """
    c = constraints or HeuristicConstraints()
    payload = {
        # A symbolic dim encodes as ["dyn", name, hint] so the dynamic
        # program's tuning entry never collides with the static problem
        # whose size equals the hint (SymDim would JSON-serialize as a
        # plain number otherwise).
        "op": [canonical_dim(d) for d in (batch, m, n, k)] + [dtype.value],
        "machine": machine_fingerprint(machine),
        "executor": executor,
        "constraints": [
            c.require_npn,
            c.require_mpn,
            list(c.require_outer) if c.require_outer else None,
            c.require_mb,
            c.require_nb,
            c.require_kb,
            c.allow_k_slicing,
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TuningRecord:
    """One cached tuning result."""

    params: MatmulParams
    #: Modeled cycles of the winning candidate (comparable to heuristic_cost).
    cost: float
    #: Modeled cycles of the expert heuristic's pick for the same problem.
    heuristic_cost: float
    #: Which evaluator decided: "model" or "measured".
    evaluator: str = "model"
    #: Wall seconds of the winner when measured (0.0 for model-only).
    measured_seconds: float = 0.0
    #: Candidates scored by the search that produced this record.
    evaluations: int = 0

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "cost": self.cost,
            "heuristic_cost": self.heuristic_cost,
            "evaluator": self.evaluator,
            "measured_seconds": self.measured_seconds,
            "evaluations": self.evaluations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TuningRecord":
        return cls(
            params=MatmulParams.from_dict(data["params"]),
            cost=float(data["cost"]),
            heuristic_cost=float(data["heuristic_cost"]),
            evaluator=str(data.get("evaluator", "model")),
            measured_seconds=float(data.get("measured_seconds", 0.0)),
            evaluations=int(data.get("evaluations", 0)),
        )


@dataclass
class TuningCacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    load_errors: int = 0
    #: Entries replaced in place by :meth:`TuningCache.update` — the
    #: online retuner superseding a stale compile-time decision.
    superseded_by_retune: int = 0


class TuningCache:
    """Thread-safe, optionally disk-backed map of tuning key -> record.

    ``path=None`` keeps the cache purely in memory (still shared
    process-wide via :func:`get_tuning_cache`).  With a path, every
    ``put`` writes through atomically, and construction loads whatever
    valid file exists — recovering from corruption by starting empty.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._entries: Dict[str, TuningRecord] = {}
        self.stats = TuningCacheStats()
        if path is not None:
            self._load()

    # -- persistence ----------------------------------------------------------

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("tuning cache root is not an object")
            if payload.get("version") != TUNING_CACHE_SCHEMA_VERSION:
                # A different generation's entries are not trusted.
                self.stats.load_errors += 1
                return
            for key, raw in payload.get("entries", {}).items():
                self._entries[key] = TuningRecord.from_dict(raw)
        except FileNotFoundError:
            pass
        except (ValueError, KeyError, TypeError, OSError):
            # Corrupt or partial file: start empty, never crash compilation.
            self.stats.load_errors += 1
            self._entries = {}

    def _save_locked(self) -> None:
        if self.path is None:
            return
        payload = {
            "version": TUNING_CACHE_SCHEMA_VERSION,
            "entries": {
                key: record.to_dict()
                for key, record in sorted(self._entries.items())
            },
        }
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tuning-", suffix=".json.tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # -- access ---------------------------------------------------------------

    def get(self, key: str) -> Optional[TuningRecord]:
        with self._lock:
            record = self._entries.get(key)
            if record is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return record

    def put(self, key: str, record: TuningRecord) -> None:
        with self._lock:
            self._entries[key] = record
            self.stats.stores += 1
            self._save_locked()

    def update(self, key: str, record: TuningRecord) -> bool:
        """Replace an entry in place (atomic rewrite), returning whether a
        previous record was superseded.

        This is the online retuner's write-back path: unlike :meth:`put`
        (which compile-time tuning only calls for keys it just missed on),
        ``update`` expects to overwrite, and counts the supersession so
        :class:`TuningCacheStats` shows how often live feedback overturned
        a compile-time decision.
        """
        with self._lock:
            replaced = key in self._entries
            self._entries[key] = record
            self.stats.stores += 1
            if replaced:
                self.stats.superseded_by_retune += 1
            self._save_locked()
        return replaced

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._save_locked()


#: Process-wide cache registry: one instance per absolute path, plus the
#: anonymous in-memory default under the ``None`` key.
_registry: Dict[Optional[str], TuningCache] = {}
_registry_lock = threading.Lock()


def get_tuning_cache(path: Optional[str] = None) -> TuningCache:
    """The shared :class:`TuningCache` for a path (or the in-memory default)."""
    key = os.path.abspath(path) if path is not None else None
    with _registry_lock:
        cache = _registry.get(key)
        if cache is None:
            cache = TuningCache(path=key)
            _registry[key] = cache
        return cache


def reset_tuning_caches() -> None:
    """Drop every registered cache instance (tests)."""
    with _registry_lock:
        _registry.clear()
