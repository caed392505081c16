"""Prefix memo-cache: keeps every non-complete prefix of the top-Q
observations by objective, with their stage outputs persisted to a
content-addressed on-disk store, and answers exact prefix lookups.

Lookups use exact float equality on purpose: candidates reuse prefixes
by copying stored values verbatim, so anything short of an exact match
is a different configuration and must be recomputed.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidArgumentError, StorageError

if TYPE_CHECKING:
    from .pipeline import Observation

PREFIX_POLICIES = ("all", "first", "mean")

DEFAULT_CAPACITY = 5

_BLOB_MAGIC = b"PTSO"
_BLOB_VERSION = 1
_HEADER = struct.Struct(">4sBQ")


@dataclass(frozen=True)
class PrefixEntry:
    """One cached prefix: the first ``delta`` stages' hyperparameters of a
    source observation, the handle of stage delta's stored output, and the
    source's objective (used for ranking)."""

    values: tuple[float, ...]
    delta: int
    output_handle: str
    source_objective: float

    def __post_init__(self):
        if self.delta < 1:
            raise InvalidArgumentError("prefix delta must be >= 1")
        if not self.values:
            raise InvalidArgumentError("prefix values must be nonempty")


@dataclass(frozen=True)
class _Source:
    """All prefixes contributed by one observation; evicted as a unit."""

    objective: float
    order: int
    entries: tuple[PrefixEntry, ...]


@dataclass(frozen=True)
class PrefixPool:
    """At most ``capacity`` source observations' prefixes plus the empty
    prefix, which is always implicitly present."""

    stage_dims: tuple[int, ...]
    capacity: int = DEFAULT_CAPACITY
    sources: tuple[_Source, ...] = ()
    next_order: int = 0

    def __post_init__(self):
        if self.capacity < 0:
            raise InvalidArgumentError("capacity must be nonnegative")
        if any(d < 1 for d in self.stage_dims):
            raise InvalidArgumentError("stage dims must be positive")

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def all_entries(self) -> tuple[PrefixEntry, ...]:
        """Every cached prefix in deterministic order (insertion, then
        ascending delta). The empty prefix is not an entry."""
        ordered = sorted(self.sources, key=lambda s: s.order)
        return tuple(e for src in ordered for e in sorted(src.entries, key=lambda e: e.delta))

    def distinct_entries(self) -> tuple[PrefixEntry, ...]:
        """``all_entries`` with duplicate (delta, values) pairs collapsed to
        the first occurrence.  Two sources can share a short prefix while
        differing later; identical values address identical stored outputs,
        so the duplicates carry no extra information."""
        seen: set[tuple[int, tuple[float, ...]]] = set()
        out = []
        for entry in self.all_entries():
            key = (entry.delta, entry.values)
            if key not in seen:
                seen.add(key)
                out.append(entry)
        return tuple(out)

    def min_source_objective(self) -> float:
        if not self.sources:
            return float("-inf")
        return min(src.objective for src in self.sources)


@dataclass(frozen=True)
class LookupResult:
    """Longest exact prefix match; ``delta == 0`` means only the empty
    prefix matched (no handle, run everything)."""

    output_handle: str | None
    delta: int

    @property
    def hit(self) -> bool:
        return self.delta > 0


def empty_pool(stage_dims: Sequence[int], capacity: int = DEFAULT_CAPACITY) -> PrefixPool:
    return PrefixPool(stage_dims=tuple(int(d) for d in stage_dims), capacity=capacity)


def _policy_deltas(policy: str, n_stages: int) -> tuple[int, ...]:
    if policy == "all":
        return tuple(range(1, n_stages))
    if policy == "first":
        return (1,)
    if policy == "mean":
        # single mid-pipeline prefix; ceil(K/2) <= K-1 for every K >= 2
        return (-(-n_stages // 2),)
    raise InvalidArgumentError(f"unknown prefix policy: {policy!r}")


def update_pool(
    pool: PrefixPool,
    obs: "Observation",
    outputs: Sequence[str],
    policy: str = "all",
) -> PrefixPool:
    """Insert the observation's prefixes if it ranks in the top-Q sources by
    objective, evicting the lowest-ranked source when over capacity.

    Sources are keyed by their widest prefix: re-observing an already-cached
    prefix (e.g. evaluating a memoized candidate) updates that source's rank
    objective in place rather than occupying a second slot, so the pool always
    holds ``capacity`` distinct prefixes once enough have been seen.

    Eviction is whole-source and requires a strictly better objective: on a
    tie the incumbent (earlier insertion) stays.
    """
    n_stages = len(pool.stage_dims)
    if pool.capacity == 0 or n_stages < 2:
        return pool
    if len(outputs) != n_stages - 1:
        raise InvalidArgumentError(
            f"expected {n_stages - 1} output handles, got {len(outputs)}"
        )

    x = np.asarray(obs.x, dtype=float)
    deltas = _policy_deltas(policy, n_stages)

    def make_entries(objective: float) -> tuple[PrefixEntry, ...]:
        entries = []
        for delta in deltas:
            width = int(sum(pool.stage_dims[:delta]))
            entries.append(
                PrefixEntry(
                    values=tuple(float(v) for v in x[:width]),
                    delta=delta,
                    output_handle=outputs[delta - 1],
                    source_objective=objective,
                )
            )
        return tuple(entries)

    key_width = int(sum(pool.stage_dims[: max(deltas)]))
    key = tuple(float(v) for v in x[:key_width])
    sources = list(pool.sources)
    for i, src in enumerate(sources):
        if max(e.delta for e in src.entries) == max(deltas) and key == max(
            src.entries, key=lambda e: e.delta
        ).values:
            if not obs.y > src.objective:
                return pool
            sources[i] = _Source(
                objective=float(obs.y), order=src.order, entries=make_entries(float(obs.y))
            )
            return replace(pool, sources=tuple(sources))

    if len(sources) >= pool.capacity:
        # lowest rank = minimum objective; among ties the latest insertion
        worst = min(sources, key=lambda s: (s.objective, -s.order))
        if not obs.y > worst.objective:
            return pool
        sources.remove(worst)

    sources.append(
        _Source(
            objective=float(obs.y),
            order=pool.next_order,
            entries=make_entries(float(obs.y)),
        )
    )
    return replace(pool, sources=tuple(sources), next_order=pool.next_order + 1)


def lookup(pool: PrefixPool, stage_values: Sequence[float]) -> LookupResult:
    """Longest entry whose values equal the leading components of
    ``stage_values`` exactly; the empty prefix always matches with delta 0."""
    vals = tuple(float(v) for v in stage_values)
    best = LookupResult(output_handle=None, delta=0)
    for entry in pool.all_entries():
        if entry.delta <= best.delta:
            continue
        width = len(entry.values)
        if width <= len(vals) and vals[:width] == entry.values:
            best = LookupResult(output_handle=entry.output_handle, delta=entry.delta)
    return best


class StageOutputStore:
    """Content-addressed, disk-backed store for intermediate stage outputs.

    Layout: ``<root>/stage_<k>/<hex sha256 of key values>.bin``; each blob is
    a 4-byte magic, a version byte, an 8-byte big-endian payload length, then
    the payload. Stores are idempotent: identical keys share one record.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create cache root: {exc}", str(self.root))

    def handle_for(self, stage_index: int, key_values: Sequence[float]) -> str:
        """Handle a store of these key values would produce; no I/O."""
        if stage_index < 1:
            raise InvalidArgumentError("stage_index must be >= 1")
        digest = hashlib.sha256(
            np.asarray(key_values, dtype=float).tobytes()
        ).hexdigest()
        return f"stage_{stage_index}/{digest}"

    def _path(self, handle: str) -> Path:
        return self.root / f"{handle}.bin"

    def store_output(
        self, stage_index: int, key_values: Sequence[float], payload: bytes
    ) -> str:
        """Store once per key: an existing blob is kept while it verifies,
        and a damaged one is rewritten atomically."""
        handle = self.handle_for(stage_index, key_values)
        path = self._path(handle)
        if path.exists():
            try:
                self._read(path)
                return handle
            except StorageError:
                pass
        blob = _HEADER.pack(_BLOB_MAGIC, _BLOB_VERSION, len(payload)) + payload
        tmp = path.with_suffix(".tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            raise StorageError(f"cannot write stage output: {exc}", str(path))
        return handle

    def resolve(self, handle: str) -> bytes:
        return self._read(self._path(handle))

    def _read(self, path: Path) -> bytes:
        """The payload of a verified blob; StorageError otherwise."""
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read stage output: {exc}", str(path))
        if len(blob) < _HEADER.size:
            raise StorageError("truncated stage output blob", str(path))
        magic, version, length = _HEADER.unpack_from(blob)
        if magic != _BLOB_MAGIC:
            raise StorageError("bad magic in stage output blob", str(path))
        if version != _BLOB_VERSION:
            raise StorageError(f"unsupported blob version {version}", str(path))
        payload = blob[_HEADER.size :]
        if len(payload) != length:
            raise StorageError("stage output blob length mismatch", str(path))
        return payload
