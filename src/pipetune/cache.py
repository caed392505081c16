"""Prefix memo-cache: keeps every non-complete prefix of the top-Q
observations by objective, with their stage outputs persisted to an
on-disk store addressed by (stage, prefix values), and answers exact
prefix lookups.  A cached prefix is its (depth, values) address, and only
this module turns a prefix into one.

The store holds exactly the blobs of the pool's distinct addresses: an
output is written when the pool admits its prefix and deleted when the
last source with its address leaves the pool (``StageOutputStore.commit``).

Lookups use exact float equality on purpose: candidates reuse prefixes
by copying stored values verbatim, so anything short of an exact match
is a different configuration and must be recomputed.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidArgumentError, StorageError

if TYPE_CHECKING:
    from .pipeline import Observation

PREFIX_POLICIES = ("all", "first", "mean")

_BLOB_MAGIC = b"PTSO"
_BLOB_VERSION = 1
_HEADER = struct.Struct(">4sBQ")


@dataclass(frozen=True)
class _Source:
    """One observation's place in the pool: its rank objective and its
    widest cached prefix, from which every shallower address is cut;
    evicted as a unit."""

    objective: float
    key: tuple[float, ...]


@dataclass(frozen=True)
class PrefixPool:
    """At most ``capacity`` source observations' prefixes plus the empty
    prefix, which is always implicitly present.  ``sources`` is in
    insertion order: appends, in-place replacements and removals keep it."""

    stage_dims: tuple[int, ...]
    capacity: int
    policy: str
    sources: tuple[_Source, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stage_dims", tuple(int(d) for d in self.stage_dims))
        if self.capacity < 0:
            raise InvalidArgumentError("capacity must be nonnegative")
        if any(d < 1 for d in self.stage_dims):
            raise InvalidArgumentError("stage dims must be positive")
        # a pool is frozen, so its deltas, prefix widths and (delta, values)
        # addresses are computed once (this also refuses unknown policies)
        deltas = _policy_deltas(self.policy, len(self.stage_dims))
        if not (self.capacity > 0 and len(self.stage_dims) > 1):
            deltas = ()
        widths = tuple(accumulate(self.stage_dims, initial=0))
        distinct = tuple(
            dict.fromkeys((d, src.key[: widths[d]]) for src in self.sources for d in deltas)
        )
        object.__setattr__(self, "_deltas", deltas)
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_distinct", distinct)
        object.__setattr__(self, "_addresses", frozenset(distinct))

    @property
    def deltas(self) -> tuple[int, ...]:
        """The prefix depths this pool caches, ascending; ``()`` without
        capacity or on one stage. The one test of whether anything is
        memoized."""
        return self._deltas

    def distinct_entries(self) -> tuple[tuple[int, tuple[float, ...]], ...]:
        """Every cached prefix (not the empty one) as its (delta, values)
        address, in insertion, then ascending delta order, duplicates
        collapsed to the first occurrence.  Two sources can share a short
        prefix while differing later; identical values address identical
        stored outputs, so the duplicates carry no extra information."""
        return self._distinct


@dataclass(frozen=True)
class LookupResult:
    """Longest exact prefix match; ``delta == 0`` means only the empty
    prefix matched (run everything)."""

    delta: int


def _policy_deltas(policy: str, n_stages: int) -> tuple[int, ...]:
    if policy == "all":
        return tuple(range(1, n_stages))
    if policy == "first":
        return (1,)
    if policy == "mean":
        # single mid-pipeline prefix; ceil(K/2) <= K-1 for every K >= 2
        return (-(-n_stages // 2),)
    raise InvalidArgumentError(f"unknown prefix policy: {policy!r}")


def update_pool(pool: PrefixPool, obs: "Observation") -> PrefixPool:
    """Insert the observation's prefixes if it ranks in the top-Q sources by
    objective, evicting the lowest-ranked source when over capacity.

    Sources are keyed by their widest prefix: re-observing an already-cached
    prefix (e.g. evaluating a memoized candidate) updates that source's rank
    objective in place rather than occupying a second slot, so the pool always
    holds ``capacity`` distinct prefixes once enough have been seen.

    Eviction is whole-source and requires a strictly better objective: on a
    tie the incumbent (earlier insertion) stays.
    """
    if not pool.deltas:
        return pool
    key = obs.x[: pool._widths[pool.deltas[-1]]]
    sources = list(pool.sources)
    for i, src in enumerate(sources):
        if src.key == key:
            if not obs.y > src.objective:
                return pool
            sources[i] = _Source(objective=float(obs.y), key=key)
            return replace(pool, sources=tuple(sources))

    if len(sources) >= pool.capacity:
        # lowest rank = minimum objective; among ties the latest insertion
        worst = min(reversed(sources), key=lambda s: s.objective)
        if not obs.y > worst.objective:
            return pool
        sources.remove(worst)
    sources.append(_Source(objective=float(obs.y), key=key))
    return replace(pool, sources=tuple(sources))


def lookup(pool: PrefixPool, stage_values: Sequence[float]) -> LookupResult:
    """The deepest pool depth at which ``stage_values``' prefix is a cached
    address exactly; the empty prefix always matches, delta 0."""
    vals = tuple(float(v) for v in stage_values)
    for delta in reversed(pool.deltas):
        if (delta, vals[: pool._widths[delta]]) in pool._addresses:
            return LookupResult(delta=delta)
    return LookupResult(delta=0)


class StageOutputStore:
    """Disk-backed store for intermediate stage outputs, addressed by the
    stage index and the key values (the configuration's leading values
    through that stage); callers read back with the same pair.

    Layout: ``<root>/stage_<k>/<hex sha256 of key values>.bin``; each blob is
    a 4-byte magic, a version byte, an 8-byte big-endian payload length, then
    the payload. Identical keys share one record. ``commit`` keeps the store
    equal to a prefix pool's addresses: it writes what the pool admits and
    deletes what it evicts, so nothing else is written.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot create cache root: {exc}", str(self.root))

    def clear(self) -> None:
        """Delete the blobs and partial writes of this layout, the
        ``stage_<k>/*.bin`` and ``*.tmp`` files, and nothing else under the
        root, so that a run starting in a root an earlier run used holds
        only what it writes itself and holds exactly its pool's addresses.
        One directory listing on an empty root."""
        for path in self.root.glob("stage_*/*"):
            if path.suffix in (".bin", ".tmp"):
                try:
                    path.unlink(missing_ok=True)
                except OSError as exc:
                    raise StorageError(f"cannot delete stage output: {exc}", str(path))

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
        """Write the payload atomically, replacing any blob under these key
        values, and return the handle.  ``commit`` never stores an address
        whose blob resolves: a depth run above the hit is a new address, one
        at or below it was rerun because its blob did not resolve."""
        handle = self.handle_for(stage_index, key_values)
        path = self._path(handle)
        blob = _HEADER.pack(_BLOB_MAGIC, _BLOB_VERSION, len(payload)) + payload
        tmp = path.with_suffix(".tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StorageError(f"cannot write stage output: {exc}", str(path))
        return handle

    def commit(self, before: PrefixPool, after: PrefixPool, obs: "Observation") -> None:
        """Move the store from ``before``'s addresses to ``after``'s, where
        ``after`` is ``update_pool(before, obs)``: store each output of
        ``obs`` whose (depth, prefix) is an address of ``after`` (an admitted
        prefix, or one whose damaged blob this evaluation reran), then delete
        the blob of every address of ``before`` that ``after`` lacks.  A
        write that fails raises StorageError before anything is deleted, so
        ``before`` still resolves everywhere it did."""
        kept = after._addresses
        for depth, payload in obs.outputs:
            values = obs.x[: after._widths[depth]]
            if (depth, values) in kept:
                self.store_output(depth, values, payload)
        for address in before.distinct_entries():
            if address not in kept:
                path = self._path(self.handle_for(*address))
                try:
                    path.unlink(missing_ok=True)
                except OSError as exc:
                    raise StorageError(f"cannot delete stage output: {exc}", str(path))

    def resolve(self, stage_index: int, key_values: Sequence[float]) -> bytes:
        """The payload stored under these key values; StorageError when it
        is missing or damaged."""
        path = self._path(self.handle_for(stage_index, key_values))
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
