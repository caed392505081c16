"""Unit tests for the prefix memo-cache: pool ranking/eviction semantics,
prefix policies, exact-match lookup, and the content-addressed disk store.

The randomized-operations test drives the pool against a brute-force
reference model (a plain dict of best-objective-per-prefix) to check the
top-Q semantics hold under arbitrary interleavings.
"""

import numpy as np
import pytest

from pipetune.cache import (
    DEFAULT_CAPACITY,
    LookupResult,
    PREFIX_POLICIES,
    PrefixEntry,
    PrefixPool,
    StageOutputStore,
    _policy_deltas,
    empty_pool,
    lookup,
    update_pool,
)
from pipetune.errors import InvalidArgumentError, StorageError
from pipetune.pipeline import Observation


def _obs(x, y):
    x = np.asarray(x, dtype=float)
    return Observation(
        x=x, y=float(y), stage_costs=(1.0,) * 3, memo_delta=0, wall_time=0.0
    )


def _handles(tag):
    return [f"stage_1/{tag}", f"stage_2/{tag}"]


STAGE_DIMS = (2, 1, 2)  # 3 stages, 5 dims total


# ---------------------------------------------------------------------------
# pool basics


def test_empty_pool_defaults():
    pool = empty_pool(STAGE_DIMS)
    assert pool.capacity == DEFAULT_CAPACITY
    assert pool.n_sources == 0
    assert pool.all_entries() == ()
    assert pool.min_source_objective() == float("-inf")


def test_pool_validation():
    with pytest.raises(InvalidArgumentError):
        empty_pool(STAGE_DIMS, capacity=-1)
    with pytest.raises(InvalidArgumentError):
        empty_pool((2, 0, 1))
    with pytest.raises(InvalidArgumentError):
        PrefixEntry(values=(1.0,), delta=0, output_handle="h", source_objective=0.0)
    with pytest.raises(InvalidArgumentError):
        PrefixEntry(values=(), delta=1, output_handle="h", source_objective=0.0)


def test_policy_deltas():
    assert _policy_deltas("all", 3) == (1, 2)
    assert _policy_deltas("first", 3) == (1,)
    assert _policy_deltas("mean", 3) == (2,)  # ceil(3/2)
    assert _policy_deltas("mean", 4) == (2,)
    assert _policy_deltas("mean", 2) == (1,)
    assert _policy_deltas("all", 5) == (1, 2, 3, 4)
    with pytest.raises(InvalidArgumentError):
        _policy_deltas("last", 3)
    assert set(PREFIX_POLICIES) == {"all", "first", "mean"}


# ---------------------------------------------------------------------------
# update semantics


# Story: under the "all" policy each source contributes one entry per
# non-complete prefix length, with values sliced at stage boundaries.
def test_update_inserts_all_prefixes():
    pool = empty_pool(STAGE_DIMS, capacity=2)
    pool = update_pool(pool, _obs([1, 2, 3, 4, 5], 10.0), _handles("a"), "all")
    entries = pool.all_entries()
    assert [e.delta for e in entries] == [1, 2]
    assert entries[0].values == (1.0, 2.0)
    assert entries[1].values == (1.0, 2.0, 3.0)
    assert entries[0].output_handle == "stage_1/a"
    assert entries[1].output_handle == "stage_2/a"
    assert all(e.source_objective == 10.0 for e in entries)


def test_update_respects_policy():
    first = update_pool(empty_pool(STAGE_DIMS), _obs([1, 2, 3, 4, 5], 1.0), _handles("a"), "first")
    assert [e.delta for e in first.all_entries()] == [1]
    mean = update_pool(empty_pool(STAGE_DIMS), _obs([1, 2, 3, 4, 5], 1.0), _handles("a"), "mean")
    assert [e.delta for e in mean.all_entries()] == [2]


# Story: at capacity, a strictly better observation evicts the worst source
# whole; an equal one loses the tie to the incumbent.
def test_eviction_requires_strictly_better():
    pool = empty_pool(STAGE_DIMS, capacity=2)
    pool = update_pool(pool, _obs([1, 1, 1, 1, 1], 1.0), _handles("a"), "all")
    pool = update_pool(pool, _obs([2, 2, 2, 2, 2], 2.0), _handles("b"), "all")

    # tie with the worst: no change
    tied = update_pool(pool, _obs([3, 3, 3, 3, 3], 1.0), _handles("c"), "all")
    assert {s.objective for s in tied.sources} == {1.0, 2.0}

    # strictly better: worst source (y=1) evicted with all its entries
    better = update_pool(pool, _obs([3, 3, 3, 3, 3], 1.5), _handles("c"), "all")
    assert {s.objective for s in better.sources} == {1.5, 2.0}
    assert all(e.values != (1.0, 1.0) for e in better.sources[0].entries)


# Story: among equal-objective sources the later insertion is evicted first,
# keeping the earliest incumbent stable.
def test_eviction_tie_breaks_by_insertion_order():
    pool = empty_pool(STAGE_DIMS, capacity=2)
    pool = update_pool(pool, _obs([1, 1, 1, 1, 1], 5.0), _handles("a"), "all")
    pool = update_pool(pool, _obs([2, 2, 2, 2, 2], 5.0), _handles("b"), "all")
    pool = update_pool(pool, _obs([3, 3, 3, 3, 3], 6.0), _handles("c"), "all")
    kept = {tuple(s.entries[0].values) for s in pool.sources}
    assert kept == {(1.0, 1.0), (3.0, 3.0)}


# Story: re-observing an already-cached prefix (a memoized candidate that
# shares its source's leading stages) must update that source's rank in
# place, never occupy a second slot.
def test_same_prefix_updates_in_place():
    pool = empty_pool(STAGE_DIMS, capacity=3)
    pool = update_pool(pool, _obs([1, 2, 3, 4, 5], 1.0), _handles("a"), "all")
    pool = update_pool(pool, _obs([1, 2, 3, 9, 9], 4.0), _handles("a"), "all")
    assert pool.n_sources == 1
    assert pool.sources[0].objective == 4.0
    # a worse re-observation of the same prefix is a no-op
    pool = update_pool(pool, _obs([1, 2, 3, 0, 0], 2.0), _handles("a"), "all")
    assert pool.sources[0].objective == 4.0
    assert pool.next_order == 1


# Story: distinct full prefixes sharing a shorter prefix are separate
# sources, but candidate enumeration collapses the duplicated short entry.
def test_distinct_entries_collapses_shared_short_prefix():
    pool = empty_pool(STAGE_DIMS, capacity=3)
    pool = update_pool(pool, _obs([1, 2, 3, 4, 5], 1.0), _handles("a"), "all")
    pool = update_pool(pool, _obs([1, 2, 7, 4, 5], 2.0), _handles("b"), "all")
    assert pool.n_sources == 2
    assert len(pool.all_entries()) == 4
    distinct = pool.distinct_entries()
    assert len(distinct) == 3  # shared delta-1 (1,2) appears once
    assert sum(1 for e in distinct if e.delta == 1) == 1


def test_update_validation_and_noops():
    pool = empty_pool(STAGE_DIMS, capacity=2)
    with pytest.raises(InvalidArgumentError):
        update_pool(pool, _obs([1, 2, 3, 4, 5], 1.0), ["only_one"], "all")
    # capacity zero: never stores
    zero = empty_pool(STAGE_DIMS, capacity=0)
    assert update_pool(zero, _obs([1, 2, 3, 4, 5], 1.0), _handles("a"), "all") is zero
    # single-stage pipeline: nothing to prefix
    one = empty_pool((3,), capacity=5)
    assert update_pool(one, _obs([1, 2, 3], 1.0), [], "all") is one


# ---------------------------------------------------------------------------
# lookup


# Story: lookup returns the longest exact prefix match; near-misses at any
# float digit do not count.
def test_lookup_longest_exact_match():
    pool = empty_pool(STAGE_DIMS, capacity=3)
    pool = update_pool(pool, _obs([1, 2, 3, 4, 5], 1.0), _handles("a"), "all")

    hit = lookup(pool, [1.0, 2.0, 3.0, 99.0, 98.0])
    assert hit == LookupResult(output_handle="stage_2/a", delta=2)
    assert hit.hit

    short = lookup(pool, [1.0, 2.0, 30.0, 99.0, 98.0])
    assert short == LookupResult(output_handle="stage_1/a", delta=1)

    miss = lookup(pool, [1.0 + 1e-12, 2.0, 3.0, 4.0, 5.0])
    assert miss.delta == 0 and miss.output_handle is None and not miss.hit


# ---------------------------------------------------------------------------
# randomized invariants against a reference model


class _Reference:
    """Brute-force top-Q-distinct-prefixes bookkeeping."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = {}  # prefix key -> (objective, insertion order)
        self.counter = 0

    def offer(self, key, y):
        if key in self.items:
            old_y, order = self.items[key]
            if y > old_y:
                self.items[key] = (y, order)
            return
        if len(self.items) < self.capacity:
            self.items[key] = (y, self.counter)
            self.counter += 1
            return
        worst_key = min(self.items, key=lambda k: (self.items[k][0], -self.items[k][1]))
        if y > self.items[worst_key][0]:
            del self.items[worst_key]
            self.items[key] = (y, self.counter)
            self.counter += 1


# Story: a thousand random offers must keep the pool identical to the
# reference model and within its entry bound. (The acceptance suite repeats
# this at ten thousand operations.)
def test_randomized_updates_match_reference():
    rng = np.random.default_rng(42)
    capacity = 4
    pool = empty_pool(STAGE_DIMS, capacity=capacity)
    ref = _Reference(capacity)
    grid = [float(v) for v in range(3)]

    for _ in range(1000):
        x = np.array([rng.choice(grid) for _ in range(5)])
        y = float(np.round(rng.normal(), 3))
        pool = update_pool(pool, _obs(x, y), _handles(f"{x[:3]}"), "all")
        ref.offer(tuple(x[:3]), y)

        got = {
            tuple(max(s.entries, key=lambda e: e.delta).values): s.objective
            for s in pool.sources
        }
        want = {k: v[0] for k, v in ref.items.items()}
        assert got == want
        assert len(pool.all_entries()) <= capacity * (len(STAGE_DIMS) - 1)

        probe = np.array([rng.choice(grid) for _ in range(5)])
        hit = lookup(pool, probe)
        match_deltas = [
            e.delta
            for e in pool.all_entries()
            if tuple(probe[: len(e.values)]) == e.values
        ]
        assert hit.delta == (max(match_deltas) if match_deltas else 0)


# ---------------------------------------------------------------------------
# disk store


def test_store_roundtrip_and_idempotence(tmp_path):
    store = StageOutputStore(tmp_path)
    payload = b"intermediate-state"
    h1 = store.store_output(1, [0.5, 0.25], payload)
    h2 = store.store_output(1, [0.5, 0.25], b"ignored: same key already stored")
    assert h1 == h2 == store.handle_for(1, [0.5, 0.25])
    assert store.resolve(h1) == payload
    files = list(tmp_path.glob("stage_1/*.bin"))
    assert len(files) == 1


def test_store_distinct_keys_distinct_handles(tmp_path):
    store = StageOutputStore(tmp_path)
    a = store.store_output(1, [0.5], b"a")
    b = store.store_output(1, [0.5000001], b"b")
    c = store.store_output(2, [0.5], b"c")
    assert len({a, b, c}) == 3
    assert store.resolve(a) == b"a"
    assert store.resolve(b) == b"b"
    assert store.resolve(c) == b"c"


def test_store_resolve_errors(tmp_path):
    store = StageOutputStore(tmp_path)
    with pytest.raises(StorageError):
        store.resolve("stage_1/" + "0" * 64)

    handle = store.store_output(1, [1.0], b"payload")
    path = tmp_path / f"{handle}.bin"

    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(StorageError):
        store.resolve(handle)

    blob = b"PTSO" + bytes([9]) + (7).to_bytes(8, "big") + b"payload"
    path.write_bytes(blob)
    with pytest.raises(StorageError):
        store.resolve(handle)

    blob = b"PTSO" + bytes([1]) + (99).to_bytes(8, "big") + b"payload"
    path.write_bytes(blob)
    with pytest.raises(StorageError):
        store.resolve(handle)


# Story: a damaged blob is not kept: storing the same key again rewrites it,
# while an intact blob still wins over a later store.
@pytest.mark.parametrize(
    "damage",
    [lambda b: b[:5], lambda b: b"XXXX" + b[4:], lambda b: b[:-1]],
    ids=["truncated_header", "bad_magic", "short_payload"],
)
def test_store_rewrites_damaged_blob(tmp_path, damage):
    store = StageOutputStore(tmp_path)
    handle = store.store_output(1, [1.0], b"payload")
    path = tmp_path / f"{handle}.bin"
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(StorageError):
        store.resolve(handle)

    assert store.store_output(1, [1.0], b"payload") == handle
    assert store.resolve(handle) == b"payload"
    assert not list(tmp_path.rglob("*.tmp"))


def test_handle_for_is_pure(tmp_path):
    store = StageOutputStore(tmp_path)
    h = store.handle_for(2, [1.0, 2.0])
    assert h.startswith("stage_2/") and len(h.split("/")[1]) == 64
    assert not list(tmp_path.rglob("*.bin"))
    with pytest.raises(InvalidArgumentError):
        store.handle_for(0, [1.0])
