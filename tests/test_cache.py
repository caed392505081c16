"""Unit tests for the prefix memo-cache: pool ranking/eviction semantics,
prefix policies, exact-match lookup, and the content-addressed disk store.

The randomized-operations tests drive the pool against the brute-force
ReferencePool that tests/conftest.py shares with acceptance criterion 6 (a
plain dict of best-objective-per-prefix with explicit insertion counters)
to check the top-Q semantics hold under arbitrary interleavings, for every
prefix policy and 2-6 stages.
"""

import errno
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipetune.cache import (
    LookupResult,
    PREFIX_POLICIES,
    PrefixPool,
    StageOutputStore,
    _policy_deltas,
    lookup,
    update_pool,
)
from pipetune.errors import InvalidArgumentError, StorageError
from pipetune.pipeline import Observation

from conftest import ReferencePool


def _obs(x, y):
    x = np.asarray(x, dtype=float)
    return Observation(
        x=x, y=float(y), stage_costs=(1.0,) * 3, memo_delta=0, outputs=()
    )


STAGE_DIMS = (2, 1, 2)  # 3 stages, 5 dims total


def _pool(capacity, policy="all"):
    return PrefixPool(STAGE_DIMS, capacity, policy)


def _entries(pool):
    """Every source's (delta, values) addresses, duplicates kept, in
    insertion order, cut from its key at the policy's widths."""
    widths = {1: 2, 2: 3}  # leading values per depth of STAGE_DIMS
    return tuple((d, s.key[: widths[d]]) for s in pool.sources for d in pool.deltas)


# ---------------------------------------------------------------------------
# pool basics


def test_new_pool_defaults():
    pool = _pool(5)
    assert pool.sources == ()
    assert _entries(pool) == ()
    assert pool.deltas == (1, 2)
    assert lookup(pool, [1.0, 2.0, 3.0, 4.0, 5.0]).delta == 0


def test_pool_validation():
    with pytest.raises(InvalidArgumentError):
        _pool(-1)
    with pytest.raises(InvalidArgumentError):
        PrefixPool((2, 0, 1), 5, "all")
    with pytest.raises(InvalidArgumentError):
        _pool(5, "last")


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


# Story: under the "all" policy each source contributes one address per
# non-complete prefix length, with values sliced at stage boundaries, and
# is keyed by its widest prefix.
def test_update_inserts_all_prefixes():
    pool = update_pool(_pool(2), _obs([1, 2, 3, 4, 5], 10.0))
    assert pool.sources[0].key == (1.0, 2.0, 3.0)
    assert pool.distinct_entries() == ((1, (1.0, 2.0)), (2, (1.0, 2.0, 3.0)))
    assert pool.sources[0].objective == 10.0


# Story: the pool applies the policy it was created with.
def test_update_respects_policy():
    first = update_pool(_pool(5, "first"), _obs([1, 2, 3, 4, 5], 1.0))
    assert first.distinct_entries() == ((1, (1.0, 2.0)),)
    mean = update_pool(_pool(5, "mean"), _obs([1, 2, 3, 4, 5], 1.0))
    assert mean.distinct_entries() == ((2, (1.0, 2.0, 3.0)),)


# Story: at capacity, a strictly better observation evicts the worst source
# whole; an equal one loses the tie to the incumbent.
def test_eviction_requires_strictly_better():
    pool = _pool(2)
    pool = update_pool(pool, _obs([1, 1, 1, 1, 1], 1.0))
    pool = update_pool(pool, _obs([2, 2, 2, 2, 2], 2.0))

    # tie with the worst: no change
    tied = update_pool(pool, _obs([3, 3, 3, 3, 3], 1.0))
    assert tied is pool

    # strictly better: worst source (y=1) evicted with all its entries
    better = update_pool(pool, _obs([3, 3, 3, 3, 3], 1.5))
    assert [s.objective for s in better.sources] == [2.0, 1.5]
    assert all(values[:2] != (1.0, 1.0) for _, values in _entries(better))


# Story: among equal-objective sources the later insertion is evicted first,
# keeping the earliest incumbent stable; the survivors keep their order.
def test_eviction_tie_breaks_by_insertion_order():
    pool = _pool(2)
    pool = update_pool(pool, _obs([1, 1, 1, 1, 1], 5.0))
    pool = update_pool(pool, _obs([2, 2, 2, 2, 2], 5.0))
    pool = update_pool(pool, _obs([3, 3, 3, 3, 3], 6.0))
    assert [s.key[:2] for s in pool.sources] == [(1.0, 1.0), (3.0, 3.0)]


# Story: re-observing an already-cached prefix (a memoized candidate that
# shares its source's leading stages) must update that source's rank in
# place, never occupy a second slot.
def test_same_prefix_updates_in_place():
    pool = _pool(3)
    pool = update_pool(pool, _obs([1, 2, 3, 4, 5], 1.0))
    pool = update_pool(pool, _obs([7, 7, 7, 7, 7], 2.0))
    pool = update_pool(pool, _obs([1, 2, 3, 9, 9], 4.0))
    assert len(pool.sources) == 2
    assert [s.objective for s in pool.sources] == [4.0, 2.0]
    # a worse re-observation of the same prefix is a no-op
    assert update_pool(pool, _obs([1, 2, 3, 0, 0], 2.0)) is pool


# Story: distinct full prefixes sharing a shorter prefix are separate
# sources, but candidate enumeration collapses the duplicated short entry.
def test_distinct_entries_collapses_shared_short_prefix():
    pool = _pool(3)
    pool = update_pool(pool, _obs([1, 2, 3, 4, 5], 1.0))
    pool = update_pool(pool, _obs([1, 2, 7, 4, 5], 2.0))
    assert len(pool.sources) == 2
    assert len(_entries(pool)) == 4
    distinct = pool.distinct_entries()
    assert len(distinct) == 3  # shared delta-1 (1,2) appears once
    assert sum(1 for delta, _ in distinct if delta == 1) == 1


# Story: a pool computes its addresses once, when it is built; update_pool
# returns a new pool, whose addresses show the source it admitted or
# evicted, and leaves the old pool's as they were.
def test_entries_follow_admission_and_eviction():
    empty = _pool(1)
    first = update_pool(empty, _obs([1, 2, 3, 4, 5], 1.0))
    second = update_pool(first, _obs([6, 7, 8, 9, 9], 2.0))
    assert _entries(empty) == empty.distinct_entries() == ()
    assert first.distinct_entries() == ((1, (1.0, 2.0)), (2, (1.0, 2.0, 3.0)))
    assert second.distinct_entries() == ((1, (6.0, 7.0)), (2, (6.0, 7.0, 8.0)))
    assert _entries(second) == second.distinct_entries()
    assert first.distinct_entries()[0] == (1, (1.0, 2.0))


# Story: a pool without capacity, or over a one-stage pipeline, caches no
# depth under any policy, so it never stores and every lookup misses; its
# policy name is still checked.
def test_update_validation_and_noops():
    for policy in PREFIX_POLICIES:
        zero = _pool(0, policy)
        assert zero.deltas == ()
        assert update_pool(zero, _obs([1, 2, 3, 4, 5], 1.0)) is zero
        one = PrefixPool((3,), 5, policy)
        assert one.deltas == ()
        assert update_pool(one, _obs([1, 2, 3], 1.0)) is one
        assert lookup(one, [1.0, 2.0, 3.0]).delta == 0
    with pytest.raises(InvalidArgumentError):
        _pool(0, "last")
    with pytest.raises(InvalidArgumentError):
        PrefixPool((3,), 5, "last")


# ---------------------------------------------------------------------------
# lookup


# Story: lookup returns the longest exact prefix match; near-misses at any
# float digit do not count.
def test_lookup_longest_exact_match():
    pool = update_pool(_pool(3), _obs([1, 2, 3, 4, 5], 1.0))

    assert lookup(pool, [1.0, 2.0, 3.0, 99.0, 98.0]) == LookupResult(delta=2)
    assert lookup(pool, [1.0, 2.0, 30.0, 99.0, 98.0]) == LookupResult(delta=1)
    assert lookup(pool, [1.0 + 1e-12, 2.0, 3.0, 4.0, 5.0]).delta == 0


# ---------------------------------------------------------------------------
# randomized invariants against a reference model


# Story: a thousand random offers must keep the pool identical to the
# reference model and within its entry bound, and each lookup at the
# reference's depth. (The acceptance suite repeats this at ten thousand
# operations.)
def test_randomized_updates_match_reference():
    rng = np.random.default_rng(42)
    capacity = 4
    pool = _pool(capacity)
    ref = ReferencePool(capacity, STAGE_DIMS, (1, 2))
    grid = [float(v) for v in range(3)]

    for _ in range(1000):
        x = np.array([rng.choice(grid) for _ in range(5)])
        y = float(np.round(rng.normal(), 3))
        pool = update_pool(pool, _obs(x, y))
        ref.offer(x, y)

        got = {s.key: s.objective for s in pool.sources}
        assert got == dict(ref.sources())
        assert len(_entries(pool)) <= capacity * (len(STAGE_DIMS) - 1)

        probe = np.array([rng.choice(grid) for _ in range(5)])
        assert lookup(pool, probe).delta == ref.expected_delta(probe)


# Story: for every policy and 2-6 stages, with objectives coarse enough to
# tie, the pool keeps the reference's sources in the reference's insertion
# order, and lookup finds the deepest policy depth any kept source shares.
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    data=st.data(),
    stage_dims=st.lists(st.integers(1, 2), min_size=2, max_size=6),
    policy=st.sampled_from(PREFIX_POLICIES),
    capacity=st.integers(1, 4),
)
def test_pool_matches_reference_for_every_policy(data, stage_dims, policy, capacity):
    dim = sum(stage_dims)
    deltas = _policy_deltas(policy, len(stage_dims))
    pool = PrefixPool(stage_dims, capacity, policy)
    ref = ReferencePool(capacity, stage_dims, deltas)
    point = st.lists(st.sampled_from((0.0, 1.0)), min_size=dim, max_size=dim)
    seen = []

    for _ in range(data.draw(st.integers(1, 40), label="ops")):
        x = data.draw(point, label="x")
        if seen and data.draw(st.booleans(), label="reuse"):
            # a candidate copying an evaluated point's leading values
            cut = data.draw(st.integers(0, dim), label="cut")
            x = data.draw(st.sampled_from(seen), label="source")[:cut] + x[cut:]
        if data.draw(st.booleans(), label="update"):
            y = data.draw(st.integers(-2, 2), label="y") / 2
            pool = update_pool(pool, _obs(x, y))
            ref.offer(x, y)
            seen.append(x)
            assert [(s.key, s.objective) for s in pool.sources] == ref.sources()
            # whole sources: each one is cached at every policy depth
            assert set(pool.distinct_entries()) == {
                (d, s.key[: ref.widths[d]]) for s in pool.sources for d in deltas
            }
        else:
            assert lookup(pool, x).delta == ref.expected_delta(x)


# ---------------------------------------------------------------------------
# disk store


# Story: a store under a key reads back under the same key; a second store
# under it replaces the payload in the one file, atomically.
def test_store_roundtrip_and_idempotence(tmp_path):
    store = StageOutputStore(tmp_path)
    h1 = store.store_output(1, [0.5, 0.25], b"intermediate-state")
    assert store.resolve(1, [0.5, 0.25]) == b"intermediate-state"
    h2 = store.store_output(1, [0.5, 0.25], b"replacement")
    assert h1 == h2 == store.handle_for(1, [0.5, 0.25])
    assert store.resolve(1, [0.5, 0.25]) == b"replacement"
    assert len(list(tmp_path.glob("stage_1/*.bin"))) == 1
    assert not list(tmp_path.rglob("*.tmp"))


def test_store_distinct_keys_distinct_handles(tmp_path):
    store = StageOutputStore(tmp_path)
    a = store.store_output(1, [0.5], b"a")
    b = store.store_output(1, [0.5000001], b"b")
    c = store.store_output(2, [0.5], b"c")
    assert len({a, b, c}) == 3
    assert store.resolve(1, [0.5]) == b"a"
    assert store.resolve(1, [0.5000001]) == b"b"
    assert store.resolve(2, [0.5]) == b"c"


def test_store_resolve_errors(tmp_path):
    store = StageOutputStore(tmp_path)
    with pytest.raises(StorageError):
        store.resolve(1, [2.0])  # never stored

    handle = store.store_output(1, [1.0], b"payload")
    path = tmp_path / f"{handle}.bin"

    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(StorageError):
        store.resolve(1, [1.0])

    blob = b"PTSO" + bytes([9]) + (7).to_bytes(8, "big") + b"payload"
    path.write_bytes(blob)
    with pytest.raises(StorageError):
        store.resolve(1, [1.0])

    blob = b"PTSO" + bytes([1]) + (99).to_bytes(8, "big") + b"payload"
    path.write_bytes(blob)
    with pytest.raises(StorageError):
        store.resolve(1, [1.0])


# Story: a damaged blob is not kept: storing the same key again rewrites it.
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
        store.resolve(1, [1.0])

    assert store.store_output(1, [1.0], b"payload") == handle
    assert store.resolve(1, [1.0]) == b"payload"
    assert not list(tmp_path.rglob("*.tmp"))


def test_handle_for_is_pure(tmp_path):
    store = StageOutputStore(tmp_path)
    h = store.handle_for(2, [1.0, 2.0])
    assert h.startswith("stage_2/") and len(h.split("/")[1]) == 64
    assert not list(tmp_path.rglob("*.bin"))
    with pytest.raises(InvalidArgumentError):
        store.handle_for(0, [1.0])


# ---------------------------------------------------------------------------
# commit: the store holds exactly the pool's entries


def _commit(store, pool, obs):
    after = update_pool(pool, obs)
    store.commit(pool, after, obs)
    return after


def _blobs(root):
    return {str(p.relative_to(root).with_suffix("")) for p in root.rglob("*.bin")}


# Story: evicting a source deletes only the blobs no remaining entry has; a
# short prefix the admitted source shares with the evicted one stays.
def test_eviction_keeps_a_blob_another_source_shares(tmp_path):
    store = StageOutputStore(tmp_path)
    pool = PrefixPool((2, 3, 2), 1, "all")
    a = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    old = Observation(x=a, y=1.0, stage_costs=(1.0, 1.0, 1.0), memo_delta=0,
                      outputs=((1, b"a1"), (2, b"a2")))
    pool = _commit(store, pool, old)
    assert _blobs(tmp_path) == {store.handle_for(1, a[:2]), store.handle_for(2, a[:5])}

    b = a.copy()
    b[2:5] = [0.9, 0.8, 0.7]
    new = Observation(x=b, y=2.0, stage_costs=(0.0, 1.0, 1.0), memo_delta=1,
                      outputs=((2, b"b2"),))
    pool = _commit(store, pool, new)
    assert [s.objective for s in pool.sources] == [2.0]
    assert _blobs(tmp_path) == {store.handle_for(1, a[:2]), store.handle_for(2, b[:5])}
    assert store.resolve(1, b[:2]) == b"a1"
    assert store.resolve(2, b[:5]) == b"b2"


# Story: an evaluation the pool does not admit leaves the store untouched,
# and a pool without capacity never has anything written for it.
@pytest.mark.parametrize("capacity", [0, 1])
def test_commit_writes_nothing_the_pool_does_not_admit(tmp_path, capacity):
    store = StageOutputStore(tmp_path)
    pool = PrefixPool((1, 1, 1), capacity, "all")
    outputs = ((1, b"p1"), (2, b"p2"))
    pool = _commit(store, pool, Observation(np.array([0.1, 0.2, 0.3]), 5.0, (1.0,) * 3, 0, outputs))
    before = _blobs(tmp_path)
    assert len(before) == 2 * capacity
    low = Observation(np.array([0.4, 0.5, 0.6]), 1.0, (1.0,) * 3, 0, outputs)
    assert _commit(store, pool, low) is pool
    assert _blobs(tmp_path) == before


# Story: a write that fails part way (a full disk) raises StorageError,
# leaves no temporary file and deletes nothing, so the pool before the
# commit still resolves.
def test_failed_commit_deletes_nothing(tmp_path, monkeypatch):
    store = StageOutputStore(tmp_path)
    pool = _commit(store, PrefixPool((1, 1), 1, "all"),
                   Observation(np.array([0.1, 0.2]), 1.0, (1.0, 1.0), 0, ((1, b"old"),)))
    better = Observation(np.array([0.3, 0.4]), 2.0, (1.0, 1.0), 0, ((1, b"new"),))
    after = update_pool(pool, better)
    write_bytes = Path.write_bytes

    def disk_full(path, data):
        write_bytes(path, data[:3])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    with pytest.raises(StorageError, match="No space"):
        store.commit(pool, after, better)
    assert store.resolve(1, [0.1]) == b"old"
    assert _blobs(tmp_path) == {store.handle_for(1, [0.1])}
    assert not list(tmp_path.rglob("*.tmp"))
