"""Tests for the LRU cache and array content digests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.cache import LRUCache, row_digests
from repro.utils.errors import ConfigurationError


def array_digest(array: np.ndarray) -> bytes:
    """Content digest of one array, dtype- and shape-aware: the oracle for
    ``row_digests`` (the per-sample function it replaced in ``src/``).  Two
    arrays get the same digest iff they have equal dtype, shape and C-order
    bytes."""
    arr = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
    h.update(arr.tobytes())
    return h.digest()


def test_lru_eviction_order():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a" -> "b" is now LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_lru_counters_and_clear():
    cache = LRUCache(4)
    assert cache.get("missing") is None
    cache.put("x", 42)
    assert cache.get("x") == 42
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)
    info = cache.info()
    assert info["size"] == 1 and info["maxsize"] == 4
    cache.clear()
    assert len(cache) == 0 and "x" not in cache


def test_lru_maxsize_zero_disables_storage():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None


def test_lru_negative_maxsize_rejected():
    with pytest.raises(ConfigurationError):
        LRUCache(-1)


def test_lru_safe_under_concurrent_get_put():
    import threading

    cache = LRUCache(16)  # small enough that evictions race with gets
    errors = []

    def hammer(offset):
        try:
            for i in range(2000):
                key = (i + offset) % 48
                cache.put(key, i)
                cache.get(key)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(o,)) for o in (0, 7, 19, 31)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not errors
    assert len(cache) <= 16


def test_array_digest_sensitive_to_content_shape_dtype(rng):
    a = rng.normal(size=(4, 4))
    assert array_digest(a) == array_digest(a.copy())
    assert array_digest(a) != array_digest(a.reshape(2, 8))
    assert array_digest(a) != array_digest(a.astype(np.float32))
    b = a.copy()
    b[0, 0] += 1e-12
    assert array_digest(a) != array_digest(b)


def test_row_digests_match_per_row_digest(rng):
    batch = rng.normal(size=(5, 3, 3))
    digests = row_digests(batch)
    assert len(digests) == 5
    assert digests == [array_digest(row) for row in batch]
    assert len(set(digests)) == 5
    assert row_digests(np.empty((0, 1, 15, 15))) == row_digests(np.empty((0,))) == []
    with pytest.raises(ConfigurationError):
        row_digests(np.float64(3.0))


@settings(max_examples=150, deadline=None)
@given(
    dtype=st.sampled_from(["f8", "f4", ">f8", "i2", "u1", "?", "c8", "M8[s]", "i4,f4", "O"]),
    shape=st.lists(st.integers(0, 4), min_size=2, max_size=4).map(tuple),
    layout=st.sampled_from(["c", "fortran", "strided", "reversed", "readonly"]),
    seed=st.integers(0, 10**6),
)
def test_row_digests_are_the_array_digest_of_every_row(dtype, shape, layout, seed):
    rng = np.random.default_rng(seed)
    wide = shape[:-1] + (2 * shape[-1],) if layout == "strided" else shape
    raw = rng.integers(0, 256, size=int(np.prod(wide)) * np.dtype(dtype).itemsize, dtype=np.uint8)
    if dtype == "O":
        batch = np.array([{"n": int(v)} for v in raw[: int(np.prod(wide))]] + [None],
                         dtype=object)[:-1].reshape(wide)
    else:
        batch = raw.view(dtype).reshape(wide)
    batch = {"c": lambda a: a, "fortran": np.asfortranarray, "strided": lambda a: a[..., ::2],
             "reversed": lambda a: a[::-1], "readonly": lambda a: a}[layout](batch)
    if layout == "readonly":
        batch.flags.writeable = False
    kept = batch.copy()
    digests = row_digests(batch)  # rows of zero width included
    assert digests == [array_digest(row) for row in batch] and len(digests) == shape[0]
    assert all(type(digest) is bytes and len(digest) == 16 for digest in digests)
    if dtype != "O":  # the input is hashed where it lies, and left as it was
        assert batch.tobytes() == kept.tobytes()


class PerKeyLRU(LRUCache):
    """``get`` / ``put`` as they were before the batch calls existed: the
    reference the batch calls (and today's ``get`` / ``put``) must match."""

    def get(self, key, default=None):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.hits += 1
                return self._data[key]
            self.misses += 1
            return default

    def put(self, key, value):
        if self.maxsize == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)


def _per_key(cache, steps):
    """``steps`` through ``get`` / ``put``, one key at a time."""
    out = []
    for op, keys, values in steps:
        if op == "get":
            out.append([cache.get(key, "absent") for key in keys])
        else:
            for key, value in zip(keys, values):
                cache.put(key, value)
    return out


def _per_batch(cache, steps):
    out = []
    for op, keys, values in steps:
        if op == "get":
            out.append(cache.get_many(keys, "absent"))
        else:
            cache.put_many(keys, values)
    return out


@settings(max_examples=200, deadline=None)
@given(
    maxsize=st.integers(0, 6),
    steps=st.lists(
        st.tuples(st.sampled_from(["get", "put"]),
                  st.lists(st.integers(0, 8), max_size=12)),  # few keys: repeats in a batch
        max_size=8,
    ),
)
def test_get_many_and_put_many_are_the_per_key_loop(maxsize, steps):
    counter = iter(range(10**6))
    steps = [(op, keys, [next(counter) for _ in keys]) for op, keys in steps]
    reference, one, many = PerKeyLRU(maxsize), LRUCache(maxsize), LRUCache(maxsize)
    want = _per_key(reference, steps)
    assert _per_batch(many, steps) == want and _per_key(one, steps) == want
    for cache in (one, many):
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        # Same survivors in the same recency order: the same evictions happened.
        assert list(cache._data.items()) == list(reference._data.items())
        assert len(cache) <= maxsize


def test_batch_calls_take_iterables_and_the_lock_once():
    cache = LRUCache(3)
    acquired = []

    class CountingLock:
        def __enter__(self):
            acquired.append(1)

        def __exit__(self, *exc):
            return False

    cache._lock = CountingLock()
    cache.put_many(iter("abcd"), iter([1, 2, 3, 4]))  # "a" is evicted by "d"
    assert cache.get_many(iter("adxb"), default=-1) == [-1, 4, -1, 2]
    assert len(acquired) == 2 and (cache.hits, cache.misses) == (2, 2)
    assert list(cache._data) == ["c", "d", "b"]
    assert cache.get_many([]) == [] and cache.put_many([], []) is None
