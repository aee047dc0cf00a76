"""Content-addressed cache: canonical keys, LRU, disk layer, wiring."""

import os
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import (
    ResultCache,
    Uncacheable,
    cache_disabled,
    cache_override,
    cached,
    canonical_key,
    configure_cache,
    get_cache,
    seal_payload,
    unseal_payload,
    unseal_payload_env,
)
from repro.engine.environment import environment_fingerprint
from repro.pepa.parser import parse_model

MODEL_SRC = """
r = 1.0;
s = 2.0;
P = (a, r).Q;
Q = (b, s).P;
P
"""


class TestCanonicalKey:
    def test_structurally_equal_models_share_a_key(self):
        a = parse_model(MODEL_SRC)
        b = parse_model(MODEL_SRC)
        assert a is not b
        assert canonical_key("t", a) == canonical_key("t", b)

    def test_changed_rate_changes_key(self):
        model = parse_model(MODEL_SRC)
        assert canonical_key("t", model) != canonical_key(
            "t", model.with_rate("r", 3.0)
        )

    def test_dict_insertion_order_is_irrelevant(self):
        assert canonical_key("t", {"a": 1, "b": 2}) == canonical_key(
            "t", {"b": 2, "a": 1}
        )

    def test_set_iteration_order_is_irrelevant(self):
        assert canonical_key("t", frozenset(["x", "y", "z"])) == canonical_key(
            "t", frozenset(["z", "x", "y"])
        )

    def test_ndarray_content_and_dtype_matter(self):
        a = np.array([1.0, 2.0])
        assert canonical_key("t", a) == canonical_key("t", a.copy())
        assert canonical_key("t", a) != canonical_key("t", np.array([1.0, 2.5]))
        assert canonical_key("t", a) != canonical_key("t", a.astype(np.float32))

    def test_sparse_matrix_by_content(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert canonical_key("t", m) == canonical_key("t", m.tocoo())
        other = sp.csr_matrix(np.array([[0.0, 1.0], [2.5, 0.0]]))
        assert canonical_key("t", m) != canonical_key("t", other)

    def test_namespace_separates_keys(self):
        assert canonical_key("a", 1) != canonical_key("b", 1)

    def test_unhashable_type_raises(self):
        with pytest.raises(Uncacheable):
            canonical_key("t", object())

    def test_scalar_type_tags_distinguish(self):
        assert canonical_key("t", 1) != canonical_key("t", 1.0)
        assert canonical_key("t", True) != canonical_key("t", 1)


class TestResultCache:
    def test_roundtrip_returns_fresh_copy(self):
        cache = ResultCache(max_entries=4)
        value = np.arange(5.0)
        cache.put("k", value)
        out = cache.get("k")
        np.testing.assert_array_equal(out, value)
        assert out is not value  # unpickled copy, safe to mutate

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        miss = cache.get("b")
        assert not isinstance(miss, int)  # evicted: miss sentinel

    def test_disk_layer_survives_memory_clear(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("k", {"pi": np.ones(3)})
        cache.clear()  # memory only
        assert len(cache) == 0
        out = cache.get("k")
        np.testing.assert_array_equal(out["pi"], np.ones(3))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)


def _payload_size(value) -> int:
    import pickle

    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestByteBudget:
    BLOB = np.zeros(1000)  # ~8 KB pickled

    def test_evicts_lru_until_bytes_fit(self):
        size = _payload_size(self.BLOB)
        cache = ResultCache(max_entries=100, max_bytes=2 * size)
        cache.put("a", self.BLOB)
        cache.put("b", self.BLOB)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", self.BLOB)
        assert len(cache) == 2
        assert cache.stats()["bytes"] == 2 * size
        assert isinstance(cache.get("a"), np.ndarray)
        assert isinstance(cache.get("c"), np.ndarray)
        assert not isinstance(cache.get("b"), np.ndarray)

    def test_entry_bound_still_applies(self):
        cache = ResultCache(max_entries=2, max_bytes=10**9)
        for key in "abc":
            cache.put(key, 1)
        assert len(cache) == 2
        assert cache.stats()["bytes"] == 2 * _payload_size(1)

    def test_payload_over_budget_skips_memory(self, tmp_path):
        cache = ResultCache(max_entries=4, max_bytes=100, disk_dir=tmp_path)
        cache.put("small", 1)
        cache.put("big", self.BLOB)
        assert len(cache) == 1  # the small entry was not evicted for it
        # The disk tier still keeps it; a hit does not load it into memory.
        np.testing.assert_array_equal(cache.get("big"), self.BLOB)
        assert len(cache) == 1

    def test_running_total_tracks_replace_corrupt_and_clear(self):
        cache = ResultCache(max_entries=4)
        cache.put("k", self.BLOB)
        cache.put("k", 1)  # replacing an entry releases its old bytes
        assert cache.stats()["bytes"] == _payload_size(1)
        cache._mem["k"] = b"not a pickle"
        cache._mem_bytes = len(b"not a pickle")
        assert not isinstance(cache.get("k"), int)  # corrupt: dropped
        assert cache.stats()["bytes"] == 0
        cache.put("k", 1)
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_configure_shrinks_at_once(self):
        cache = get_cache()
        before = (cache.max_entries, cache.max_bytes)
        try:
            cache.clear()
            cache.put("x", self.BLOB)
            cache.put("y", self.BLOB)
            configure_cache(max_bytes=_payload_size(self.BLOB))
            assert len(cache) == 1
            with pytest.raises(ValueError):
                configure_cache(max_bytes=-1)
        finally:
            configure_cache(max_entries=before[0], max_bytes=before[1])
            cache.clear()


class TestDiskIntegrity:
    def test_disk_entries_carry_the_integrity_trailer(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("sealed", [1, 2, 3])
        blob = (tmp_path / "sealed.pkl").read_bytes()
        assert blob.endswith(b"RPRO2")
        payload = unseal_payload(blob)
        assert payload is not None
        assert seal_payload(payload) == blob

    def test_trailer_seals_the_environment_fingerprint(self):
        blob = seal_payload(b"payload-bytes")
        unsealed = unseal_payload_env(blob)
        assert unsealed is not None
        payload, env = unsealed
        assert payload == b"payload-bytes"
        assert env == environment_fingerprint()

    def test_legacy_trailer_still_verifies_with_unknown_env(self):
        import hashlib

        payload = b"old-entry"
        legacy = payload + hashlib.sha256(payload).digest() + b"RPRO1"
        assert unseal_payload(legacy) == payload
        assert unseal_payload_env(legacy) == (payload, None)

    def test_tampered_env_is_detected(self):
        blob = seal_payload(b"payload", env=b'{"numpy": "9.9.9"}')
        # Flip one byte inside the sealed env segment.
        pos = blob.index(b"9.9.9")
        broken = blob[:pos] + b"8" + blob[pos + 1 :]
        assert unseal_payload_env(broken) is None

    def test_entry_from_other_environment_is_quarantined(self, tmp_path):
        from repro.engine.metrics import get_registry

        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("k", 42)
        cache.clear()  # memory only; disk entry remains
        # Rewrite the entry as if produced under a different numpy —
        # intact payload, intact seal, foreign fingerprint.
        path = tmp_path / "k.pkl"
        payload = unseal_payload(path.read_bytes())
        path.write_bytes(seal_payload(payload, env=b'{"numpy": "0.0.0"}'))
        before = get_registry().counter("cache.env_mismatch")
        miss = cache.get("k")
        assert not isinstance(miss, int)  # treated as a miss, not served
        assert get_registry().counter("cache.env_mismatch") == before + 1
        assert list(tmp_path.glob("*.envmismatch"))  # quarantined for inspection
        assert not (tmp_path / "k.pkl").exists()

    def test_legacy_entry_with_unknown_env_is_quarantined(self, tmp_path):
        import hashlib
        import pickle

        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        payload = pickle.dumps(42)
        legacy = payload + hashlib.sha256(payload).digest() + b"RPRO1"
        (tmp_path / "old.pkl").write_bytes(legacy)
        miss = cache.get("old")
        assert not isinstance(miss, int)
        assert list(tmp_path.glob("*.envmismatch"))

    def test_no_tmp_files_left_behind(self, tmp_path):
        # Writes go through per-process/per-call unique tmp names and an
        # atomic replace; repeated puts of the same key must leave exactly
        # one entry and no stray tmp files.
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        for value in range(5):
            cache.put("rewritten", value)
        assert [p.name for p in tmp_path.iterdir()] == ["rewritten.pkl"]

    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path):
        # Two cache instances standing in for two processes: the tmp
        # name embeds pid + a counter, so they can never collide on the
        # same half-written file even for the same key.
        a = ResultCache(max_entries=4, disk_dir=tmp_path)
        b = ResultCache(max_entries=4, disk_dir=tmp_path)
        a.put("shared", "from-a")
        b.put("shared", "from-b")
        assert b.get("shared") == "from-b"
        assert not list(tmp_path.glob("*.tmp"))


class TestCachedHelper:
    def test_miss_then_hit(self):
        calls = []

        def compute():
            calls.append(1)
            return 41 + len(calls)

        parts = (parse_model(MODEL_SRC), "unit-test-miss-then-hit")
        value1, status1 = cached("unittest", parts, compute)
        value2, status2 = cached("unittest", parts, compute)
        assert (status1, status2) == ("miss", "hit")
        assert value1 == value2 == 42
        assert len(calls) == 1  # second call served from cache

    def test_disabled_cache_always_computes(self):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        with cache_disabled():
            v1, s1 = cached("unittest", ("disabled-case",), compute)
            v2, s2 = cached("unittest", ("disabled-case",), compute)
        assert (s1, s2) == ("off", "off")
        assert (v1, v2) == (1, 2)

    def test_uncacheable_parts_still_compute(self):
        value, status = cached("unittest", (object(),), lambda: 7)
        assert value == 7
        assert status == "uncacheable"

    def test_override_restores_state(self):
        cache = get_cache()
        before = cache.enabled
        with cache_override(not before):
            assert cache.enabled is not before
        assert cache.enabled is before

    def test_configure_validates(self):
        with pytest.raises(ValueError):
            configure_cache(max_entries=0)

    def test_configure_disk_dir_none_disables(self, tmp_path):
        cache = get_cache()
        before = cache.disk_dir
        try:
            configure_cache(disk_dir=tmp_path)
            assert cache.disk_dir == tmp_path
            configure_cache()  # omitting the argument keeps the setting
            assert cache.disk_dir == tmp_path
            configure_cache(disk_dir=None)  # None is an explicit reset
            assert cache.disk_dir is None
        finally:
            configure_cache(disk_dir=before)


class TestConcurrentDiskWriters:
    """Two processes hammering the same content key must never leave a
    torn entry: every write goes through a unique temp name plus an
    atomic rename, and every read re-verifies the RPRO2 seal."""

    WRITER = textwrap.dedent("""
        import sys
        from repro.engine import ResultCache

        disk_dir, tag = sys.argv[1], sys.argv[2]
        cache = ResultCache(max_entries=4, disk_dir=disk_dir)
        payload = {"tag": tag, "blob": list(range(1000))}
        for i in range(200):
            cache.put("race-key", payload)
        print("done", flush=True)
    """)

    def test_two_process_write_race_never_tears_a_read(self, tmp_path):
        import subprocess
        import sys

        disk_dir = tmp_path / "cache"
        disk_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(disk_dir), tag],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for tag in ("a", "b")
        ]
        good_reads = 0
        while any(w.poll() is None for w in writers):
            # A fresh cache per read, or the memory layer would mask the
            # disk round-trip after the first hit.
            value = ResultCache(max_entries=4, disk_dir=disk_dir).get("race-key")
            if isinstance(value, dict):  # a non-dict is the miss sentinel
                assert value["tag"] in ("a", "b")
                assert value["blob"] == list(range(1000))
                good_reads += 1
        for writer in writers:
            out, err = writer.communicate(timeout=30)
            assert writer.returncode == 0, err.decode()
            assert out.strip() == b"done"

        assert good_reads > 0, "the race window never produced a readable entry"
        # No quarantined torn writes, no leaked temp files, and the final
        # entry unseals cleanly.
        assert not list(disk_dir.glob("*.corrupt"))
        assert not list(disk_dir.glob("*.tmp"))
        blob = (disk_dir / "race-key.pkl").read_bytes()
        assert unseal_payload(blob) is not None
        final = ResultCache(max_entries=4, disk_dir=disk_dir).get("race-key")
        assert final["blob"] == list(range(1000))
