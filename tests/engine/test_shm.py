"""SharedProfilePlane: roundtrips, races, corruption, and the janitor."""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pytest

from repro.cleanup import DEFAULT_GRACE_S, is_stale
from repro.engine import shm as shm_module
from repro.engine.shm import (
    SHM_PREFIX,
    SharedPlaneUnavailable,
    SharedProfilePlane,
    reap_stale_segments,
)


@pytest.fixture
def plane():
    plane = SharedProfilePlane.create()
    yield plane
    plane.close()


class TestRoundtrip:
    def test_store_then_read_back(self, plane):
        value = np.linspace(0.0, 3.3, 13)
        assert plane.put("profile-a", value) == "stored"
        np.testing.assert_array_equal(plane.get("profile-a"), value)

    def test_missing_key_is_none(self, plane):
        assert plane.get("never-stored") is None
        assert "never-stored" not in plane

    def test_duplicate_put_writes_nothing(self, plane):
        value = np.arange(7.0)
        assert plane.put("k", value) == "stored"
        used = plane.stats()["bytes_used"]
        assert plane.put("k", value) == "duplicate"
        assert plane.stats()["bytes_used"] == used
        assert plane.stats()["duplicate"] == 1

    def test_attached_sibling_reads_zero_copy(self, plane):
        value = np.full(64, 1.5)
        assert plane.put("shared", value) == "stored"
        sibling = SharedProfilePlane.attach(plane.handle())
        try:
            np.testing.assert_array_equal(sibling.get("shared"), value)
            # And the reverse direction: sibling writes, owner reads.
            assert sibling.put("reverse", value * 2) == "stored"
            np.testing.assert_array_equal(plane.get("reverse"), value * 2)
        finally:
            sibling.close()

    def test_reattach_by_name_after_detach(self, plane):
        # A restarted worker gets the *same* handle: attach, close,
        # attach again — every published block stays readable.
        plane.put("persistent", np.arange(3.0))
        handle = plane.handle()
        first = SharedProfilePlane.attach(handle)
        first.close()
        second = SharedProfilePlane.attach(handle)
        try:
            np.testing.assert_array_equal(
                second.get("persistent"), np.arange(3.0)
            )
        finally:
            second.close()


class TestDegradation:
    def test_dead_lock_holder_makes_stripe_unavailable(self, plane):
        # Simulate a sibling that died holding the stripe write lock:
        # the stripe's put degrades to "unavailable" (the artefact stays
        # with its caller), published blocks stay readable.
        plane.put("pre", np.arange(2.0))
        stripe = plane._stripe_for("pre")
        plane._locks[stripe].acquire()
        try:
            plane.lock_timeout_s = 0.01
            victim = "pre"  # same stripe by construction
            assert plane.put(victim + "-again", np.arange(2.0)) in (
                "unavailable",
                "stored",  # only if it hashed to another stripe
            )
            # Force a same-stripe key deterministically.
            same_stripe = next(
                k
                for k in (f"k{i}" for i in range(64))
                if plane._stripe_for(k) == stripe
            )
            assert plane.put(same_stripe, np.arange(2.0)) == "unavailable"
            np.testing.assert_array_equal(plane.get("pre"), np.arange(2.0))
        finally:
            plane._locks[stripe].release()

    def test_full_stripe_declines_writes(self):
        small = SharedProfilePlane.create(stripes=1, stripe_bytes=256)
        try:
            big = np.zeros(1024)
            assert small.put("too-big", big) == "unavailable"
            assert small.put("fits", np.arange(2.0)) == "stored"
        finally:
            small.close()

    def test_unpicklable_value_is_unavailable(self, plane):
        assert plane.put("bad", lambda: None) == "unavailable"

    def test_attach_gone_segment_raises(self, plane):
        handle = ("repro-shm-0-does-not-exist", plane.handle()[1])
        with pytest.raises(SharedPlaneUnavailable):
            SharedProfilePlane.attach(handle)


class TestCorruption:
    def test_crc_mismatch_stops_the_scan(self, plane):
        value = np.arange(5.0)
        plane.put("victim", value)
        sibling = SharedProfilePlane.attach(plane.handle())
        try:
            # Flip a payload byte behind the reader's back; the CRC
            # catches it and the reader reports a miss, not garbage.
            stripe = plane._stripe_for("victim")
            base = plane._stripe_base(stripe) + shm_module._OFFSET.size
            block = shm_module._BLOCK
            total_len, crc, key_len = block.unpack_from(plane._view, base)
            payload_at = base + block.size + key_len
            plane._view[payload_at] ^= 0xFF
            assert sibling.get("victim") is None
            assert sibling.stats()["corrupt"] >= 1
        finally:
            sibling.close()

    def test_torn_offset_is_clamped(self, plane):
        # A ridiculous published offset (torn write artefact) must not
        # walk the reader off the stripe.
        stripe_base = plane._stripe_base(0)
        struct.pack_into("<Q", plane._view, stripe_base, 2**40)
        assert plane.get("anything") is None


class TestLifecycle:
    def test_owner_close_unlinks_segment(self):
        plane = SharedProfilePlane.create()
        name = plane.name
        assert name.startswith(SHM_PREFIX)
        assert os.path.exists(f"/dev/shm/{name}")
        plane.close()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_attacher_close_does_not_unlink(self, plane):
        sibling = SharedProfilePlane.attach(plane.handle())
        sibling.close()
        assert os.path.exists(f"/dev/shm/{plane.name}")

    def test_close_is_idempotent(self):
        plane = SharedProfilePlane.create()
        plane.close()
        plane.close()


class TestJanitor:
    def test_is_stale_respects_grace_window(self, tmp_path):
        path = tmp_path / "artefact"
        path.write_text("x")
        assert not is_stale(path)  # just written
        now = os.stat(path).st_mtime + DEFAULT_GRACE_S + 1.0
        assert is_stale(path, now=now)
        assert not is_stale(path, now=now, grace_s=DEFAULT_GRACE_S * 10)

    def test_is_stale_missing_path_is_false(self, tmp_path):
        assert not is_stale(tmp_path / "never-existed")

    def test_reap_skips_young_segments(self):
        plane = SharedProfilePlane.create()
        try:
            assert reap_stale_segments() == 0
            assert os.path.exists(f"/dev/shm/{plane.name}")
        finally:
            plane.close()

    def test_reap_unlinks_stale_segments(self):
        plane = SharedProfilePlane.create()
        path = f"/dev/shm/{plane.name}"
        # Age the segment past the grace window (mtime rewind stands in
        # for a supervisor that crashed an hour ago).
        past = os.stat(path).st_mtime - 2 * DEFAULT_GRACE_S
        os.utime(path, (past, past))
        try:
            assert reap_stale_segments() >= 1
            assert not os.path.exists(path)
        finally:
            plane._owner = False  # nothing left to unlink
            plane.close()

    def test_reap_ignores_foreign_names(self, tmp_path):
        # Janitor scope is the prefix, nothing else.
        foreign = tmp_path / "not-a-plane"
        foreign.write_text("x")
        past = os.stat(foreign).st_mtime - 2 * DEFAULT_GRACE_S
        os.utime(foreign, (past, past))
        assert reap_stale_segments(root=str(tmp_path)) == 0
        assert foreign.exists()
