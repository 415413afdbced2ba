"""The janitors' shared staleness rule (:func:`repro.cleanup.is_stale`)."""

from __future__ import annotations

import os

from repro.cleanup import DEFAULT_GRACE_S, is_stale


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
