"""Tests for identifier and token generation."""

from __future__ import annotations

import threading

from repro.util.ids import IdGenerator, new_token


class TestIdGenerator:
    def test_sequential_per_prefix(self):
        ids = IdGenerator()
        assert ids.next("job") == "job-000001"
        assert ids.next("job") == "job-000002"
        assert ids.next("project") == "project-000001"

    def test_width_is_configurable(self):
        ids = IdGenerator(width=3)
        assert ids.next("x") == "x-001"

    def test_thread_safety_produces_unique_ids(self):
        ids = IdGenerator()
        seen: list[str] = []
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                value = ids.next("job")
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == len(set(seen)) == 800


class TestModuleHelpers:
    def test_new_token_is_unpredictable_and_long(self):
        first, second = new_token(), new_token()
        assert first != second
        assert len(first) >= 24
