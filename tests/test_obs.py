"""Tests for the process-wide work counters (repro.obs)."""

from repro import obs


class TestCounters:
    def test_add_accumulates_and_reset_clears(self):
        obs.add({"a": 1, "b": 0.5})
        obs.add({"a": 2})
        assert obs.snapshot() == {"a": 3, "b": 0.5}
        obs.reset()
        assert obs.snapshot() == {}

    def test_counted_delta_holds_only_the_names_the_call_changed(self):
        obs.add({"a": 1, "b": 2.5})

        def work(n):
            obs.add({"b": 0.5, "c": n})
            obs.add({"a": 0})
            return 2 * n

        result, delta = obs.counted(work, 3)
        assert result == 6
        assert delta == {"b": 0.5, "c": 3}
        assert obs.snapshot() == {"a": 1, "b": 3.0, "c": 3}
