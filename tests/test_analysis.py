"""Tests for analysis helpers (normalization, envelopes, report formatting)."""

import pytest

from repro.analysis import (
    Envelope,
    envelope,
    format_series,
    format_table,
    format_throughput_sweep,
    human_bytes,
    normalize_times,
    speedup,
)


class TestNormalization:
    def test_normalize_times(self):
        out = normalize_times({"mcf": 4.0, "sssp": 6.0}, reference=4.0)
        assert out["mcf"] == pytest.approx(1.0)
        assert out["sssp"] == pytest.approx(1.5)

    def test_normalize_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            normalize_times({"a": 1.0}, reference=0.0)

    def test_speedup(self):
        assert speedup(10.0, 5.0) == pytest.approx(2.0)
        assert speedup(10.0, 0.0) == float("inf")


class TestEnvelope:
    def test_envelope_of_values(self):
        env = envelope([3.0, 1.0, 2.0])
        assert env.minimum == 1.0
        assert env.maximum == 3.0
        assert env.mean == pytest.approx(2.0)

    def test_envelope_empty_rejected(self):
        with pytest.raises(ValueError):
            Envelope.of([])


class TestFormatting:
    def test_human_bytes(self):
        assert human_bytes(512) == "512B"
        assert human_bytes(2 ** 20) == "1.0MiB"
        assert human_bytes(3 * 2 ** 30) == "3.0GiB"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["mcf", 1.5], ["sssp", 2.25]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("N", [8, 16], {"mcf": [1.0, 2.0], "sssp": [1.5, 3.0]})
        assert "mcf" in text and "sssp" in text
        assert "16" in text

    def test_format_throughput_sweep(self, cube3_link_schedule):
        from repro.simulator import a100_ml_fabric, throughput_sweep

        sweep = throughput_sweep(cube3_link_schedule, [2 ** 20, 2 ** 24],
                                 fabric=a100_ml_fabric())
        text = format_throughput_sweep({"tsMCF/G": sweep}, title="Fig3")
        assert "tsMCF/G" in text
        assert "1.0MiB" in text

    def test_format_throughput_sweep_empty(self):
        assert format_throughput_sweep({}, title="x") == "x"
