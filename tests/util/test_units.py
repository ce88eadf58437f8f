"""Tests for byte-size formatting."""

from repro.util.units import format_bytes


class TestFormat:
    def test_bytes(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(512) == "512 B"
        assert format_bytes(4 * 1024**2) == "4.00 MiB"
        assert format_bytes(3.3 * 1024**3) == "3.30 GiB"

    def test_large_stays_tib(self):
        assert format_bytes(5 * 1024**5).endswith("TiB")

    def test_roundtrip_consistency(self):
        units = {"B": 1, "KiB": 1024, "MiB": 1024**2, "GiB": 1024**3}
        for n in (1, 1024, 4096, 10**9):
            value, unit = format_bytes(n).split()
            # reads back within 1% (formatting rounds to 2 decimals)
            assert abs(float(value) * units[unit] - n) <= max(0.01 * n, 1)
