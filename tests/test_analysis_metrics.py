"""Tests for traffic shares and report rendering."""

from repro.analysis.metrics import bandwidth_shares
from repro.analysis.report import format_grid, format_series, format_table
from repro.sim.stats import RunStats


class TestBandwidthShares:
    def test_keys(self):
        shares = bandwidth_shares(RunStats())
        assert set(shares) == {
            "off_chip_demand",
            "off_chip_prefetch",
            "off_chip_total",
            "l2_to_npu",
            "nsb_to_npu",
        }


class TestReportRendering:
    def test_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_grid(self):
        text = format_grid([4, 8], [64, 128], [[1.0, 2.0], [3.0, 4.0]])
        assert "64" in text and "4.00" in text

    def test_series(self):
        text = format_series("bw", [100, 200], {"base": [1.0, 2.0], "nvr": [3.0, 4.0]})
        assert "bw" in text and "nvr" in text
        assert len(text.splitlines()) == 4
