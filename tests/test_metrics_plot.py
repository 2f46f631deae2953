"""Unit tests for terminal plotting."""

from repro.metrics.plot import line_plot


class TestLinePlot:
    def test_empty_series(self):
        out = line_plot({"a": []}, title="empty")
        assert "no data" in out

    def test_contains_title_axes_and_legend(self):
        out = line_plot(
            {"vanilla": [(0, 0), (10, 100)], "dyconits": [(0, 0), (10, 40)]},
            title="capacity",
            x_label="players",
        )
        assert "capacity" in out
        assert "players" in out
        assert "* vanilla" in out
        assert "o dyconits" in out
        assert "100" in out and "0" in out  # y-axis labels

    def test_dimensions(self):
        out = line_plot({"s": [(0, 0), (1, 1)]}, width=30, height=6)
        plot_rows = [line for line in out.splitlines() if "|" in line]
        assert len(plot_rows) == 6
        for row in plot_rows:
            assert len(row.split("|", 1)[1]) == 30

    def test_single_point(self):
        out = line_plot({"s": [(5.0, 5.0)]})
        assert "*" in out
