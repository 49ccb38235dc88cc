"""Unit tests for the analysis toolkit (stats, tables, figures)."""

import pytest

from repro.analysis.figures import Figure, Series
from repro.analysis.stats import confidence_interval, summarize
from repro.analysis.tables import Table
from repro.exceptions import AnalysisError


class TestStats:
    def test_summarize_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.ci_low <= stats.mean <= stats.ci_high
        assert "±" in stats.format()

    def test_single_value(self):
        stats = summarize([5.0])
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 5.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])
        with pytest.raises(AnalysisError):
            confidence_interval([])

    def test_confidence_interval_widens_with_confidence(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low_90, high_90 = confidence_interval(values, 0.90)
        low_99, high_99 = confidence_interval(values, 0.99)
        assert (high_99 - low_99) > (high_90 - low_90)

    def test_invalid_confidence(self):
        with pytest.raises(AnalysisError):
            confidence_interval([1.0, 2.0], confidence=1.0)

    def test_interval_contains_true_mean_usually(self):
        import random

        rng = random.Random(0)
        hits = 0
        for _ in range(100):
            sample = [rng.gauss(10.0, 2.0) for _ in range(20)]
            low, high = confidence_interval(sample, 0.95)
            if low <= 10.0 <= high:
                hits += 1
        assert hits >= 85


class TestTable:
    def test_add_rows_and_render(self):
        table = Table(["strategy", "welfare"], title="Table 2")
        table.add_row("trust-aware", 10.5)
        table.add_row(strategy="safe-only", welfare=0.0)
        text = table.render()
        assert "Table 2" in text
        assert "trust-aware" in text
        assert "10.500" in text
        assert len(table) == 2
        assert table.column("strategy") == ["trust-aware", "safe-only"]

    def test_csv(self):
        table = Table(["a", "b"])
        table.add_row(1, 2.5)
        csv = table.to_csv()
        assert csv.splitlines()[0] == "a,b"
        assert "2.500" in csv

    def test_row_length_mismatch(self):
        table = Table(["a", "b"])
        with pytest.raises(AnalysisError):
            table.add_row(1)

    def test_unknown_named_column(self):
        table = Table(["a"])
        with pytest.raises(AnalysisError):
            table.add_row(b=2)

    def test_mixed_positional_and_named_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(AnalysisError):
            table.add_row(1, b=2)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(AnalysisError):
            Table(["a", "a"])

    def test_unknown_column_lookup(self):
        with pytest.raises(AnalysisError):
            Table(["a"]).column("z")


class TestFigure:
    def make_figure(self):
        figure = Figure("Figure 2", x_label="interactions", y_label="error")
        beta = figure.new_series("beta")
        beta.add(1, 0.4)
        beta.add(10, 0.1)
        complaint = figure.new_series("complaint")
        complaint.add(1, 0.45)
        complaint.add(10, 0.2)
        return figure

    def test_render_table(self):
        text = self.make_figure().render_table()
        assert "Figure 2" in text
        assert "beta" in text and "complaint" in text
        assert "0.4000" in text

    def test_render_ascii(self):
        text = self.make_figure().render_ascii()
        assert "legend" in text
        assert "*" in text

    def test_render_combined(self):
        text = self.make_figure().render()
        assert "legend" in text

    def test_series_by_label(self):
        figure = self.make_figure()
        assert figure.series_by_label("beta").ys[-1] == pytest.approx(0.1)
        with pytest.raises(AnalysisError):
            figure.series_by_label("ghost")

    def test_mismatched_series_rejected(self):
        with pytest.raises(AnalysisError):
            Series("bad", xs=[1.0], ys=[])

    def test_empty_figure_rejected(self):
        with pytest.raises(AnalysisError):
            Figure("empty").render_table()
        with pytest.raises(AnalysisError):
            Figure("empty").render_ascii()
