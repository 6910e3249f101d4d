"""Tests for CDFs, series, and table rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.metrics import Cdf, Series, render_series, render_table


class TestCdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_fraction_below(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_below(2.0) == 0.5
        assert cdf.fraction_below(0.5) == 0.0
        assert cdf.fraction_below(10.0) == 1.0

    def test_quantiles(self):
        cdf = Cdf(range(1, 101))
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 100
        assert cdf.median == 50

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            Cdf([1.0]).quantile(1.5)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 10, 99, 100, 101, 1000])
    def test_quantile_endpoints_exact_for_any_size(self, size):
        samples = [float(v) for v in range(size)]
        cdf = Cdf(samples)
        assert cdf.quantile(0.0) == min(samples)
        assert cdf.quantile(1.0) == max(samples)

    def test_quantile_endpoints_unsorted_input(self):
        cdf = Cdf([5.0, 1.0, 9.0, 3.0])
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 9.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6),
                    min_size=1, max_size=200))
    def test_quantile_endpoints_property(self, samples):
        cdf = Cdf(samples)
        assert cdf.quantile(0.0) == min(samples)
        assert cdf.quantile(1.0) == max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_fraction_below_max_is_one_property(self, samples):
        cdf = Cdf(samples)
        assert cdf.fraction_below(max(samples)) == 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=1))
    def test_quantile_is_a_sample_property(self, samples, q):
        assert Cdf(samples).quantile(q) in samples


class TestSeries:
    def test_add_and_accessors(self):
        series = Series(label="x")
        series.add(1, 10)
        series.add(2, 20)
        assert series.xs() == [1, 2]
        assert series.ys() == [10, 20]


class TestRenderChart:
    def test_renders_grid_and_legend(self):
        from repro.experiments.metrics import render_chart
        series = Series(label="mine", points=[(0, 0), (10, 5), (20, 10)])
        chart = render_chart([series], x_label="in", y_label="out",
                             width=20, height=5)
        lines = chart.splitlines()
        assert lines[0].startswith("out [0 .. 10]")
        assert lines[-2].strip() == "in [0 .. 20]"
        assert "o=mine" in lines[-1]
        assert sum(line.count("o") for line in lines[1:-3]) >= 3

    def test_two_series_two_markers(self):
        from repro.experiments.metrics import render_chart
        chart = render_chart([
            Series(label="a", points=[(0, 0), (1, 1)]),
            Series(label="b", points=[(0, 1), (1, 0)]),
        ])
        assert "o=a" in chart and "x=b" in chart

    def test_empty_chart(self):
        from repro.experiments.metrics import render_chart
        assert render_chart([]) == "(no data)"

    def test_flat_series_no_division_error(self):
        from repro.experiments.metrics import render_chart
        chart = render_chart([Series(label="flat", points=[(1, 5), (2, 5)])])
        assert "flat" in chart


class TestRendering:
    def test_render_table_aligns(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_table_empty_rows(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text

    def test_render_series(self):
        series = Series(label="mine", points=[(1.0, 2.0)])
        text = render_series([series], "x", "y")
        assert "mine" in text
        assert "1" in text and "2" in text
