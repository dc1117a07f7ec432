import re

import numpy as np
import pytest

from homodyne_feedback import BlochState, CounterStream, SamplingMode, SimParams, sample_records
from homodyne_feedback.svgfig import histogram_svg

BAR_HEIGHT = re.compile(r'<rect class="bin" [^>]*height="([^"]+)"')
CURVE = re.compile(r'<polyline class="vacuum-pdf" points="([^"]+)"')
BASELINE = 380.0  # y of the plot's horizontal axis


def bar_heights(svg):
    return np.array([float(h) for h in BAR_HEIGHT.findall(svg)])


def curve_heights(svg):
    points = CURVE.search(svg).group(1).split()
    return np.array([BASELINE - float(p.split(",")[1]) for p in points])


class TestRecordHistogram:
    @pytest.mark.parametrize("bins", [1, 100])
    def test_one_bar_and_curve_point_per_bin(self, bins):
        svg = histogram_svg(np.array([-1.0, 0.5, 3.0]), bins, 2.0)
        assert len(bar_heights(svg)) == bins
        assert len(curve_heights(svg)) == bins

    @pytest.mark.parametrize("record,index", [(-10.0, 0), (10.0, -1)])
    def test_range_edges_fall_in_end_bins(self, record, index):
        # the range is [-5 alpha, 5 alpha]; both ends count, in the end bins
        heights = bar_heights(histogram_svg(np.array([record]), 8, 2.0))
        assert heights[index] > 0.0
        assert np.count_nonzero(heights) == 1

    def test_records_all_outside_range_draw_empty_bars(self):
        heights = bar_heights(histogram_svg(np.array([-31.0, -10.5, 10.25, 57.0]), 8, 2.0))
        assert np.all(heights == 0.0)

    def test_repeating_every_record_leaves_figure_unchanged(self):
        # densities are counts over the record count; doubling both is exact
        records = np.array([-31.0, -10.0, -4.2, -0.3, 0.0, 0.7, 3.9, 10.0, 57.0])
        assert histogram_svg(np.repeat(records, 2), 8, 2.0) == histogram_svg(records, 8, 2.0)

    def test_vacuum_bars_follow_weak_field_curve(self):
        params = SimParams(gamma=1.0, tau=1e-3, alpha=100.0)
        records = sample_records(
            BlochState.excited(), params, SamplingMode.VACUUM, CounterStream(70, 0), 1_000_000
        )
        svg = histogram_svg(records, 100, params.alpha)
        bars, curve = bar_heights(svg), curve_heights(svg)
        # the two central bins hold ~4% of the records each: ~0.5% noise
        assert bars[49:51] == pytest.approx(curve[49:51], rel=0.03)
        # summed over the range the bars and the curve cover the same area
        assert bars.sum() == pytest.approx(curve.sum(), rel=0.01)
