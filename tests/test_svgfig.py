import re
import warnings

import numpy as np
import pytest

from homodyne_feedback import BlochState, CounterStream, SamplingMode, SimParams, sample_records
from homodyne_feedback.cli import main, parse_initial
from homodyne_feedback.svgfig import histogram_svg

BAR_HEIGHT = re.compile(r'<rect class="bin" [^>]*height="([^"]+)"')
BASELINE = 380.0  # y of the plot's horizontal axis


def bar_heights(svg):
    return np.array([float(h) for h in BAR_HEIGHT.findall(svg)])


def curve_heights(svg, law="vacuum"):
    points = re.search(f'<polyline class="{law}-pdf" points="([^"]+)"', svg).group(1).split()
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


class TestOverlaidLaw:
    # (sampling, initial, tau, alpha): the first draws N(3.16, 10^2), whose
    # worst bin lies ~20 SE from the vacuum Gaussian centred at 0
    CASES = [
        ("conditional", "dipole+", 0.1, 10.0),
        ("conditional", "dipole-", 0.1, 10.0),
        ("conditional", "excited", 0.01, 100.0),
        ("vacuum", "excited", 1e-3, 100.0),
    ]
    # Bonferroni over 100 bins at a family-wise false-fail rate of 1e-3:
    # Phi^-1(1 - 1e-3 / 200)
    K = 4.42

    @staticmethod
    def figure(tmp_path, sampling, initial, tau, alpha):
        out = tmp_path / "h.svg"
        argv = ["figure", "--kind", "record-histogram", "--sampling", sampling,
                "--initial", initial, "--tau", str(tau), "--alpha", str(alpha), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # gamma*tau = 0.1 warns
            assert main(argv) == 0
            params = SimParams(gamma=1.0, tau=tau, alpha=alpha)
        return out.read_text(), params

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
    def test_every_bin_within_k_se_of_the_overlaid_curve(self, tmp_path, case):
        # the default 100,000 records in 100 bins, seed 0
        sampling, initial, tau, alpha = case
        svg, params = self.figure(tmp_path, *case)
        n_records, bins = 100_000, 100
        records = sample_records(
            parse_initial(initial), params, SamplingMode(sampling), CounterStream(0, 0), n_records
        )
        counts, edges = np.histogram(records, bins, range=(-5.0 * alpha, 5.0 * alpha))
        bars, curve = bar_heights(svg), curve_heights(svg, sampling)
        # pixels a unit of density, from the tallest bar
        i = np.argmax(counts)
        scale = bars[i] * n_records * (edges[1] - edges[0]) / counts[i]
        expected = n_records * (edges[1] - edges[0]) * curve / scale
        # Freeman-Tukey deviates: (n - e) / SE for large counts, and still
        # standard normal in the tails, where the curve rounds to 0 pixels
        deviate = np.sqrt(counts) + np.sqrt(counts + 1) - np.sqrt(4 * expected + 1)
        assert np.abs(deviate).max() <= self.K

    def test_conditional_figure_keeps_the_vacuum_curve_as_reference(self, tmp_path):
        svg, _ = self.figure(tmp_path, *self.CASES[0])
        assert svg.count("<polyline") == 2
        assert 'class="vacuum-pdf"' in svg and 'stroke-dasharray' in svg
        assert ">solid: conditional law; dashed: vacuum law</text>" in svg
        vacuum, _ = self.figure(tmp_path, *self.CASES[-1])
        assert vacuum.count("<polyline") == 1 and 'class="legend"' not in vacuum
