"""SVG rendering: structure, determinism, color ramp anchors, text escaping."""
import re
from xml.dom import minidom

import numpy as np
import pytest

from csmooth.domain import SpatialField, make_domain
from csmooth.errors import ConfigError
from csmooth.svgplot import _RAMP, _ramp_colors, render_bars_svg, render_cdf_svg, render_field_svg


def test_ramp_anchor_colors():
    low, mid, top, below, above = _ramp_colors(np.array([0.0, 0.5, 1.0, -3.0, 7.0]))
    assert low == "#440154"
    assert mid == "#21918c"
    assert top == "#fde725"
    # out-of-range inputs clamp
    assert below == "#440154"
    assert above == "#fde725"


def scalar_ramp_color(t):
    """One color at a time: clamp, find the segment, interpolate, round half to even."""
    t = min(max(t, 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_RAMP, _RAMP[1:]):
        if t <= t1:
            s = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = [round(a + s * (b - a)) for a, b in zip(c0, c1)]
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#fde725"


def test_ramp_matches_scalar_formula():
    t = np.linspace(-0.5, 1.5, 10_001)
    assert _ramp_colors(t) == [scalar_ramp_color(float(x)) for x in t]


def test_field_svg_one_rect_per_cell(tmp_path):
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    dom = make_domain(3, 3, mask=mask)
    field = SpatialField(dom, np.linspace(0.0, 2.0, dom.n))
    path = tmp_path / "field.svg"
    render_field_svg(field, path, title="demo")
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    # one background rect plus one per active cell
    assert text.count("<rect") == dom.n + 1
    assert ">demo</text>" in text
    assert "#fde725" in text  # the maximum cell hits the ramp top


def test_field_svg_deterministic_and_zero_safe(tmp_path):
    dom = make_domain(2, 2)
    field = SpatialField(dom, np.zeros(4))
    render_field_svg(field, tmp_path / "a.svg")
    render_field_svg(field, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


def test_cdf_svg_series(tmp_path):
    errors = np.array([0.1, 0.2, 0.5])
    cdf = np.array([1 / 3, 2 / 3, 1.0])
    path = tmp_path / "cdf.svg"
    render_cdf_svg([("css", errors, cdf), ("pe", errors * 2, cdf)], path)
    text = path.read_text()
    assert ">css</text>" in text and ">pe</text>" in text
    assert text.count('stroke-width="1.5"') == 2
    render_cdf_svg([("css", errors, cdf), ("pe", errors * 2, cdf)], tmp_path / "again.svg")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()


def test_bars_svg(tmp_path):
    path = tmp_path / "bars.svg"
    render_bars_svg(["pe", "css"], [0.25, 0.125], path)
    text = path.read_text()
    assert text.count("<rect") == 3  # background plus two bars
    assert ">0.125</text>" in text
    assert ">pe</text>" in text and ">css</text>" in text


def test_text_is_escaped(tmp_path):
    text = "calls < 5 & sms"
    dom = make_domain(2, 2)
    render_field_svg(SpatialField(dom, np.arange(4.0)), tmp_path / "field.svg", title=text)
    errors, cdf = np.array([0.1, 0.2]), np.array([0.5, 1.0])
    render_cdf_svg([("a&b", errors, cdf), ("<pe>", errors, cdf)], tmp_path / "cdf.svg", title=text)
    render_bars_svg(["a&b", "<pe>"], [0.25, 0.125], tmp_path / "bars.svg", title=text)
    for name in ("field.svg", "cdf.svg", "bars.svg"):
        doc = minidom.parse(str(tmp_path / name))
        shown = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
        assert text in shown
        if name != "field.svg":
            assert "a&b" in shown and "<pe>" in shown


def test_all_zero_charts_scale_to_one(tmp_path):
    # a perfect estimate: every error and every mre is 0, so no value is
    # positive and each chart's scale falls back to 1
    errors, cdf = np.zeros(4), np.array([0.25, 0.5, 0.75, 1.0])
    render_cdf_svg([("perfect", errors, cdf)], tmp_path / "cdf.svg")
    render_bars_svg(["perfect", "also"], [0.0, 0.0], tmp_path / "bars.svg")
    for name in ("cdf.svg", "bars.svg"):
        text = (tmp_path / name).read_text()
        assert "nan" not in text and "inf" not in text, name
        doc = minidom.parse(str(tmp_path / name))
        shown = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
        if name == "cdf.svg":
            # each tick labels the cdf axis, then the error axis: 0 to 1
            assert shown[2:12:2] == ["0", "0.25", "0.5", "0.75", "1"]
        else:
            assert shown[1:] == ["perfect", "0.0", "also", "0.0"]
            widths = [r.getAttribute("width") for r in doc.getElementsByTagName("rect")]
            assert widths[1:] == ["0", "0"]


def test_charts_refuse_values_they_cannot_draw(tmp_path):
    # an infinite error level would scale every coordinate to nan, and a nan
    # mre would give its bar a nan width: each is refused, naming its series
    # or bar, and no file is written
    inf, nan = float("inf"), float("nan")
    cases = [
        (lambda p: render_cdf_svg([("a", [0.1, inf], [0.5, 1.0])], p), "cdf series 'a'"),
        (lambda p: render_cdf_svg([("b", [0.1, 0.2], [0.5, nan])], p), "cdf series 'b'"),
        (lambda p: render_cdf_svg([("c", [0.1], [1.0])], p, x_max=inf), "x_max inf"),
        (lambda p: render_bars_svg(["pe", "css"], [nan, 2.0], p), "bar 'pe' has value nan"),
        (lambda p: render_bars_svg(["pe", "css"], [1.0, inf], p), "bar 'css' has value inf"),
    ]
    for k, (render, named) in enumerate(cases):
        path = tmp_path / f"{k}.svg"
        with pytest.raises(ConfigError, match=re.escape(named)):
            render(path)
        assert not path.exists()
