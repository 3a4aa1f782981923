import hashlib
import json
import tracemalloc
from dataclasses import fields
from unittest import mock
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from hypothesis.extra.numpy import arrays

import sparsetf
from sparsetf import (Decomposition, InvalidInputError, PhasePair, PursuitConfig,
                      SampledSignal, cwt, default_scales, gen_crossing_example,
                      gen_mode_mixing_example, gen_random_well_separated, make_wavelet)
from sparsetf import io as sio
from sparsetf.cli import build_parser, main
from sparsetf.io import (decomposition_from_dict, decomposition_to_dict,
                         ground_truth_to_dict, read_decomposition_json, read_signal_csv,
                         scalogram_to_dict, write_decomposition_json, write_json,
                         write_run_manifest, write_scalogram_json, write_signal_csv)
from sparsetf.signal import smoother_extension
from sparsetf.svg import (_HEATMAP_CELLS, _HEATMAP_SIZE, _LINE_SIZE, _MARGIN, _PALETTE, _fmt,
                         _ticks, _write, heatmap, line_plot)

from conftest import tone, tone_pair


class TestSignalCsv:
    def test_round_trip(self, tmp_path):
        s = tone(17.0, 513)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, s)
        back = read_signal_csv(path)
        assert back.same_grid(s)
        np.testing.assert_array_equal(back.values, s.values)

    def test_non_uniform_grid_resampled(self, tmp_path):
        t = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
        path = tmp_path / "sig.csv"
        path.write_text("t,value\n" + "".join(f"{ti},{2 * ti}\n" for ti in t))
        s = read_signal_csv(path)
        assert s.n == t.size
        np.testing.assert_allclose(s.values, 2 * s.times(), atol=1e-12)

    def test_empty_file_reports_line_one(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError, match="line 1"):
            read_signal_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            read_signal_csv(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.1\n")
        with pytest.raises(InvalidInputError, match="line 3"):
            read_signal_csv(path)

    @pytest.mark.parametrize("bad, row, line", [("inf", 4, 6), ("nan", 1, 3), ("-inf", 0, 2)])
    def test_non_finite_time_reports_line(self, tmp_path, bad, row, line):
        rows = ["0.0,1.0", "0.1,1.0", "", "0.2,1.0", "0.3,1.0"]  # lines 2-6; 4 is blank
        rows[row] = f"{bad},1.0"
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(InvalidInputError, match=f"line {line}: t must be finite"):
                read_signal_csv(path)

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.25, 0.5, 1.0]],
                             ids=["uniform", "non_uniform"])
    @pytest.mark.parametrize("bad, row, line", [("nan", 4, 6), ("1e400", 1, 3), ("-inf", 0, 2)])
    def test_non_finite_value_reports_line(self, tmp_path, times, bad, row, line):
        rows = [f"{t},1.0" for t in times]
        rows[row] = f"{times[row]},{bad}"
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"line {line}: value must be finite"):
                read_signal_csv(path)

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.2,1.0\n0.1,1.0\n")
        with pytest.raises(InvalidInputError, match="increasing"):
            read_signal_csv(path)


class TestDecompositionJson:
    def test_round_trip(self, tmp_path):
        comps = (tone_pair(8.0, 257), tone_pair(24.0, 257, amp=0.5))
        resid = SampledSignal(0.0, 1.0, 0.01 * np.ones(257))
        d = Decomposition(comps, resid)
        path = tmp_path / "dec.json"
        write_decomposition_json(path, d)
        back = read_decomposition_json(path)
        assert back.n_components == 2
        np.testing.assert_array_equal(back.residual.values, resid.values)
        np.testing.assert_array_equal(back.components[1].a, comps[1].a)

    def test_schema_keys(self):
        d = Decomposition((tone_pair(8.0, 65),), SampledSignal(0, 1, np.zeros(65)))
        obj = decomposition_to_dict(d)
        assert set(obj) == {"grid", "components", "residual"}
        assert set(obj["grid"]) == {"t0", "t1", "n"}
        assert set(obj["components"][0]) == {"a", "theta"}

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            decomposition_from_dict({"grid": {"t0": 0, "t1": 1, "n": 4}, "components": []})

    def test_scalogram_dict_interleaves_row_major(self):
        f = tone(32.0, 257)
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=4))
        obj = scalogram_to_dict(s)
        flat = np.asarray(obj["coeffs_interleaved"])
        re = flat[0::2].reshape(len(obj["times"]), len(obj["scales"]))
        im = flat[1::2].reshape(len(obj["times"]), len(obj["scales"]))
        np.testing.assert_array_equal(re + 1j * im, s.coeffs)


def write_signal_csv_reference(path, s: SampledSignal):
    """The per-row signal writer that ``write_signal_csv`` replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n")
        for ti, vi in zip(s.times(), s.values):
            fh.write(f"{float(ti)!r},{float(vi)!r}\n")


def line_plot_reference(path, x, series, title: str = "", labels=None):
    """The per-point ``svg.line_plot`` that the vectorised one replaced."""
    width, height = _LINE_SIZE
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    labels = labels or [f"series {i}" for i in range(len(series))]
    ymin = min(float(np.min(s)) for s in series)
    ymax = max(float(np.max(s)) for s in series)
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    w_in, h_in = width - 2 * _MARGIN, height - 2 * _MARGIN

    def sx(v):
        return _MARGIN + (v - x[0]) / (x[-1] - x[0]) * w_in

    def sy(v):
        return height - _MARGIN - (v - ymin) / (ymax - ymin) * h_in

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for tv in _ticks(float(x[0]), float(x[-1])):
        parts.append(f'<line x1="{sx(tv):.1f}" y1="{height-_MARGIN:.1f}" '
                     f'x2="{sx(tv):.1f}" y2="{height-_MARGIN+4:.1f}" stroke="black"/>')
        parts.append(f'<text x="{sx(tv):.1f}" y="{height-_MARGIN+16:.1f}" '
                     f'text-anchor="middle">{_fmt(tv)}</text>')
    for tv in _ticks(ymin, ymax):
        parts.append(f'<line x1="{_MARGIN-4:.1f}" y1="{sy(tv):.1f}" '
                     f'x2="{_MARGIN:.1f}" y2="{sy(tv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN-6:.1f}" y="{sy(tv)+3:.1f}" '
                     f'text-anchor="end">{_fmt(tv)}</text>')
    parts.append(f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w_in}" height="{h_in}" '
                 'fill="none" stroke="black"/>')
    step = max(1, x.size // 2000)
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x[::step], s[::step]))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{width-_MARGIN:.1f}" y="{_MARGIN+14*(i+1):.1f}" '
                     f'text-anchor="end" fill="{color}">{labels[i]}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def _color_reference(v: float) -> str:
    """Map [0, 1] to a dark-blue -> yellow ramp."""
    v = min(max(v, 0.0), 1.0)
    r = int(255 * min(1.0, 2.0 * v))
    g = int(255 * v)
    b = int(96 * (1.0 - v) + 40)
    return f"rgb({r},{g},{b})"


def heatmap_reference(path, times, scales, mags, title: str = ""):
    """The per-block ``svg.heatmap`` that the array one replaced."""
    width, height = _HEATMAP_SIZE
    times = np.asarray(times, dtype=float)
    scales = np.asarray(scales, dtype=float)
    mags = np.asarray(mags, dtype=float)
    ct, cs = _HEATMAP_CELLS
    ti = np.linspace(0, times.size - 1, min(ct, times.size) + 1).astype(int)
    si = np.linspace(0, scales.size - 1, min(cs, scales.size) + 1).astype(int)
    peak = float(np.max(mags)) or 1.0
    w_in, h_in = width - 2 * _MARGIN, height - 2 * _MARGIN
    log_s = np.log(scales)

    def sx(i):
        return _MARGIN + (times[i] - times[0]) / (times[-1] - times[0]) * w_in

    def sy(j):
        return height - _MARGIN - (log_s[j] - log_s[0]) / (log_s[-1] - log_s[0]) * h_in

    parts = []
    for a0, a1 in zip(ti[:-1], ti[1:]):
        for b0, b1 in zip(si[:-1], si[1:]):
            block = float(np.mean(mags[a0:a1 + 1, b0:b1 + 1]))
            x0, x1 = sx(a0), sx(a1)
            y1v, y0v = sy(b0), sy(b1)
            parts.append(
                f'<rect x="{x0:.1f}" y="{y0v:.1f}" width="{x1-x0:.2f}" '
                f'height="{y1v-y0v:.2f}" fill="{_color_reference(block/peak)}"/>'
            )
    for j in (0, scales.size - 1):
        parts.append(f'<text x="{_MARGIN-6:.1f}" y="{sy(j)+3:.1f}" '
                     f'text-anchor="end">{_fmt(float(scales[j]))}</text>')
    for frac in (0.0, 0.5, 1.0):
        i = int(frac * (times.size - 1))
        parts.append(f'<text x="{sx(i):.1f}" y="{height-_MARGIN+16:.1f}" '
                     f'text-anchor="middle">{_fmt(float(times[i]))}</text>')
    parts.append(f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{w_in}" height="{h_in}" '
                 'fill="none" stroke="black"/>')
    _write(path, _HEATMAP_SIZE, title, parts)


_EDGE_FLOATS = st_.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-308, 1 / 3])


class TestWriterParity:
    """Each writer's bytes equal those of the per-item code it replaced.

    The JSON writers replaced ``json.dump(<x>_to_dict(...), fh)``, whose bytes
    are ``json.dumps`` of the same dict.
    """

    def test_mode_mixing_decomposition(self, tmp_path):
        sig, out = tmp_path / "mm.csv", tmp_path / "o"
        write_signal_csv(sig, gen_mode_mixing_example(4096)[0])
        assert run_cli("decompose", sig, "--out", out) == 0
        text = (out / "decomposition.json").read_text()
        # reading back is exact, so this is the dict the writer was given
        d = read_decomposition_json(out / "decomposition.json")
        assert d.n_components == 2
        assert text == json.dumps(decomposition_to_dict(d))

    def test_zero_component_decomposition(self, tmp_path):
        d = Decomposition((), SampledSignal(0.0, 1.0, np.linspace(-1, 1, 65)))
        write_decomposition_json(tmp_path / "d.json", d)
        assert (tmp_path / "d.json").read_text() == json.dumps(decomposition_to_dict(d))

    def test_scalogram(self, tmp_path):
        f = tone(32.0, 257)
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=4))
        with mock.patch.object(sio, "JSON_CHUNK", 100):  # several chunks per list
            write_scalogram_json(tmp_path / "s.json", s)
        assert (tmp_path / "s.json").read_text() == json.dumps(scalogram_to_dict(s))

    def test_ground_truth(self, tmp_path):
        _, gt = gen_random_well_separated(3, 2.0, 0.05, 5, 2048)
        write_json(tmp_path / "g.json", ground_truth_to_dict(gt))
        assert (tmp_path / "g.json").read_text() == json.dumps(ground_truth_to_dict(gt))

    def test_synth_mode_mixing_files(self, tmp_path):
        assert run_cli("synth", "--example", "mode-mixing", "--n", 4096, "--out", tmp_path) == 0
        f, gt, spurious = gen_mode_mixing_example(4096)
        assert (tmp_path / "ground_truth.json").read_text() == \
            json.dumps(ground_truth_to_dict(gt))
        assert (tmp_path / "spurious_pair.json").read_text() == \
            json.dumps({"a": spurious.a.tolist(), "theta": spurious.theta.tolist()})
        write_signal_csv_reference(tmp_path / "ref.csv", f)
        assert (tmp_path / "signal.csv").read_text() == (tmp_path / "ref.csv").read_text()

    @settings(deadline=None, max_examples=100)
    @given(arrays(np.float64, st_.integers(0, 40),
                  elements=st_.one_of(_EDGE_FLOATS, st_.floats(allow_nan=False,
                                                               allow_infinity=False))),
           st_.integers(1, 8))
    def test_finite_float_lists(self, tmp_path_factory, x, chunk):
        obj = {"x": x.tolist(), "nested": [{"a": x[::-1].tolist(), "n": x.size}, []],
               "ints": [1, 2], "s": "t\u00e9"}
        path = tmp_path_factory.getbasetemp() / "hyp.json"
        with mock.patch.object(sio, "JSON_CHUNK", chunk):
            write_json(path, obj)
            assert path.read_text(encoding="utf-8") == json.dumps(obj)
            write_json(path, {**obj, "x": x})  # an array is written as its tolist()
        assert path.read_text(encoding="utf-8") == json.dumps(obj)

    def test_non_finite_floats_spelt_as_json_does(self, tmp_path):
        obj = {"x": [float("nan"), float("inf"), 1.0, float("-inf")]}
        write_json(tmp_path / "n.json", obj)
        assert (tmp_path / "n.json").read_text() == json.dumps(obj)
        write_json(tmp_path / "n.json", {"x": np.array(obj["x"])})
        assert (tmp_path / "n.json").read_text() == json.dumps(obj)

    def test_scalogram_writer_holds_one_chunk_of_floats(self, tmp_path):
        # converting every coefficient to a float object first held ~4x the
        # coefficients' bytes; one chunk of floats is a small fraction of them
        f = tone(32.0, 4096)
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=64))  # 3.7 MB of coefficients
        tracemalloc.start()
        write_scalogram_json(tmp_path / "s.json", s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 0.25 * s.coeffs.nbytes

    @pytest.mark.parametrize("x, y", [
        pytest.param(np.linspace(0, 1, 500), np.cos(np.linspace(0, 9, 500)), id="step_1"),
        pytest.param(np.linspace(0, 2, 9001), np.sin(np.linspace(0, 40, 9001)), id="step_4"),
        pytest.param(np.linspace(0, 1, 4096), np.full(4096, 0.7), id="constant"),
        pytest.param(np.linspace(-3.5, -1.25, 333), np.linspace(-1, 2, 333) ** 3,
                     id="negative_x"),
    ])
    def test_line_plot(self, tmp_path, x, y):
        series, labels = [y, -0.5 * y], ["a(t)", "b(t)"]
        line_plot(tmp_path / "new.svg", x, series, title="t", labels=labels)
        line_plot_reference(tmp_path / "ref.svg", x, series, title="t", labels=labels)
        assert (tmp_path / "new.svg").read_text() == (tmp_path / "ref.svg").read_text()

    @pytest.mark.parametrize("make, zero", [
        pytest.param(lambda: gen_mode_mixing_example(4096)[0], False, id="mode_mixing"),
        pytest.param(lambda: gen_crossing_example(32, 2048)[0], False, id="crossing"),
        # fewer samples than heatmap columns: blocks of one sample, some repeated
        pytest.param(lambda: tone(16.3, 100), False, id="short_tone"),
        pytest.param(lambda: tone(16.3, 300), True, id="all_zero"),
    ])
    def test_heatmap(self, tmp_path, make, zero):
        f = make()
        w = make_wavelet(0.2)
        s = cwt(f, w, default_scales(f, w, voices=32), extension=smoother_extension(f.values))
        mags = np.zeros_like(s.magnitude()) if zero else s.magnitude()
        heatmap(tmp_path / "new.svg", s.times, s.scales, mags, title="t")
        heatmap_reference(tmp_path / "ref.svg", s.times, s.scales, mags, title="t")
        assert (tmp_path / "new.svg").read_text() == (tmp_path / "ref.svg").read_text()

    @pytest.mark.parametrize("signal", [
        tone(17.0, 513),
        SampledSignal(-2.5, 3.1, np.random.default_rng(3).standard_normal(1000) * 1e-7),
    ], ids=["tone", "negative_start"])
    def test_signal_csv(self, tmp_path, signal):
        write_signal_csv(tmp_path / "new.csv", signal)
        write_signal_csv_reference(tmp_path / "ref.csv", signal)
        assert (tmp_path / "new.csv").read_text() == (tmp_path / "ref.csv").read_text()


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def two_tone_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sig") / "two_tone.csv"
    t = np.linspace(0, 1, 4096)
    s = SampledSignal(0, 1, np.cos(2 * np.pi * 32 * t) + np.cos(2 * np.pi * 96 * t))
    write_signal_csv(path, s)
    return path


class TestRunManifest:
    def test_keys_in_order(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("t,value\n0,0\n1,1\n")
        write_run_manifest(tmp_path, "cwt", {"delta": 0.2}, [src])
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert list(manifest) == ["command", "config", "input_digest", "tool_version"]
        assert manifest["input_digest"] == {str(src): hashlib.sha256(src.read_bytes()).hexdigest()}
        assert manifest["tool_version"] == sparsetf.__version__


class TestCli:
    def test_synth_random_writes_signal_and_truth(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("synth", "--example", "random", "--out", out,
                       "--m", 2, "--eps-target", 0.05, "--seed", 3, "--n", 4096) == 0
        assert (out / "signal.csv").exists()
        truth = json.loads((out / "ground_truth.json").read_text())
        assert len(truth["components"]) == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["tool_version"]

    def test_synth_zero_d_exits_one(self, tmp_path):
        # d=0 must reach the generator's d > 1 check, not fall back to 2.0
        assert run_cli("synth", "--example", "random", "--out", tmp_path / "out",
                       "--m", 2, "--d", 0, "--n", 4096) == 1

    def test_synth_crossing_writes_both_truths(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("synth", "--example", "crossing", "--out", out, "--k", 16) == 0
        assert (out / "ground_truth.json").exists()
        assert (out / "ground_truth_alternative.json").exists()

    def test_decompose_two_tones(self, tmp_path, two_tone_csv):
        out = tmp_path / "dec"
        assert run_cli("decompose", two_tone_csv, "--out", out) == 0
        dec = read_decomposition_json(out / "decomposition.json")
        assert dec.n_components == 2
        for name in ("component_1_envelope.svg", "component_1_frequency.svg",
                     "component_1_overlay.svg", "residual.svg", "run_manifest.json"):
            assert (out / name).exists()
        ET.parse(out / "component_1_envelope.svg")  # valid XML

    def test_decompose_honors_config_file(self, tmp_path, two_tone_csv):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"max_components": 1, "epsilon0": 1e-6}))
        out = tmp_path / "dec"
        run_cli("decompose", two_tone_csv, cfgp, "--out", out)
        dec = read_decomposition_json(out / "decomposition.json")
        assert dec.n_components == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["max_components"] == 1

    def test_decompose_infinite_time_exits_one(self, tmp_path):
        bad = tmp_path / "inf.csv"
        t = np.linspace(0.0, 1.0, 256)
        rows = [f"{ti},{np.cos(2 * np.pi * 16 * ti)}" for ti in t[:-1].tolist()]
        bad.write_text("t,value\n" + "\n".join(rows) + "\ninf,1.0\n")
        assert run_cli("decompose", bad, "--out", tmp_path / "o") == 1

    def test_decompose_empty_csv_exits_one(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert run_cli("decompose", bad, "--out", tmp_path / "o") == 1

    def test_decompose_below_threshold_yields_zero_components(self, tmp_path):
        path = tmp_path / "tiny.csv"
        t = np.linspace(0, 1, 512)
        write_signal_csv(path, SampledSignal(0, 1, 1e-4 * np.cos(2 * np.pi * 8 * t)))
        out = tmp_path / "o"
        assert run_cli("decompose", path, "--out", out, "--epsilon0", 0.01) == 0
        assert read_decomposition_json(out / "decomposition.json").n_components == 0

    def test_mode_mixing_decompose_two_components(self, tmp_path):
        sig = tmp_path / "mm.csv"
        f, _, _ = gen_mode_mixing_example(2**14)
        write_signal_csv(sig, f)
        out = tmp_path / "o"
        assert run_cli("decompose", sig, "--out", out) == 0
        assert read_decomposition_json(out / "decomposition.json").n_components == 2

    def test_decompose_warns_of_no_scale_it_chose_itself(self, tmp_path):
        # the seeding transforms' scales come from default_scales, not the user
        sig = tmp_path / "mm.csv"
        write_signal_csv(sig, gen_mode_mixing_example(4096)[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("decompose", sig, "--out", tmp_path / "o") == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_verify_ground_truth_passes(self, tmp_path):
        f, gt = gen_random_well_separated(2, 2.0, 0.05, 21, 4096)
        sig = tmp_path / "s.csv"
        dec = tmp_path / "d.json"
        write_signal_csv(sig, f)
        write_decomposition_json(dec, Decomposition(gt.pairs, gt.residual))
        code = run_cli("verify", dec, sig, "--epsilon", gt.params.epsilon * 1.0001,
                       "--d", 2.0, "--epsilon0", 0.01)
        assert code == 0

    def test_verify_spurious_single_mode_fails_residual_check(self, tmp_path):
        f, _, spurious = gen_mode_mixing_example(2**14)
        sig = tmp_path / "s.csv"
        dec = tmp_path / "d.json"
        write_signal_csv(sig, f)
        resid = SampledSignal(f.t0, f.t1, f.values - spurious.a * np.cos(spurious.theta))
        write_decomposition_json(dec, Decomposition((spurious,), resid))
        code = run_cli("verify", dec, sig, "--epsilon", 0.05, "--d", 2.0,
                       "--epsilon0", 0.01)
        assert code == 3

    def test_verify_warns_once_per_non_periodic_component(self, tmp_path):
        # two tones whose envelopes differ at the ends; each pair appears in
        # a norm-equivalence check and in the cross-term check
        t = np.linspace(0.0, 1.0, 4096)
        pairs = (PhasePair(0, 1, 1 + 0.5 * t, 2 * np.pi * 16 * t),
                 PhasePair(0, 1, 1 + 0.2 * t, 2 * np.pi * 64 * t))
        d = Decomposition(pairs, SampledSignal(0, 1, np.zeros(t.size)))
        sig = tmp_path / "s.csv"
        dec = tmp_path / "d.json"
        write_signal_csv(sig, d.signal())
        write_decomposition_json(dec, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # once per message, as on the command line
            run_cli("verify", dec, sig)
        mismatch = [w for w in caught if "endpoint mismatch" in str(w.message)]
        assert len(mismatch) == 2

    def test_verify_crossing_fails_separation(self, tmp_path):
        from sparsetf import gen_crossing_example

        f, gt, _ = gen_crossing_example(16, 2048)
        sig = tmp_path / "s.csv"
        dec = tmp_path / "d.json"
        write_signal_csv(sig, f)
        write_decomposition_json(dec, Decomposition(gt.pairs, gt.residual))
        code = run_cli("verify", dec, sig, "--epsilon", 0.1, "--d", 4 / 3,
                       "--epsilon0", 0.01)
        assert code == 3

    def test_cwt_writes_scalogram_and_heatmap(self, tmp_path, two_tone_csv):
        out = tmp_path / "cwt"
        assert run_cli("cwt", two_tone_csv, "--out", out, "--voices", 8) == 0
        data = json.loads((out / "scalogram.json").read_text())
        assert len(data["coeffs_interleaved"]) == 2 * len(data["times"]) * len(data["scales"])
        ET.parse(out / "scalogram.svg")

    def test_compare_identical_passes_tolerance(self, tmp_path):
        f, gt = gen_random_well_separated(2, 2.0, 0.05, 22, 4096)
        d = tmp_path / "d.json"
        write_decomposition_json(d, Decomposition(gt.pairs, gt.residual))
        assert run_cli("compare", d, d, "--tol", 1e-9) == 0

    def test_compare_different_splits_exceed_tolerance(self, tmp_path):
        from sparsetf import gen_crossing_example

        _, gt_a, gt_b = gen_crossing_example(16, 2048)
        da, db = tmp_path / "a.json", tmp_path / "b.json"
        write_decomposition_json(da, Decomposition(gt_a.pairs, gt_a.residual))
        write_decomposition_json(db, Decomposition(gt_b.pairs, gt_b.residual))
        assert run_cli("compare", da, db, "--tol", 0.1) == 3

    def test_partition_lists_breakpoints(self, tmp_path, capsys):
        f, gt, _ = gen_mode_mixing_example(4096)
        d = tmp_path / "d.json"
        write_decomposition_json(d, Decomposition(gt.pairs, gt.residual))
        assert run_cli("partition", d, "--d", 2.0) == 0
        out = capsys.readouterr().out
        assert "component 1" in out and "segment" in out

    def test_reproduce_is_deterministic_and_passes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("reproduce", "--out", out1) == 0
        assert run_cli("reproduce", "--out", out2) == 0
        t1 = (out1 / "objective_reproduction.txt").read_text()
        t2 = (out2 / "objective_reproduction.txt").read_text()
        assert [l for l in t1.splitlines() if "elapsed" not in l] == \
               [l for l in t2.splitlines() if "elapsed" not in l]

    def test_missing_file_exits_one(self, tmp_path):
        assert run_cli("decompose", tmp_path / "nope.csv", "--out", tmp_path / "o") == 1

    def test_unknown_config_key_exits_one(self, tmp_path, two_tone_csv):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"wat": 1}))
        assert run_cli("decompose", two_tone_csv, cfgp, "--out", tmp_path / "o") == 1

    def test_misspelt_extension_in_config_exits_one(self, tmp_path, two_tone_csv):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"extension": "mirorr"}))
        assert run_cli("decompose", two_tone_csv, cfgp, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("config, named", [
        ({"voices": "x"}, "'voices'"),
        ({"max_components": float("nan")}, "'max_components'"),
        ({"voices": 16.5}, "'voices'"),
        ({"epsilon": "0.1"}, "'epsilon'"),
        ({"inner_tol": 1e-6}, "'inner_tol'"),  # INNER_TOL is a constant
        (5, "JSON object"),
        ({"m_prime": 2.0}, "'m_prime'"),
        ({"inner_max_iter": 50}, "'inner_max_iter'"),
        ({"lowpass_fraction": 0.5}, "'lowpass_fraction'"),
        ({"init": {"a": 1}}, "'init'"),
        ({"extension": "mirror"}, "'extension'"),
        ({"delta": [0.2]}, "'delta'"),
    ])
    def test_malformed_config_exits_one_naming_the_key(self, tmp_path, two_tone_csv, capsys,
                                                        config, named):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        assert run_cli("decompose", two_tone_csv, cfgp, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_decompose_manifest_echoes_every_setting(self, tmp_path):
        path = tmp_path / "tiny.csv"
        t = np.linspace(0, 1, 512)
        write_signal_csv(path, SampledSignal(0, 1, 1e-4 * np.cos(2 * np.pi * 8 * t)))
        assert run_cli("decompose", path, "--out", tmp_path / "o") == 0
        config = json.loads((tmp_path / "o" / "run_manifest.json").read_text())["config"]
        library = {f.name for f in fields(PursuitConfig)} - {"params"}
        assert set(config) == library | {"epsilon", "d", "epsilon0", "extension"}
        assert config["epsilon0"] == 1e-2  # the adaptive floor for a tiny signal
        assert config["delta"] == PursuitConfig.delta
        assert config["extension"] == "periodic"

    @pytest.mark.parametrize("freq, extension", [
        pytest.param(16.0, "periodic", id="periodic"),
        pytest.param(16.3, "mirror", id="mirror"),  # not a whole number of cycles
    ])
    def test_cwt_manifest_records_defaults(self, tmp_path, freq, extension):
        path = tmp_path / "tone.csv"
        write_signal_csv(path, tone(freq, 257))
        assert run_cli("cwt", path, "--out", tmp_path / "o") == 0
        config = json.loads((tmp_path / "o" / "run_manifest.json").read_text())["config"]
        assert (config["delta"], config["voices"], config["extension"]) == (0.2, 32, extension)

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["grid"].update(n="abc"),
        lambda obj: obj["components"][0].update(a=["x"] * len(obj["residual"])),
    ], ids=["grid_n_not_int", "envelope_not_float"])
    def test_verify_malformed_decomposition_exits_one(self, tmp_path, capsys, edit):
        d = Decomposition((tone_pair(8.0, 257),), SampledSignal(0, 1, np.zeros(257)))
        sig, dec = tmp_path / "s.csv", tmp_path / "d.json"
        write_signal_csv(sig, d.signal())
        obj = decomposition_to_dict(d)
        edit(obj)
        dec.write_text(json.dumps(obj))
        assert run_cli("verify", dec, sig) == 1
        assert capsys.readouterr().err.startswith("error: malformed decomposition JSON")

    @pytest.mark.parametrize("flag, value", [("--epsilon", 5), ("--d", 0.5), ("--epsilon0", -1)])
    def test_verify_out_of_range_setting_exits_one(self, tmp_path, capsys, flag, value):
        # one component: no pairwise check runs, so only the settings check can fail
        d = Decomposition((tone_pair(8.0, 257),), SampledSignal(0, 1, np.zeros(257)))
        sig, dec = tmp_path / "s.csv", tmp_path / "d.json"
        write_signal_csv(sig, d.signal())
        write_decomposition_json(dec, d)
        assert run_cli("verify", dec, sig, flag, value) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, flag, value", [
        ("cwt", "--epsilon", 0.9), ("cwt", "--d", 7), ("cwt", "--epsilon0", 5),
        ("verify", "--delta", 0.3), ("verify", "--voices", 8),
        # the extension is picked from the signal
        ("decompose", "--mirror", None), ("cwt", "--periodic", None),
    ])
    def test_flag_of_another_command_exits_two(self, tmp_path, capsys, command, flag, value):
        inputs = {"cwt": ["s.csv", "--out", tmp_path / "o"], "verify": ["d.json", "s.csv"],
                  "decompose": ["s.csv", "--out", tmp_path / "o"]}
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *inputs[command], flag, *([] if value is None else [value]))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_decompose_takes_every_setting_flag(self):
        args = build_parser().parse_args(
            ["decompose", "s.csv", "--out", "o", "--epsilon", "0.1", "--d", "3",
             "--epsilon0", "0.2", "--delta", "0.3", "--voices", "8"])
        assert (args.epsilon, args.d, args.epsilon0, args.delta, args.voices) \
            == (0.1, 3.0, 0.2, 0.3, 8)
