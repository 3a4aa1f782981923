"""Minimal dependency-free SVG emitters for line plots and scale heatmaps."""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot", "heatmap"]

_MARGIN = 48.0
_LINE_SIZE = (720, 360)  # (width, height) in pixels
_HEATMAP_SIZE = (760, 420)
_HEATMAP_CELLS = (256, 128)  # most (time, scale) blocks drawn; larger grids are averaged
_PALETTE = ["#1f6fb2", "#d95f02", "#2a9d54", "#7b4fa6", "#c03a55"]


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _write(path, size, title: str, body) -> None:
    """Write an SVG of ``size`` (width, height): white ground, title, then ``body``."""
    width, height = size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        *body,
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def line_plot(path, x, series, title: str = "", labels=None):
    """Write a multi-series line plot; `series` is a list of y-arrays over x."""
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

    parts = []
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
    # decimate long series so files stay diffable
    step = max(1, x.size // 2000)
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(map("{:.2f},{:.2f}".format, sx(x[::step]).tolist(),
                           sy(s[::step]).tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{width-_MARGIN:.1f}" y="{_MARGIN+14*(i+1):.1f}" '
                     f'text-anchor="end" fill="{color}">{labels[i]}</text>')
    _write(path, _LINE_SIZE, title, parts)


def heatmap(path, times, scales, mags, title: str = ""):
    """Magnitude heatmap over (time, log-scale); large grids are block-averaged."""
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

    # block means from prefix sums; neighbouring blocks share their edge rows and columns
    c = np.zeros((times.size + 1, scales.size))
    np.cumsum(mags, axis=0, out=c[1:])
    rows = c[ti[1:] + 1] - c[ti[:-1]]
    c = np.cumsum(np.concatenate([np.zeros((rows.shape[0], 1)), rows], axis=1), axis=1)
    block = (c[:, si[1:] + 1] - c[:, si[:-1]]) / np.outer(np.diff(ti) + 1, np.diff(si) + 1)
    v = np.clip(block / peak, 0.0, 1.0).ravel()  # dark blue -> yellow
    rgb = np.stack([255 * np.minimum(1.0, 2.0 * v), 255 * v, 96 * (1.0 - v) + 40]).astype(int)
    x, y = sx(ti), sy(si)
    nt, ns = ti.size - 1, si.size - 1
    parts = list(map('<rect x="{:.1f}" y="{:.1f}" width="{:.2f}" height="{:.2f}" '
                     'fill="rgb({},{},{})"/>'.format,
                     np.repeat(x[:-1], ns).tolist(), np.tile(y[1:], nt).tolist(),
                     np.repeat(np.diff(x), ns).tolist(), np.tile(y[:-1] - y[1:], nt).tolist(),
                     *rgb.tolist()))
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
