"""File formats: signal CSV, decomposition / scalogram / report JSON, run manifests.

Signal CSV: header ``t,value``, one row per sample, strictly increasing t.
A grid whose spacing deviates by more than 1e-9 relative is resampled at
ingestion by linear interpolation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .signal import Decomposition, PhasePair, SampledSignal
from .synth import GroundTruth
from .wavelet import Scalogram

__all__ = [
    "read_signal_csv",
    "write_signal_csv",
    "decomposition_to_dict",
    "decomposition_from_dict",
    "write_decomposition_json",
    "read_decomposition_json",
    "scalogram_to_dict",
    "write_scalogram_json",
    "ground_truth_to_dict",
    "write_json",
    "write_run_manifest",
]

SPACING_RTOL = 1e-9
JSON_CHUNK = 4096  # floats formatted per piece, which bounds the writer's working memory


def read_signal_csv(path) -> SampledSignal:
    """Parse a ``t,value`` CSV into a signal on a uniform grid.

    Raises invalid-input errors with the offending line number.  When the
    grid is non-uniform beyond tolerance the samples are linearly resampled
    onto the uniform grid with the same endpoints and count.
    """
    path = Path(path)
    ts, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InvalidInputError(f"{path}: line 1: empty file, expected header 't,value'")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header[:2] != ["t", "value"]:
        raise InvalidInputError(f"{path}: line 1: expected header 't,value', got {lines[0]!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise InvalidInputError(f"{path}: line {lineno}: expected 2 fields, got {len(cells)}")
        try:
            ts.append(float(cells[0]))
            vs.append(float(cells[1]))
        except ValueError as exc:
            raise InvalidInputError(f"{path}: line {lineno}: {exc}") from None
        if not math.isfinite(ts[-1]):
            raise InvalidInputError(f"{path}: line {lineno}: t must be finite, got {cells[0]!r}")
        if not math.isfinite(vs[-1]):
            raise InvalidInputError(
                f"{path}: line {lineno}: value must be finite, got {cells[1]!r}")
    if len(ts) < 2:
        raise InvalidInputError(f"{path}: need at least 2 samples, got {len(ts)}")
    t = np.asarray(ts)
    v = np.asarray(vs)
    dts = np.diff(t)
    if np.any(dts <= 0):
        bad = int(np.argmax(dts <= 0)) + 3  # +2 header/0-base, +1 for the second point
        raise InvalidInputError(f"{path}: line {bad}: t must be strictly increasing")
    mean_dt = (t[-1] - t[0]) / (t.size - 1)
    if np.max(np.abs(dts - mean_dt)) > SPACING_RTOL * mean_dt:
        uniform = np.linspace(t[0], t[-1], t.size)
        v = np.interp(uniform, t, v)
    return SampledSignal(float(t[0]), float(t[-1]), v)


def write_signal_csv(path, s: SampledSignal):
    rows = map("{!r},{!r}\n".format, s.times().tolist(), s.values.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,value\n" + "".join(rows))


def decomposition_to_dict(d: Decomposition) -> dict:
    return {
        "grid": {"t0": d.residual.t0, "t1": d.residual.t1, "n": d.residual.n},
        "components": [
            {"a": c.a.tolist(), "theta": c.theta.tolist()} for c in d.components
        ],
        "residual": d.residual.values.tolist(),
    }


def decomposition_from_dict(obj: dict) -> Decomposition:
    try:
        g = obj["grid"]
        t0, t1, n = float(g["t0"]), float(g["t1"]), int(g["n"])
        comps = [
            PhasePair(t0, t1, np.asarray(c["a"], float), np.asarray(c["theta"], float))
            for c in obj["components"]
        ]
        residual = SampledSignal(t0, t1, np.asarray(obj["residual"], float))
    except KeyError as exc:
        raise InvalidInputError(f"malformed decomposition JSON: missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed decomposition JSON: {exc}") from None
    if any(c.n != n for c in comps) or residual.n != n:
        raise InvalidInputError("decomposition arrays disagree with grid length")
    return Decomposition(tuple(comps), residual)


def _json_pieces(obj):
    """The text of ``json.dumps(obj)`` in pieces, a list of floats ``JSON_CHUNK`` items a piece.

    Dict keys must be strings.  A float list's ``repr`` is its JSON text
    (``json`` writes a finite float as its ``repr``, with the same ", "
    between items) once the non-finite values are spelt as ``json`` spells
    them.  ``repr`` of the list builds one string, without a string object
    per float.  A 1-d float array is written as its ``tolist()``, a chunk at a time.
    """
    if isinstance(obj, dict):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(value)
        yield "}"
    elif isinstance(obj, np.ndarray) or (isinstance(obj, list) and obj
                                          and set(map(type, obj)) == {float}):
        yield "["
        for i in range(0, len(obj), JSON_CHUNK):
            if i:
                yield ", "
            chunk = obj[i:i + JSON_CHUNK]
            text = repr(chunk.tolist() if isinstance(chunk, np.ndarray) else chunk)[1:-1]
            if "n" in text:  # nan, inf or -inf
                text = text.replace("nan", "NaN").replace("inf", "Infinity")
            yield text
        yield "]"
    elif isinstance(obj, list):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from _json_pieces(item)
        yield "]"
    else:
        yield json.dumps(obj)


def write_json(path, obj):
    """Write the bytes ``json.dump(obj, fh)`` writes, one float list (or chunk of one) at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(obj))


def write_decomposition_json(path, d: Decomposition):
    write_json(path, decomposition_to_dict(d))


def read_decomposition_json(path) -> Decomposition:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    return decomposition_from_dict(obj)


def _scalogram_fields(s: Scalogram) -> dict:
    """``scalogram_to_dict`` with arrays: complex128's doubles are already re, im, re, ..."""
    return {
        "times": s.times,
        "scales": s.scales,
        "delta": s.wavelet.delta,
        "extension": s.extension,
        "coeffs_interleaved": np.ascontiguousarray(s.coeffs).view(np.float64).ravel(),
        "unresolved_scales": list(s.unresolved_scales),
    }


def scalogram_to_dict(s: Scalogram) -> dict:
    """Times, scales, and the complex matrix as interleaved re/im, row-major by time."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in _scalogram_fields(s).items()}


def write_scalogram_json(path, s: Scalogram):
    write_json(path, _scalogram_fields(s))  # the coefficients become floats a chunk at a time


def ground_truth_to_dict(g: GroundTruth) -> dict:
    return {**decomposition_to_dict(Decomposition(g.pairs, g.residual)), "params": asdict(g.params)}


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_run_manifest(out_dir, command: str, config: dict, input_paths: list):
    """Reproducibility record written alongside every command's outputs."""
    manifest = {
        "command": command,
        "config": config,
        "input_digest": {str(p): _digest(p) for p in input_paths},
        "tool_version": __version__,
    }
    with open(Path(out_dir) / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
