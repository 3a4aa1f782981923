"""Command-line front end.

Subcommands: synth, decompose, verify, cwt, compare, partition, reproduce.
Exit codes: 0 success, 1 input/IO error, 2 algorithmic non-convergence,
3 verification failure.  Config precedence: flags > config file > defaults;
the resolved configuration is echoed into the run manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import fields
from itertools import combinations
from pathlib import Path

import numpy as np

from . import io as sio
from . import svg
from .errors import InvalidInputError, NumericalFailureError
from .pursuit import PursuitConfig, matching_pursuit, p2_objective, partition_domain
from .ridge import compare_decompositions
from .separation import (check_scale_separation, check_well_separated,
                         verify_cross_term_bound, verify_norm_equivalence)
from .signal import DictionaryParams, SampledSignal, reconstruct, smoother_extension
from .synth import (gen_crossing_example, gen_mode_mixing_example,
                    gen_random_well_separated)
from .wavelet import cwt, default_scales, make_wavelet

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

#: Config keys and their defaults, in manifest order: the ``PursuitConfig``
#: defaults after the dictionary parameters.  ``epsilon0`` None is adaptive,
#: ``max(1e-2, 0.05 ||f||)`` (see ``_settings``).
CONFIG_DEFAULTS = {"epsilon": 0.05, "d": 2.0, "epsilon0": None,
                   **{f.name: f.default for f in fields(PursuitConfig) if f.name != "params"}}
_PARAM_KEYS = ("epsilon", "d", "epsilon0")


def _typed(key, value, default):
    """A numeric setting as its default's type (``epsilon0``: float); others as given."""
    kind = float if key == "epsilon0" else type(default)
    if value is None or kind not in (int, float):
        return value
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, (str, bool)) and kind(value) == value:  # not 16.5 or nan
            return kind(value)
    raise InvalidInputError(f"config key {key!r}: expected {kind.__name__}, got {value!r}")


def _settings(args, signal: SampledSignal | None = None) -> dict:
    """Flags over the config file over ``CONFIG_DEFAULTS``, each value typed.

    An unset ``epsilon0`` is resolved against ``signal`` when one is given.
    """
    cfg = dict(CONFIG_DEFAULTS)
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"{path}: line {exc.lineno}: {exc.msg}") from None
        if not isinstance(file_cfg, dict):
            raise InvalidInputError(f"{path}: expected a JSON object of config keys")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise InvalidInputError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg.update(file_cfg)
    cfg.update({key: getattr(args, key) for key in cfg if getattr(args, key, None) is not None})
    cfg = {key: _typed(key, val, CONFIG_DEFAULTS[key]) for key, val in cfg.items()}
    if cfg["epsilon0"] is None and signal is not None:
        cfg["epsilon0"] = max(1e-2, 0.05 * signal.norm())
    return cfg


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.example == "crossing":
        f, gt_a, gt_b = gen_crossing_example(args.k, args.n or 64 * args.k)
        sio.write_signal_csv(out / "signal.csv", f)
        sio.write_json(out / "ground_truth.json", sio.ground_truth_to_dict(gt_a))
        sio.write_json(out / "ground_truth_alternative.json", sio.ground_truth_to_dict(gt_b))
        config = {"example": "crossing", "k": args.k, "n": f.n}
    elif args.example == "mode-mixing":
        f, gt, spurious = gen_mode_mixing_example(args.n or 2**15)
        sio.write_signal_csv(out / "signal.csv", f)
        sio.write_json(out / "ground_truth.json", sio.ground_truth_to_dict(gt))
        sio.write_json(out / "spurious_pair.json",
                       {"a": spurious.a.tolist(), "theta": spurious.theta.tolist()})
        config = {"example": "mode-mixing", "n": f.n}
    else:
        d = _settings(args)["d"]
        f, gt = gen_random_well_separated(args.m, d, args.eps_target, args.seed,
                                          args.n or 4096, noise_amplitude=args.noise)
        sio.write_signal_csv(out / "signal.csv", f)
        sio.write_json(out / "ground_truth.json", sio.ground_truth_to_dict(gt))
        config = {"example": "random", "m": args.m, "d": d,
                  "eps_target": args.eps_target, "seed": args.seed, "n": f.n,
                  "noise": args.noise}
    sio.write_run_manifest(out, "synth", config, [out / "signal.csv"])
    print(f"wrote {out / 'signal.csv'}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    f = sio.read_signal_csv(args.signal)
    cfg_dict = _settings(args, f)
    params = DictionaryParams(cfg_dict["epsilon"], cfg_dict["d"], epsilon0=cfg_dict["epsilon0"])
    cfg = PursuitConfig(params, **{k: v for k, v in cfg_dict.items() if k not in _PARAM_KEYS})
    decomp = matching_pursuit(f, cfg)
    sio.write_decomposition_json(out / "decomposition.json", decomp)
    t = f.times()
    for i, comp in enumerate(decomp.components, start=1):
        svg.line_plot(out / f"component_{i}_envelope.svg", t, [comp.a],
                      title=f"component {i} envelope", labels=["a(t)"])
        svg.line_plot(out / f"component_{i}_frequency.svg", t,
                      [comp.theta_prime() / (2 * np.pi)],
                      title=f"component {i} instantaneous frequency",
                      labels=["theta'(t)/2pi"])
        svg.line_plot(out / f"component_{i}_overlay.svg", t,
                      [f.values, comp.a * np.cos(comp.theta)],
                      title=f"component {i} vs signal", labels=["signal", "mode"])
    svg.line_plot(out / "residual.svg", t, [decomp.residual.values],
                  title="residual", labels=["r(t)"])
    inputs = [args.signal] + ([args.config] if args.config else [])
    cfg_dict["extension"] = smoother_extension(f.values)  # as matching_pursuit picked
    sio.write_run_manifest(out, "decompose", cfg_dict, inputs)
    rnorm = decomp.residual.norm()
    print(f"{decomp.n_components} component(s); residual norm {rnorm:.4e}")
    if decomp.no_progress and rnorm >= cfg.params.epsilon0:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_verify(args) -> int:
    decomp = sio.read_decomposition_json(args.decomposition)
    f = sio.read_signal_csv(args.signal)
    if not f.same_grid(decomp.residual):
        raise InvalidInputError("signal and decomposition grids differ")
    cfg = _settings(args, f)
    eps, d, eps0 = (cfg[key] for key in _PARAM_KEYS)
    DictionaryParams(eps, d, epsilon0=eps0)  # rejects out-of-range settings

    rows = []
    ok = True
    comps = list(decomp.components)
    for i, c in enumerate(comps, start=1):
        rep = check_scale_separation(c, eps)
        rows.append((f"scale separation [{i}]",
                     f"eps_env={rep.eps_envelope:.3e} eps_freq={rep.eps_frequency:.3e}",
                     rep.in_dictionary))
        ok &= rep.in_dictionary
        nrm = verify_norm_equivalence(c)
        rows.append((f"norm equivalence [{i}]",
                     f"{nrm.lhs:.4g} <= {nrm.mid:.4g} <= {nrm.rhs:.4g}", nrm.holds))
        ok &= nrm.holds
    if len(comps) >= 2:
        d_min = check_well_separated(comps)
        rows.append(("well separated", f"d_min={d_min:.4g} vs d={d}", d_min >= d))
        ok &= d_min >= d
        order = np.argsort([float(np.mean(c.theta_prime())) for c in comps])
        for slow, fast in combinations(order, 2):
            name = f"cross term [{slow + 1},{fast + 1}]"
            try:
                ct = verify_cross_term_bound(comps[slow], comps[fast])
                rows.append((name, f"|<.,.>|={ct.value:.3e} bound={ct.bound:.3e}", ct.holds))
                ok &= ct.holds
            except InvalidInputError as exc:
                rows.append((name, str(exc), False))
                ok = False
    fit = reconstruct(comps).values if comps else np.zeros(f.n)
    misfit = float(np.sqrt(np.trapezoid((f.values - fit) ** 2, dx=f.dt)))
    resid_ok = misfit < eps0
    rows.append(("residual below threshold",
                 f"||f - sum of components|| = {misfit:.4e} vs epsilon0={eps0:.4e}", resid_ok))
    ok &= resid_ok

    width = max(len(r[0]) for r in rows)
    for name, detail, passed in rows:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_cwt(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    f = sio.read_signal_csv(args.signal)
    cfg = _settings(args)
    w = make_wavelet(cfg["delta"])
    voices, ext = cfg["voices"], smoother_extension(f.values)
    scales = default_scales(f, w, voices=voices, fmin=args.fmin, fmax=args.fmax)
    s = cwt(f, w, scales, extension=ext)
    sio.write_scalogram_json(out / "scalogram.json", s)
    svg.heatmap(out / "scalogram.svg", s.times, s.scales, s.magnitude(),
                title=f"|W(t, omega)|, delta={w.delta}")
    sio.write_run_manifest(out, "cwt",
                           {"delta": w.delta, "voices": voices, "extension": ext,
                            "fmin": args.fmin, "fmax": args.fmax},
                           [args.signal])
    print(f"wrote {out / 'scalogram.json'} ({s.scales.size} scales)")
    return EXIT_OK


def cmd_compare(args) -> int:
    da = sio.read_decomposition_json(args.first)
    db = sio.read_decomposition_json(args.second)
    rep = compare_decompositions(da, db)
    print(f"counts: {da.n_components} vs {db.n_components} "
          f"({'equal' if rep.counts_equal else 'DIFFERENT'})")
    header = f"{'pair':>8}  {'sup|da|':>12}  {'phase err':>12}  {'sup recon':>12}  {'rel L2':>12}"
    print(header)
    worst = 0.0
    for (i, j), ae, pe, se, re_ in zip(rep.matched, rep.amp_errors, rep.phase_errors,
                                       rep.recon_sup_errors, rep.recon_rel_l2_errors):
        print(f"{i}->{j:>5}  {ae:12.4e}  {pe:12.4e}  {se:12.4e}  {re_:12.4e}")
        worst = max(worst, ae, pe, se, re_)
    if args.tol is not None and (worst > args.tol or not rep.counts_equal):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_partition(args) -> int:
    decomp = sio.read_decomposition_json(args.decomposition)
    d = _settings(args)["d"]
    if not decomp.components:
        print("no components")
        return EXIT_OK
    t = decomp.residual.times()
    for i, comp in enumerate(decomp.components, start=1):
        tp = comp.theta_prime()
        bps = partition_domain(tp, d)
        times = ", ".join(f"{t[b]:.6g}" for b in bps) if bps.size else "(none)"
        print(f"component {i}: {bps.size + 1} segment(s); breakpoints at {times}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    started = time.perf_counter()
    n = 2**15
    f, gt, spurious = gen_mode_mixing_example(n)
    vals = {
        "single-mode stitched fit": (p2_objective(f, spurious), 72.4),
        "misfit of low mode alone": (p2_objective(f, gt.pairs[0]), 84.0),
        "misfit of high mode alone": (p2_objective(f, gt.pairs[1]), 84.0),
    }
    lines = [f"{'quantity':<28}{'computed':>12}{'reference':>12}{'rel dev':>10}"]
    ok = True
    for name, (got, ref) in vals.items():
        dev = abs(got - ref) / ref
        ok &= dev <= 0.02
        lines.append(f"{name:<28}{got:>12.4f}{ref:>12.1f}{dev:>10.2%}")
    elapsed = time.perf_counter() - started
    lines.append(f"elapsed: {elapsed:.2f} s (n = {n})")
    table = "\n".join(lines)
    print(table)
    (out / "objective_reproduction.txt").write_text(table + "\n", encoding="utf-8")
    sio.write_run_manifest(out, "reproduce", {"n": n}, [])
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sparsetf",
                                description="sparse time-frequency decomposition toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_dictionary_flags(sp):
        sp.add_argument("--epsilon", type=float, default=None, help="separation factor")
        sp.add_argument("--d", type=float, default=None, help="frequency ratio")
        sp.add_argument("--epsilon0", type=float, default=None, help="residual threshold")

    def add_transform_flags(sp):
        sp.add_argument("--delta", type=float, default=None, help="wavelet half-bandwidth")
        sp.add_argument("--voices", type=int, default=None, help="scales per octave")

    sp = sub.add_parser("synth", help="generate benchmark signals")
    sp.add_argument("--example", choices=["crossing", "mode-mixing", "random"], required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--k", type=int, default=32, help="carrier multiplier (crossing)")
    sp.add_argument("--n", type=int, default=None, help="sample count")
    sp.add_argument("--m", type=int, default=2, help="component count (random)")
    sp.add_argument("--eps-target", type=float, default=0.05, dest="eps_target")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise", type=float, default=0.0, help="additive noise amplitude")
    sp.add_argument("--d", type=float, default=None)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("decompose", help="greedy mode extraction")
    sp.add_argument("signal", help="input signal CSV")
    sp.add_argument("config", nargs="?", default=None, help="config JSON")
    sp.add_argument("--out", required=True)
    add_dictionary_flags(sp)
    add_transform_flags(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("verify", help="check a decomposition against the admissibility bounds")
    sp.add_argument("decomposition", help="decomposition JSON")
    sp.add_argument("signal", help="signal CSV")
    add_dictionary_flags(sp)
    sp.set_defaults(func=cmd_verify)

    # no abbreviations here: cwt takes no --d, which would otherwise abbreviate --delta
    sp = sub.add_parser("cwt", help="scalogram and heatmap", allow_abbrev=False)
    sp.add_argument("signal")
    sp.add_argument("--out", required=True)
    sp.add_argument("--fmin", type=float, default=None)
    sp.add_argument("--fmax", type=float, default=None)
    add_transform_flags(sp)
    sp.set_defaults(func=cmd_cwt)

    sp = sub.add_parser("compare", help="match two decompositions component-wise")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.add_argument("--tol", type=float, default=None,
                    help="exit nonzero if any error exceeds this")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("partition", help="split components into sqrt(d) frequency segments")
    sp.add_argument("decomposition")
    sp.add_argument("--d", type=float, default=None)
    sp.set_defaults(func=cmd_partition)

    sp = sub.add_parser("reproduce", help="recompute the reference misfit table")
    sp.add_argument("--out", default="reproduction")
    sp.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
