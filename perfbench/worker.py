"""One benchmark process: set up a workload's inputs, run one pass, score it.

``run.py`` starts this script once per pass (and once per extra set-up
sample), so every pass has a fresh interpreter and its own peak RSS::

    python3 perfbench/worker.py --workload NAME --seed N --group G --mode MODE \\
        --spawned-at T --out DIR [--reduced]

A workload's inputs come in ``groups``; a pass runs the operations of group
``G``, or of every group when ``G`` is -1 (of the first ``TRACE_GROUPS`` on
``pursuit_family``).  ``MODE`` is ``setup`` (stop before the first timed
call), ``plain`` (one untraced pass) or ``traced`` (one pass with spans).
``T`` is the ``time.monotonic()`` reading taken just before the process was
started, so ``setup_s`` covers interpreter start, imports and input
generation.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sparsetf  # noqa: E402
from sparsetf import cli, io as sio, pursuit, wavelet  # noqa: E402

import spans  # noqa: E402

#: Groups of the family and signals per group, alternating 2 and 3 modes.
#: Several groups keep a rare slow signal (a junk-residual transform in the
#: pursuit, a few signals in 100) out of the median peak RSS.
FAMILY_GROUPS, FAMILY_GROUP_SIZE = 8, 4
#: Groups of the family a ``--group -1`` pass runs (the traced pass and its
#: untraced twin).  All eight would take the two passes past a run's time
#: limit when the family holds slow signals.
TRACE_GROUPS = 4
#: Single-mode pairs and probes per pair of ``verify_probes``.
PROBE_PAIRS, PROBES_PER_PAIR = 15, 20


def _zeros(f):
    return sparsetf.SampledSignal(f.t0, f.t1, np.zeros(f.n))


def _grid(s):
    return (s.t0, s.t1, s.n)


def _reconstructs(dec, f) -> bool:
    """components + residual equals the decomposed signal to round-off."""
    scale = max(float(np.max(np.abs(f.values))), 1.0)
    return bool(np.max(np.abs(dec.signal().values - f.values)) <= 1e-9 * scale)


def _compare(truth, dec):
    """(worst matched-component rel-L2, number matched) against ground truth."""
    rep = sparsetf.compare_decompositions(
        sparsetf.Decomposition(truth.pairs, _zeros(dec.residual)), dec)
    return (max(rep.recon_rel_l2_errors) if rep.matched else math.inf), len(rep.matched)


def _family(seed: int, group: int, groups: int, size: int):
    """Criterion 07/08 family signals of one group (of the first
    ``TRACE_GROUPS`` for -1) as (index, m, signal, truth): 2 modes at n=8192
    and 3 modes at n=16384, alternating."""
    states = np.random.SeedSequence([seed, 7]).generate_state(groups * size)
    out = []
    first, stop = (0, min(groups, TRACE_GROUPS)) if group < 0 else (group, group + 1)
    for i in range(first * size, stop * size):
        s, m = states[i], 2 + i % 2
        f, gt = sparsetf.gen_random_well_separated(m, 2.0, 0.05, int(s), 8192 if m == 2 else 16384,
                                                   base_freq=64)
        out.append((i, m, f, gt))
    return out


class Workload:
    """Inputs made in ``__init__`` (set-up), then one callable per operation.

    ``max_gate_miss_frac`` is the share of operations that may miss their
    accuracy gate in a correct run; ``None`` leaves the gate out of
    correctness (the misses are still reported).
    """

    max_gate_miss_frac: float | None = 0.0
    groups = 1

    def ops(self) -> list:
        """(input grid (t0, t1, n), zero-argument callable) per operation."""
        raise NotImplementedError

    def op_keys(self) -> list:
        """(id, class) per operation.  The id names the input across groups;
        ``run.py`` averages the middle half of the times within a class (see
        its ``solve_estimate``).  By default every operation is its own
        class."""
        return [(i, i) for i in range(len(self.ops()))]

    def score_one(self, i: int, output) -> dict:
        """gate / valid / fingerprint (plus count_err, rel_l2 where they apply)."""
        raise NotImplementedError

    def close(self):
        pass


class PursuitFamily(Workload):
    """``matching_pursuit`` with the criterion-08 configuration."""

    # the recovery criteria allow up to 2 misses in 100 signals; a broken
    # stage misses most
    max_gate_miss_frac = 0.2

    def __init__(self, seed, group, reduced, scratch):
        self.groups = 2 if reduced else FAMILY_GROUPS
        self.inputs = _family(seed, group, self.groups, 2 if reduced else FAMILY_GROUP_SIZE)
        self.configs = [
            pursuit.PursuitConfig(
                sparsetf.DictionaryParams(max(3 * gt.params.epsilon, 0.02), 2.0,
                                          epsilon0=0.05 * f.norm()),
                max_components=m + 2, voices=16, delta=0.15)
            for _, m, f, gt in self.inputs]

    def ops(self):
        return [(_grid(f), lambda f=f, cfg=cfg: pursuit.matching_pursuit(f, cfg))
                for (_, _, f, _), cfg in zip(self.inputs, self.configs)]

    def op_keys(self):
        # one class per mode count: the middle half of each stands for its
        # class, so a rare slow signal does not set the pass time
        return [(i, m) for i, m, _, _ in self.inputs]

    def score_one(self, i, dec):
        _, m, f, gt = self.inputs[i]
        rel, matched = _compare(gt, dec)
        return {"count_err": abs(dec.n_components - m), "rel_l2": rel,
                "gate": matched >= m and rel <= 3 * math.sqrt(gt.params.epsilon),
                "valid": _reconstructs(dec, f), "fingerprint": [dec.n_components, rel]}


class MixingCli(Workload):
    """``sparsetf decompose`` then ``sparsetf verify`` on the n=4096 mode-mixing signal.

    The signal has no random part, so the seed does not change it.  At the
    seed commit decompose finds 8 components instead of 2 and verify exits 3.
    Both show as gate misses; they are not part of correctness, and the
    workload must not be changed to hide them.
    """

    MODES = 2
    max_gate_miss_frac = None

    def __init__(self, seed, group, reduced, scratch):
        self.f, self.gt, _ = sparsetf.gen_mode_mixing_example(4096)
        self.dir = scratch / f"mixing-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.csv = self.dir / "signal.csv"
        sio.write_signal_csv(self.csv, self.f)
        self.out = self.dir / "decomposed"
        # the reduced smoke run trades resolution for time
        self.extra = ["--voices", "8"] if reduced else []

    def _cli(self, argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = cli.main(argv)
        return code, text.getvalue()

    def ops(self):
        grid = _grid(self.f)
        return [(grid, lambda: self._cli(["decompose", str(self.csv), "--out", str(self.out)]
                                         + self.extra)),
                (grid, lambda: self._cli(["verify", str(self.out / "decomposition.json"),
                                          str(self.csv)]))]

    def score_one(self, i, output):
        code, text = output
        if i == 0:
            dec = sio.read_decomposition_json(self.out / "decomposition.json")
            rel, _ = _compare(self.gt, dec)
            return {"count_err": abs(dec.n_components - self.MODES), "rel_l2": rel,
                    "gate": dec.n_components == self.MODES, "errored": code != 0,
                    "valid": _reconstructs(dec, sio.read_signal_csv(self.csv)),
                    "fingerprint": [code, dec.n_components, rel]}
        lines = text.splitlines()
        fails = sum(1 for line in lines if "  FAIL  " in line)
        passes = sum(1 for line in lines if "  PASS  " in line)
        return {"gate": code == 0, "errored": code not in (0, 3),
                "valid": fails + passes > 0 and (code == 3) == (fails > 0),
                "fingerprint": [code, fails]}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class VerifyProbes(Workload):
    """``concentration_error`` probes as in criterion 05, cold ``moments`` included."""

    def __init__(self, seed, group, reduced, scratch):
        n_pairs, per_pair = (2, 3) if reduced else (PROBE_PAIRS, PROBES_PER_PAIR)
        rng = np.random.default_rng([seed, 6])
        self.w = sparsetf.make_wavelet(0.2)
        self.probes = []
        for i, s in enumerate(np.random.SeedSequence([seed, 5]).generate_state(n_pairs)):
            _, gt = sparsetf.gen_random_well_separated(1, 2.0, (0.02, 0.05, 0.1)[i % 3], int(s), 4096)
            pair = gt.pairs[0]
            theta_p = pair.theta_prime()
            lo, hi = 0.3 / float(np.max(theta_p)), 3.0 / float(np.min(theta_p))
            # log-uniform omega as in criterion 05, drawn one per stratum: a
            # probe costs in proportion to omega, so iid draws would make the
            # pass time depend on the seed
            for k in range(per_pair):
                t = rng.uniform(0.0, 1.0)
                u = (k + rng.uniform()) / per_pair
                omega = float(np.exp(np.log(lo) + u * np.log(hi / lo)))
                self.probes.append((pair, t, omega))

    def ops(self):
        return [(_grid(pair),
                 lambda p=pair, t=t, om=omega: wavelet.concentration_error(p, self.w, t, om))
                for pair, t, omega in self.probes]

    def score_one(self, i, output):
        err, bound = output
        return {"gate": err <= bound, "valid": math.isfinite(err) and math.isfinite(bound),
                "fingerprint": [err, bound]}


WORKLOADS = {"pursuit_family": PursuitFamily, "mixing_cli": MixingCli,
             "verify_probes": VerifyProbes}


class OpError(str):
    """Traceback text of an operation that raised."""


def run_pass(workload, tracer):
    """(outputs of every operation, wall time of each, wall time of the pass)."""
    outputs, op_s = [], []
    start = time.perf_counter()
    for i, (grid, op) in enumerate(workload.ops()):
        with tracer.op(i, grid) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                outputs.append(op())
            except Exception:  # a failed operation; the run goes on
                outputs.append(OpError(traceback.format_exc()))
            op_s.append(time.perf_counter() - t0)
    return outputs, op_s, time.perf_counter() - start


def score(workload, outputs):
    """(per-operation scores, error texts)."""
    rows, errors = [], []
    for i, out in enumerate(outputs):
        if isinstance(out, OpError):
            rows.append({"errored": True, "gate": False, "valid": True, "fingerprint": None})
            errors.append(out)
            continue
        try:
            row = workload.score_one(i, out)
        except Exception:  # an output that cannot be scored is not a correct one
            row = {"gate": False, "valid": False, "fingerprint": None}
            errors.append(traceback.format_exc())
        row.setdefault("errored", False)
        rows.append(row)
    return rows, errors


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--group", type=int, default=0)
    p.add_argument("--mode", choices=["setup", "plain", "traced"], required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reduced", action="store_true")
    args = p.parse_args(argv)
    if not Path(sparsetf.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sparsetf imported from {sparsetf.__file__}, not from this checkout", file=sys.stderr)
        return 2
    scratch = Path(args.out)
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.group, args.reduced, scratch)
    try:
        tracer = None
        if args.mode == "traced":
            tracer = spans.Tracer()
            spans.install(tracer)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "groups": workload.groups,
                  "max_gate_miss_frac": workload.max_gate_miss_frac, "versions": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}}
        if args.mode != "setup":
            outputs, op_s, solve_s = run_pass(workload, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            rows, errors = score(workload, outputs)
            result.update(solve_s=solve_s, op_s=op_s, op_keys=workload.op_keys(),
                          peak_rss_mb=peak_rss_mb, ops=rows, errors=errors)
            if tracer is not None:
                result["layers"] = spans.layer_metrics(tracer, solve_s)
                path = scratch / f"spans-{args.workload}-seed{args.seed}.json"
                tracer.dump(path)
                result["spans_file"] = str(path)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
