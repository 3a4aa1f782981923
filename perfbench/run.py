"""Benchmark of the sparsetf pipeline: timed passes scored against ground truth.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pursuit_family --seed 1 --seconds 35 --trace 0

Workloads: pursuit_family, mixing_cli, verify_probes (see
perfbench/README.md).  A workload's seeded inputs come in groups; each pass
runs one group in its own process (perfbench/worker.py).  With ``--trace 0``
the runner runs every group once and then further rounds while another pass
fits in ``--seconds``, and tops up the set-up samples in the time left.  It
reports the median set-up time, the time of one pass over all inputs
estimated from the per-operation times (``solve_estimate``), and the median
over groups of each group's median peak RSS.  With ``--trace 1`` it runs
one untraced and one traced pass over all groups at once (the first four on
pursuit_family), stops with an error if their results differ, and reports
the per-layer metrics of the traced pass.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat every
metric by name and unit together with the accuracy figures and the
environment.  A fuller record goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pursuit_family", "mixing_cli", "verify_probes")
DEFAULT_SEED = 1
#: Set-up samples a run tops up to with set-up-only workers, when its passes
#: give fewer and time is left.
MIN_SETUP_SAMPLES = 5
#: Every process of a run must end within this many seconds of its start.
DEADLINE_S = 170.0
#: Thread counts pinned in every worker, so runs on a shared machine compare.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Relative tolerance when two passes over the same inputs are compared.
REPEAT_RTOL = 1e-9

ACCURACY_UNITS = {"rel_l2_median": "ratio", "rel_l2_max": "ratio",
                  "count_abs_err": "count", "fail_frac": "ratio"}


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SPARSETF_THREADS", None)  # cwt's own default: one thread
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(mode: str, args, group: int, out_dir: Path, started: float) -> dict:
    """Run one worker process on one input group and return its JSON result."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next pass")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--group", str(group), "--mode", mode,
           "--out", str(out_dir)]
    if args.reduced:
        cmd.append("--reduced")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_worker_env(),
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or math.isclose(a, b, rel_tol=REPEAT_RTOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def results_match(x: dict, y: dict) -> bool:
    """Two passes over the same inputs gave the same answers."""
    keys = ("errored", "gate", "count_err", "rel_l2", "fingerprint")
    return len(x["ops"]) == len(y["ops"]) and all(
        _same(rx.get(k), ry.get(k)) for rx, ry in zip(x["ops"], y["ops"]) for k in keys)


def accuracy(ops: list) -> dict:
    """The accuracy figures that apply to a workload, from one pass."""
    out = {"fail_frac": sum(r["errored"] or not r["gate"] for r in ops) / len(ops)}
    rel = [r["rel_l2"] for r in ops if "rel_l2" in r]
    if rel:
        out["rel_l2_median"] = statistics.median(rel)
        out["rel_l2_max"] = max(rel)
        counts = [r["count_err"] for r in ops if "count_err" in r]
        out["count_abs_err"] = sum(counts) / len(counts)
    return out


def source_identity() -> dict:
    """git sha when the checkout is a git work tree, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT.resolve():
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _mid_mean(values) -> float:
    """Mean of the middle half of ``values``: of all of them when fewer than 4."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def solve_estimate(passes: list) -> float:
    """Time of one pass over every input, from the per-operation times.

    An operation's time is its median over the passes that ran it.  Within a
    class of operations (``op_keys`` in worker.py) the mean of the middle
    half of those times stands for every member, so the estimate is the sum
    over classes of the class size times that mean.  A rare slow input, and
    a burst of load on a shared machine, fall outside the middle half.
    """
    times, classes = {}, {}
    for p in passes:
        for (key, cls), t in zip(p["op_keys"], p["op_s"]):
            times.setdefault(key, []).append(t)
            classes[key] = cls
    by_class = {}
    for key, ts in times.items():
        by_class.setdefault(classes[key], []).append(statistics.median(ts))
    return sum(len(v) * _mid_mean(v) for v in by_class.values())


def _fits(started: float, seconds: float, walls: list) -> bool:
    """A worker as long as the median of ``walls`` would end within the run."""
    return time.monotonic() - started + statistics.median(walls) <= seconds


def _group_median(passes: list, groups: int, key: str) -> float:
    """Median over the input groups of each group's median pass value."""
    return statistics.median(statistics.median(p[key] for p in passes[g::groups])
                             for g in range(groups))


def measure(args, units: dict, out_dir: Path, started: float) -> tuple[dict, dict]:
    """(final JSON object, full record) of one run."""
    if args.trace:
        plain = spawn("plain", args, -1, out_dir, started)
        traced = spawn("traced", args, -1, out_dir, started)
        if not results_match(plain, traced):
            raise BenchError("the traced pass changed the results:\n"
                             f"untraced {plain['ops']}\ntraced   {traced['ops']}")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["solve_s"] / plain["solve_s"] - 1.0
        passes = scored = [plain]
        repeatable = True
        record_extra = {"traced": traced}
    else:
        # every group once, then round again while another pass fits
        passes, walls, groups = [], [], 1
        while len(passes) < groups or _fits(started, args.seconds, walls):
            t0 = time.monotonic()
            passes.append(spawn("plain", args, len(passes) % groups, out_dir, started))
            walls.append(time.monotonic() - t0)
            groups = passes[0]["groups"]
        setups = [p["setup_s"] for p in passes]
        walls = [2 * max(setups)]
        while len(setups) < MIN_SETUP_SAMPLES and _fits(started, args.seconds, walls):
            t0 = time.monotonic()
            setups.append(spawn("setup", args, 0, out_dir, started)["setup_s"])
            walls = [time.monotonic() - t0]
        repeatable = all(results_match(passes[i % groups], p) for i, p in enumerate(passes))
        if not repeatable:
            print("passes over the same inputs disagree", file=sys.stderr)
        scored = passes[:groups]
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": solve_estimate(passes),
            "peak_rss_mb": _group_median(passes, groups, "peak_rss_mb"),
        }
        record_extra = {"setups": setups}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    ops = [row for p in scored for row in p["ops"]]
    limit = passes[0]["max_gate_miss_frac"]
    misses = sum(not r["gate"] for r in ops)
    correct = (repeatable and all(r["valid"] for r in ops)
               and (limit is None or misses <= limit * len(ops)))
    result = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(r["errored"] for r in ops),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = _worker_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "reduced": args.reduced, "source": source_identity(),
              "env": {**passes[0]["versions"], "nproc": len(os.sched_getaffinity(0)),
                      "threads": {k: env.get(k) for k in (*PINNED_THREADS, "SPARSETF_THREADS")}},
              "accuracy": accuracy(ops), "passes": passes, "result": result, **record_extra}
    return result, record


def load_units(trace: int) -> dict:
    """Metric units from BENCHMARK.json, the list the output must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict):
    res = record["result"]
    src, env = record["source"], record["env"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"passes={len(record['passes'])} attempted={res['attempted']} "
          f"failed={res['failed']} correct={res['correct']}")
    print(f"# git_sha={src['git_sha']} src_sha256={src['src_sha256'][:16]} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} threads={json.dumps(env['threads'], sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    for name, value in record["accuracy"].items():
        print(f"{name:<40} {value:.6g} {ACCURACY_UNITS[name]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed, a non-negative integer (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="start untraced passes while one more fits in this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="small inputs, for the smoke test; not comparable with full runs")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "sparsetf" / "__init__.py").is_file():
        print(f"no sparsetf sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    units = load_units(args.trace)
    out_dir = ROOT / ".bench_out"
    try:
        result, record = measure(args, units, out_dir, started)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
