"""Smoke test of the benchmark itself, on reduced inputs (about a minute).

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload and both ``--trace`` values it runs ``run.py --reduced``
and checks that the last line carries exactly the metrics BENCHMARK.json
names, each with its unit and a finite value, and that the report lines
carry the accuracy figures that apply.  It also checks that the runner
refuses to run, without printing a result, where the sources are missing.
The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ACCURACY = {
    "pursuit_family": ("rel_l2_median", "rel_l2_max", "count_abs_err", "fail_frac"),
    "mixing_cli": ("rel_l2_median", "rel_l2_max", "count_abs_err", "fail_frac"),
    "verify_probes": ("fail_frac",),
}


def check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"smoke test failed: {message}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(ACCURACY), "workload list")
    for workload in ACCURACY:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
                       "--trace", str(trace), "--reduced")
            where = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where} keys")
            check(result["correct"] is True, f"{where} not correct")
            check(result["attempted"] >= 1, f"{where} attempted")
            expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{where} metrics {got} != {expected}")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                      f"{where} {name} = {m['value']!r}")
            printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
            missing = (set(expected) | set(ACCURACY[workload])) - printed
            check(not missing, f"{where} report lacks {sorted(missing)}")
            print(f"ok  {where}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "--workload", "pursuit_family")
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "runs without sources")
    print("ok  refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
