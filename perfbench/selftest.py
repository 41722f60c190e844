"""Self-test of the benchmark: every workload once at a small scale.

Run from the repository root (takes several minutes, one Spark session
at a time):

    python3 perfbench/selftest.py

For each workload in ``perfbench/run.py`` it runs ``--trace 0`` and
``--trace 1`` at ``--scale 0.1`` and asserts that the run exits 0, that
its last line is the result object with ``correct`` true, and that
every metric ``BENCHMARK.json`` names is printed with its unit: the
end-to-end ones by both modes, the per-layer ones by the traced run.
It also checks that the traced run repairs as well as the untraced one
(same f1, precision and recall on the same seed).
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


QUALITY = ("f1", "precision", "recall")


def check(workload: str, trace: int, spec: dict,
          quality: dict) -> list[str]:
    """Run one mode; record its printed quality figures in ``quality``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    printed = "\n".join(lines[:-1])
    want_json = spec["per_layer" if trace else "end_to_end"]
    want_text = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    for m in want_text:
        if not re.search(rf"^{re.escape(m['name'])} = \S+ "
                         rf"{re.escape(m['unit'])}\b", printed, re.M):
            problems.append(f"{where}: {m['name']} not printed with "
                            f"unit {m['unit']}")
    for m in want_json:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{where}: result lacks {m['name']} "
                            f"[{m['unit']}]")
    extra = set(result["metrics"]) - {m["name"] for m in want_json}
    if extra:
        problems.append(f"{where}: result has unlisted metrics {extra}")
    quality[trace] = [re.search(rf"^{m} = (\S+) ", printed, re.M).group(1)
                      for m in QUALITY]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    # BENCHMARK.json and run.py must name the same metrics and units.
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} != run.py's table")
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json workloads unknown to run.py: "
                        f"{unknown}")
    for workload in WORKLOADS:
        quality: dict = {}
        for trace in (0, 1):
            found = check(workload, trace, spec, quality)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
        if len(quality) == 2 and quality[0] != quality[1]:
            problems.append(f"{workload}: traced {QUALITY} {quality[1]} "
                            f"!= untraced {quality[0]}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
