"""Table 4 — precision / recall / F1 of every method on every dataset.

Runs the four BClean variants and the four baseline analogues over the
six datasets, printing P/R/F1 per (method, dataset) in the paper's row
order. Also writes a machine-readable CSV,
``results/table4_results.csv``, that table7 reuses for timing.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
import pandas as pd

from _common import log, main, scale
from repro.datasets.registry import DATASETS, load_task
from repro.eval.harness import METHODS, run_method

PAPER_F1 = {  # paper Table 4, F1 per (method, dataset); '-' = no result
    "BClean-UC": {"hospital": 0.966, "flights": 0.766, "soccer": 0.954,
                  "beers": 0.121, "inpatient": 0.908, "facilities": 0.807},
    "BClean": {"hospital": 0.976, "flights": 0.834, "soccer": 0.952,
               "beers": 0.901, "inpatient": 0.876, "facilities": None},
    "BClean_PI": {"hospital": 0.980, "flights": 0.805, "soccer": 0.951,
                  "beers": 0.949, "inpatient": 0.908, "facilities": 0.807},
    "BClean_PIP": {"hospital": 0.948, "flights": 0.807, "soccer": 0.885,
                   "beers": 0.914, "inpatient": 0.855, "facilities": 0.741},
    "PClean": {"hospital": 0.962, "flights": 0.895, "soccer": 0.289,
               "beers": 0.028, "inpatient": 0.512, "facilities": None},
    "HoloClean": {"hospital": 0.626, "flights": 0.477, "soccer": None,
                  "beers": 0.047, "inpatient": 0.357, "facilities": 0.759},
    "Raha+Baran": {"hospital": 0.730, "flights": 0.729, "soccer": 0.182,
                   "beers": 0.873, "inpatient": 0.524, "facilities": 0.382},
    "Garf": {"hospital": 0.715, "flights": 0.024, "soccer": 0.583,
             "beers": 0.021, "inpatient": 0.166, "facilities": 0.435},
}


def run(spark) -> pd.DataFrame:
    rows = []
    tasks = {n: load_task(n, scale=scale()) for n in DATASETS}
    for method in METHODS:
        for name in DATASETS:
            log(f"{method} on {name} ...")
            r = run_method(spark, method, tasks[name])
            s = r.scores
            paper = PAPER_F1.get(method, {}).get(name)
            rows.append({
                "method": method, "dataset": name,
                "P": round(s.precision, 3), "R": round(s.recall, 3),
                "F1": round(s.f1, 3),
                "paper_F1": paper if paper is not None else "-",
                "exec_s": round(r.exec_seconds, 1),
            })
            log(f"  -> P={s.precision:.3f} R={s.recall:.3f} "
                f"F1={s.f1:.3f} ({r.exec_seconds:.0f}s)")
    out = pd.DataFrame(rows)
    out.to_csv(Path(__file__).resolve().parent.parent / "results"
               / "table4_results.csv", index=False)
    return out


if __name__ == "__main__":
    sys.exit(main(run, "table4"))
