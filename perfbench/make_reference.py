"""Regenerate ``reference.json``: the analytic column of every workload's rows.

    python3 perfbench/make_reference.py

The analytic column does not depend on the seed or the Monte Carlo effort,
so one pass of each workload fixes it.  Run this only when a change to the
library deliberately changes analytic values, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))


def main() -> None:
    reference = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in run.WORKLOADS:
            for call in run.run_pass(workload, 1, Path(tmp)).calls:
                if call.error is not None:
                    raise SystemExit(f"{call.label}: {call.error}")
                reference[call.label] = [[r.series, r.sweep_value, r.analytic] for r in call.rows]
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
