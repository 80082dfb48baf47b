"""Record `reference.json`: for every workload and input variant, run one
pass at the current checkout and store the values its output checks compare
against (optimal gains, final trajectory rows, the set of failing
operations). Run from the root of a checkout whose results are trusted:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import N_VARIANTS, REFERENCE_PATH, WORKLOADS, run_op  # noqa: E402

from syncopt import cli  # noqa: E402

SIGNIFICANT = 12  # far finer than the checks' relative tolerance


def rounded(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT}g}")
    if isinstance(obj, list):
        return [rounded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: rounded(v) for k, v in obj.items()}
    return obj


def main() -> int:
    work = ROOT / ".bench_work" / "record"
    reference = {}
    try:
        for name, cls in WORKLOADS.items():
            reference[name] = {}
            for variant in range(N_VARIANTS):
                shutil.rmtree(work, ignore_errors=True)
                wl = cls(variant, work / "inputs", reference=False)
                ops = [run_op(cli, op) for op in wl.ops(work / "out")]
                if name != "learn_batch" and not all(op.ok for op in ops):
                    bad = [(op.key, op.rc, op.detail) for op in ops if not op.ok]
                    raise SystemExit(f"{name} variant {variant} failed: {bad}")
                reference[name][str(variant)] = rounded(wl.observe(work / "out", ops))
                print(f"{name} variant {variant}: recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
