"""Cross-check of the earlier uncommitted baseline: ``escher migrate`` on a
100k-record bank file (about 10.4 s and 217 MB were reported), and parse and
retrieve rates on the bank_bulk file with tracing off.

    python3 benchmarks/baseline.py
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDS = 100_000
SEED = 1


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    from escher import objects

    work = ROOT / ".bench_work" / "baseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        class Big(workloads.BankBulk):
            records = RECORDS

        wl = Big(ROOT, work, SEED)
        wall, rss, got = workloads.run_cli(wl.cli(), wl.env)
        print(f"escher migrate, {RECORDS} records: {wall:.2f} s, peak RSS {rss:.1f} MB, "
              f"output {'matches' if got == wl.inputs.expected else 'DIFFERS FROM'} the oracle")
        t0 = time.perf_counter()
        graph = objects.deserialize(wl.inputs.eso)
        t1 = time.perf_counter()
        objects.retrieve(graph, wl.repo, wl.targets)
        t2 = time.perf_counter()
        print(f"deserialize {RECORDS / (t1 - t0):.0f} records/s, retrieve {RECORDS / (t2 - t1):.0f} records/s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
