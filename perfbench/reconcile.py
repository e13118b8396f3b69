"""Re-measure the ROADMAP baseline figures this benchmark replaces.

    python3 perfbench/reconcile.py

Prints interval expansions and wall time for G(40, 0.2) and G(50, 0.1)
(``random_connected_graph`` with ``random.Random(1)``, all rows through
one ``IntervalCache``) and the wall time of ``run_suite`` with its default
settings (seed 1, default profile, one job).  Takes about half a minute.
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monopos.families import random_connected_graph  # noqa: E402
from monopos.harness import run_suite  # noqa: E402
from monopos.paths import IntervalCache  # noqa: E402

for n, p in ((40, 0.2), (50, 0.1)):
    g = random_connected_graph(n, random.Random(1), p)
    cache = IntervalCache(g)
    t0 = time.perf_counter()
    for u in range(g.n):
        cache.row(u)
    print(f"G({n}, {p}): {cache.expansions} interval expansions, {time.perf_counter() - t0:.2f} s")

t0 = time.perf_counter()
report = run_suite()
print(f"run_suite (verify default): {time.perf_counter() - t0:.2f} s, passed={report.passed}")
