"""One set-up sample: start, import monopos, decode the corpus, load the
expected values, then print the seconds elapsed since the wall-clock time
the parent passed in.  ``run.py`` runs several of these processes.

    python3 perfbench/setup_probe.py <workload> <time.time() before spawn>
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402

corpus.load_workload(ROOT, sys.argv[1])
print(time.time() - float(sys.argv[2]))
