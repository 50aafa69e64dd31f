"""Script entry point: ``python3 benchmarks/e2e/run.py --workload W --seed S ...``.

Equivalent to ``python -m benchmarks.e2e run ...`` from the repository
root, without needing the root on ``sys.path``.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
