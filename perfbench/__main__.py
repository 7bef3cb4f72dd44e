"""``python3 -m perfbench`` from the repository root."""

import time

STARTED = time.perf_counter()  # before anything heavy: set-up time starts here

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# the program is used from its source tree, never from an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], STARTED))
