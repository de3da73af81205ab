"""One timed set-up in a fresh interpreter: import gpgd, then generate the
workload's dataset and write its config. Prints one JSON line with the
elapsed seconds and the set-up's facts for the manifest.

    python3 bench/setup_step.py <workload> <seed> <out_dir> [--small]
"""

import json
import sys
import time
from pathlib import Path

started = time.perf_counter()

from run import use_source_tree  # noqa: E402  (stdlib only)

use_source_tree()
import workloads  # noqa: E402  (imports numpy and gpgd)


def main(argv) -> int:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    facts = workloads.WORKLOADS[name].setup(seed, out, small="--small" in argv[3:])
    print(json.dumps({"seconds": time.perf_counter() - started, "facts": facts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
