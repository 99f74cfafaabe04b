"""Set-up probe: do what a ``fade`` command does before its first step, then stop.

Usage:
  python3 bench/setup_probe.py train DATA SPLIT   # import, load_dataset, load_manifest
  python3 bench/setup_probe.py ablate CONFIG      # import, config load and validation

Prints ``time.perf_counter()`` once the inputs are ready.  On Linux that is
CLOCK_MONOTONIC, which every process shares, so the parent subtracts the
reading it took just before starting this process to get the set-up time
from process start.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    import fade.cli as cli

    if argv[:1] == ["train"] and len(argv) == 3:
        ds = cli.load_dataset(argv[1])
        manifest = cli.load_manifest(argv[2], ds)
        manifest.assert_valid(ds, event_separated=False)
    elif argv[:1] == ["ablate"] and len(argv) == 2:
        cli.load_config(argv[1]).validate()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
