"""Pin the report sha256 of every argv the benchmark can run.

Usage (from the repository root):

    python3 perfbench/pin.py

Runs each distinct argv of each workload's seed pool once, cold and one at
a time, and writes perfbench/pins.json.  An argv that exits nonzero or has
a row with ok false is not pinned, and the script exits 1.  Re-pin only
when a change is meant to alter report bytes: a speed-up does not count if
the bytes change.
"""

import json
import os
import sys

from run import PINS, SRC, spawn
from workloads import WORKLOADS


def main():
    env = dict(os.environ, PYTHONPATH=SRC)
    pins, bad = {}, []
    for workload in WORKLOADS.values():
        for argv in workload.pool():
            key = " ".join(argv)
            data, error = spawn({"argv": argv}, env)
            if error or data["code"] != 0 or data["bad_rows"]:
                bad.append(key)
                print("# not pinned [%s]: %s" % (key, error or data), flush=True)
                continue
            pins[key] = data["sha256"]
            print("# [%s] %s %.2f s" % (key, data["sha256"], data["wall_s"]), flush=True)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
