"""Run the semsim command line with the per-layer trace installed.

Usage: ``python3 perfbench/cli_boot.py RECORDS.json SEMSIM-ARGS...``

Imports ``semsim.cli`` from the checkout's ``src`` (timing the import),
wraps the layers' public functions, runs ``semsim.cli.main`` on the
remaining arguments and writes the trace records to ``RECORDS.json``.
The exit status is the command's.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import semsim.cli
    import_ms = (time.perf_counter() - t0) * 1e3
    from tracing import Trace
    trace = Trace()
    trace.install()
    try:
        return semsim.cli.main(argv[2:])
    finally:
        records = trace.records()
        records["import_ms"] = import_ms
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(records, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
