"""Run the CLI as ``python -m enriques_bn.cli ARGS`` runs it, probed for drift.

    python3 perfbench/cli_child.py ARGS...

The benchmark's cli items are fresh interpreters running this file.  The
CLI runs through ``runpy`` as ``-m`` runs it, so its stdout, stderr and
exit code are its own, while refloop.Probes times short runs of the
reference loop.  After the CLI ends, one JSON line with the probe times and
their total seconds goes to stderr, for the runner's drift correction.
"""

import json
import runpy
import sys

from refloop import Probes


def main() -> None:
    code = 0
    with Probes() as probes:
        try:
            runpy.run_module("enriques_bn.cli", run_name="__main__", alter_sys=True)
        except SystemExit as ex:
            code = ex.code
    sys.stdout.flush()
    sys.stderr.write("\n" + json.dumps({"times": probes.times, "seconds": probes.seconds}) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
