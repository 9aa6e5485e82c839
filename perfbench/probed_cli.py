"""Run the conecert CLI under a speed probe.

    python3 perfbench/probed_cli.py SAMPLES_FILE ARGS...

runs `python -m conecert.cli ARGS` in this process, with the probe of
speed.py sampling on the CLI's own thread, and at exit writes the
samples and the time they took to SAMPLES_FILE as JSON.  The `cli`
workload uses it so that a command's wall time is scaled by the speed
of the core it ran on, measured without a second process competing
for the machine.
"""

import atexit
import json
import os
import runpy
import sys

from speed import SpeedProbe  # sys.path[0] is this file's directory


def main() -> None:
    out = sys.argv.pop(1)
    sys.path[0] = os.getcwd()  # as under -m
    probe = SpeedProbe()

    def report():
        probe.stop()
        with open(out, "w") as fh:
            json.dump(probe.report(), fh)

    atexit.register(report)
    probe.start()
    runpy.run_module("conecert.cli", run_name="__main__", alter_sys=True)


main()
