"""Child process of the batch workloads: one cold set-up, timed.

``python3 perfbench/setup_probe.py <workload>`` imports the program,
then times Verilog text -> simulator ready for each of the workload's
designs (front end, embedded lint, partition, codegen, executor build,
preload) and prints the seconds summed over designs.  The program's
import is not part of the figure.
"""

import sys

from common import use_program

use_program()

from batch import LANES, WORKLOADS, cold_setup  # noqa: E402

if __name__ == "__main__":
    seconds, _built = cold_setup(WORKLOADS[sys.argv[1]], LANES)
    print(repr(seconds))
