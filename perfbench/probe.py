"""Set-up probe: import the CLI and parse the input, then print the time.

`run.py` spawns this in a fresh interpreter and takes `setup_s` as the
CLOCK_MONOTONIC time printed here minus the time just before the spawn.
"""

import sys
import time

from svbayes.cli import read_data_csv

read_data_csv(sys.argv[1])
print(repr(time.monotonic()))
