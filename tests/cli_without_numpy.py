"""Run one ssrna command as the `ssrna` script does, and fail if it imported a module it does not run.

    python tests/cli_without_numpy.py COMMAND --config CONFIG [--out DIR] [--format csv|json] [--seed N]

Exits with the command's status, or with status 1 and the message "M was
imported" on stderr if the command imported a module M of UNUSED[COMMAND]
that was not loaded before it started.  No command needs numpy at run
time, not even to build the compiled library into an empty cache, nor
dataclasses or inspect, which the records do without.
`analyze` needs neither the compiled library (nor ctypes, which loads it)
nor the integrators, and `simulate` neither the ensembles nor the
stability criteria.
"""

import sys

UNUSED = {
    "analyze": ("numpy", "dataclasses", "inspect", "ctypes", "ssrna._em", "ssrna.simulator", "ssrna.montecarlo"),
    "simulate": ("numpy", "dataclasses", "inspect", "ssrna.montecarlo", "ssrna.stability"),
    "ensemble": ("numpy", "dataclasses", "inspect"),
    "sweep": ("numpy", "dataclasses", "inspect"),
}

loaded = set(sys.modules)  # before ssrna, as by the interpreter's start-up

from ssrna.cli import main

status = main(sys.argv[1:])
for module in UNUSED.get(sys.argv[1], ("numpy", "dataclasses", "inspect")):
    if module in sys.modules and module not in loaded:
        sys.exit(f"{module} was imported")
sys.exit(status)
