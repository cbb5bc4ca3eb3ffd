"""Run one ssrna command as the `ssrna` script does, and fail if it imported a module it does not run.

    python tests/cli_without_numpy.py COMMAND --config CONFIG [--out DIR] [--format csv|json] [--seed N]

Exits with the command's status, or with status 1 and the message "M was
imported" on stderr if the command imported a module M of UNUSED[COMMAND]
that was not loaded before it started.  No command needs numpy at run
time, not even to build the compiled library into an empty cache, nor
dataclasses or inspect, which the records do without.
`analyze` needs neither the compiled library (nor ctypes, which loads it)
nor the integrators, and `simulate` neither the ensembles nor the
stability criteria.  A command that loads a library already cached
imports neither sysconfig nor its _sysconfigdata module either: only a
build reads the compiler command from them.
"""

import sys

UNUSED = {
    "analyze": ("numpy", "dataclasses", "inspect", "ctypes", "ssrna._em", "ssrna.simulator", "ssrna.montecarlo"),
    "simulate": ("numpy", "dataclasses", "inspect", "ssrna.montecarlo", "ssrna.stability"),
    "ensemble": ("numpy", "dataclasses", "inspect"),
    "sweep": ("numpy", "dataclasses", "inspect"),
}

# what only a build imports, by module name prefix
BUILD_ONLY = ("sysconfig", "_sysconfigdata")

loaded = set(sys.modules)  # before ssrna, as by the interpreter's start-up

from ssrna.cli import main

cached = False
if sys.argv[1] in ("simulate", "ensemble", "sweep"):  # the commands that load the library
    from ssrna import _em

    cached = _em._library_path(*_em._numpy_files()).exists()
status = main(sys.argv[1:])
unused = UNUSED.get(sys.argv[1], ("numpy", "dataclasses", "inspect"))
for module in sys.modules:
    if module not in loaded and (module in unused or cached and module.startswith(BUILD_ONLY)):
        sys.exit(f"{module} was imported")
sys.exit(status)
