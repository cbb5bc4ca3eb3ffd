"""Run one ssrna command as the `ssrna` script does, and fail if it imported numpy.

    python tests/cli_without_numpy.py COMMAND --config CONFIG [--out DIR] [--format csv|json] [--seed N]

Exits with the command's status, or with status 1 and the message "numpy
was imported" on stderr if numpy was imported by the time the command
returned.  No command needs numpy at run time, not even to build the
compiled library into an empty cache.
"""

import sys

from ssrna.cli import main

status = main(sys.argv[1:])
if "numpy" in sys.modules:
    sys.exit("numpy was imported")
sys.exit(status)
