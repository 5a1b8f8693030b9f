"""Set-up as a user pays it: a fresh interpreter imports ``doubletrace.cli``
and parses every graph file of a workload.

    python3 setup_probe.py SRC_DIR WORK_DIR
"""

import os
import sys

sys.path.insert(0, sys.argv[1])

from doubletrace import cli  # noqa: E402

work = sys.argv[2]
for name in sorted(os.listdir(work)):
    if name.endswith(".txt"):
        with open(os.path.join(work, name), encoding="utf-8") as fh:
            cli.parse_graph(fh.read())
