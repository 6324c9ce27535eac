"""Time mesomath's set-up in this fresh interpreter.

Set-up is ``import mesomath``, the import of the modules the workload
drives, and building the standard reciprocal table.  Nothing else is
imported before the clock starts, so stdlib modules mesomath pulls in
are part of the figure.  Prints the seconds.

    python3 setup_probe.py <checkout root> <workload>
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import mesomath  # noqa: E402

if sys.argv[2] == "corpus_replay":
    import mesomath.cli  # noqa: E402,F401
mesomath.tables.gen_reciprocal_table()
sys.stdout.write(repr(time.perf_counter() - t0) + "\n")
