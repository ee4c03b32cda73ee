"""Run the bwcache CLI like ``python -m bwcache.cli`` and report what it cost.

Usage: python3 cli_probe.py RESULT_JSON CLI_ARG...

Writes the seconds spent in ``import bwcache.cli`` and in ``main(argv)``, the
exit code and the process's peak RSS in MiB to RESULT_JSON.
"""

import resource
import time

t0 = time.perf_counter()
import bwcache.cli  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

rc = bwcache.cli.main(sys.argv[2:])
t2 = time.perf_counter()
with open(sys.argv[1], "w") as f:
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump({"import_s": t1 - t0, "main_s": t2 - t1, "rc": rc, "peak_rss_mib": peak_mib}, f)
sys.exit(rc)
