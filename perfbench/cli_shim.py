"""Run one ``mqsp`` command-line call with the benchmark's tracer installed.

Usage: ``python3 perfbench/cli_shim.py OUT.json <mqsp arguments...>`` with
the package's source directory on ``PYTHONPATH``.  Times the import of
``mqsp.cli`` and the call of ``mqsp.cli.main``, writes the tracer's export
plus ``import_s`` to ``OUT.json`` and exits with the call's exit code.
"""

import json
import sys
import time

import tracer

out_path, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
import mqsp.cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - start
recorder = tracer.Tracer()
recorder.install()
code = recorder.call("cli.main", mqsp.cli.main, argv)
data = recorder.export()
data["import_s"] = import_s
with open(out_path, "w", encoding="utf-8") as handle:
    json.dump(data, handle)
sys.exit(code)
