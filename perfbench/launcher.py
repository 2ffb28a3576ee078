"""Runs the benchmark's commands and reports their time and peak memory.

Usage: python3 launcher.py WORKDIR

Linux reports a child's peak RSS as at least the peak of the process that
forked it, so commands start from this small process instead of from the
benchmark, which holds numpy, scipy and the generated inputs.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stdin":
path or null}``; one JSON reply per line on stdout with ``seconds``,
``code``, ``stdout`` and ``stderr`` (base64) and ``rss_mb``.  The launcher
exits at the end of its input.
"""

import base64
import json
import os
import subprocess
import sys
import tempfile
import time


def run(argv, stdin, workdir):
    with open(stdin or os.devnull, "rb") as fin, \
            tempfile.TemporaryFile(dir=workdir) as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=subprocess.PIPE, stderr=ferr)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ferr.seek(0)
        err = ferr.read()
    return {
        "seconds": seconds,
        "code": proc.returncode,
        "stdout": base64.b64encode(out).decode(),
        "stderr": base64.b64encode(err).decode(),
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def main(workdir):
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdin"], workdir)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])
