"""In-process traced run of one workload's commands.

Usage: python3 traced.py SPEC.json RESULT.json

SPEC holds the source directory, the workload name, the commands (label,
args, stdin path), a time budget in seconds and the path the spans are
written to.  After importing ``tailratio.cli`` the run alternates an
untraced pass and a traced pass over the commands, calling
``cli.main(args)`` directly, until another pair would overrun the budget
(at least one pair).  RESULT receives the wall time of every pass, the
per-layer metrics of every traced pass, the exit code, stdout and stderr of
each command in the last traced pass, and the span names that the workload
needs but the last traced pass never called.  The run exits non-zero if a
traced pass records a span it cannot place in the span tree (see
perfbench/spans.py).
"""

import contextlib
import importlib
import io
import json
import pkgutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def _run_command(main, command):
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    text = Path(command["stdin"]).read_text() if command["stdin"] else ""
    try:
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(list(command["args"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved_stdin
    return code, stdout.getvalue(), stderr.getvalue()


def _run_pass(cli, commands):
    results = {}
    start = time.perf_counter()
    for command in commands:
        results[command["label"]] = _run_command(cli.main, command)
    return time.perf_counter() - start, results


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import tailratio
    import tailratio.cli as cli

    modules = [tailratio] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(tailratio.__path__, "tailratio.")
    ]
    commands = spec["commands"]
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + spec["seconds"]
    while not traced or time.perf_counter() + untraced[-1] + traced[-1] <= deadline:
        seconds, _ = _run_pass(cli, commands)
        untraced.append(seconds)
        recorder = spans.Recorder()
        uninstall = spans.install(recorder, modules)
        try:
            seconds, results = _run_pass(cli, commands)
        finally:
            uninstall()
        if recorder.orphans:
            sys.exit("spans recorded on a thread outside the span tree: "
                     + ", ".join(sorted(recorder.orphans)))
        traced.append(seconds)
        layers.append(spans.layer_metrics(recorder.spans))
    with open(spec["spans_path"], "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    Path(result_path).write_text(json.dumps({
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": layers,
        "exit_codes": {label: r[0] for label, r in results.items()},
        "outputs": {label: r[1] for label, r in results.items()},
        "stderr": {label: r[2] for label, r in results.items()},
        "missing": spans.missing_calls(recorder.spans, spec["workload"]),
    }))


if __name__ == "__main__":
    main(*sys.argv[1:3])
