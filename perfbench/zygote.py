"""Fork server: runs each benchmark command in a fresh forked child.

Started by run.py as ``python3 perfbench/zygote.py <trace 0|1>`` with
``src`` on PYTHONPATH.  It imports ``modgeo.cli`` (and, when tracing,
installs the layer trace), then reads one JSON request per line on
stdin: ``{"argv": [...], "spans": path or null}``.  For each it forks a
child that calls ``modgeo.cli.main(argv)`` once with stdout and stderr
captured, and answers with one JSON line on stdout.

A child starts from the state a fresh CLI invocation has after import:
nothing a command computes outlives its child, so no cache filled by one
command can answer another.  The child times ``main`` itself with
``time.process_time`` (CPU time of the child, user plus system); the
server adds the child's peak resident set size from ``os.wait4``.
"""

from __future__ import annotations

import gc
import io
import json
import os
import sys
import time
import traceback


def _child(cli, tracer, argv, spans_path, wfd) -> None:
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    crash = None
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except BaseException:
        rc = None
        crash = traceback.format_exc()
    c1 = time.process_time()
    w1 = time.perf_counter()
    result = {"rc": rc, "crash": crash, "out": out.getvalue(),
              "err": err.getvalue(), "cpu_s": c1 - c0, "wall_s": w1 - w0}
    if tracer is not None:
        result["layers"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    with os.fdopen(wfd, "wb") as f:
        f.write(json.dumps(result).encode())


def _run(cli, tracer, request) -> dict:
    rfd, wfd = os.pipe()
    gc.collect()  # every child starts with the same collector state
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            _child(cli, tracer, request["argv"], request.get("spans"), wfd)
        finally:
            os._exit(0)
    os.close(wfd)
    chunks = []
    with os.fdopen(rfd, "rb") as f:
        while chunk := f.read(1 << 16):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    if not chunks or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"child for {request['argv']} died with status {status}")
    result = json.loads(b"".join(chunks))
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def main() -> int:
    import modgeo.cli as cli

    tracer = None
    if sys.argv[1] == "1":
        import tracer

        tracer.install()
    gc.collect()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        print(json.dumps(_run(cli, tracer, json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
