"""Benchmark of cold modgeo CLI commands.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
A closed loop with one client: one command in flight, no threads.  Each
command goes through ``modgeo.cli.main(argv)`` in a child forked from a
server that has only imported ``modgeo`` (zygote.py), so every command
starts from the state of a fresh CLI invocation.  Passes over the
workload's command list repeat until S seconds have passed, alternating
forward and reversed order, and only whole passes are run.  Then every
output is checked by checks.py, independently of the program.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 the passes alternate between an untraced and a traced server
and the result holds the per-layer metrics of the traced passes.  Either
way a fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")

SETUP_STARTS = 21        # fresh interpreter starts measured per run
MIN_SAMPLES = 100        # command samples a run needs for its p90
# the per-layer metrics reported by a traced run, with their units
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _f:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_f)["per_layer"]}


def _program_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupTimer:
    """Seconds from starting a fresh interpreter until ``modgeo.cli`` is
    imported and the interpreter says so on its stdout.  The starts are
    spread evenly over the run, between commands, so that their median
    sees the same machine as the commands do."""

    CODE = "import modgeo.cli, sys; sys.stdout.write('r'); sys.stdout.flush()"

    def __init__(self, env: dict):
        self.env = env
        self.times: list[float] = []
        self.start()  # fills the page cache and writes the .pyc files
        self.times.clear()

    def start(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.CODE], env=self.env,
                                stdout=subprocess.PIPE)
        ready = proc.stdout.read(1)
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or ready != b"r":
            raise RuntimeError("modgeo.cli failed to import")
        self.times.append(t1 - t0)

    def keep_up(self, share: float) -> None:
        """Start interpreters until ``share`` of SETUP_STARTS are done."""
        while len(self.times) < SETUP_STARTS * min(share, 1.0):
            self.start()


class Server:
    """One fork server (zygote.py) and the pipe to it."""

    def __init__(self, env: dict, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "zygote.py"), "1" if trace else "0"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if json.loads(self.proc.stdout.readline() or "{}").get("ready") is not True:
            self.close()
            raise RuntimeError("fork server failed to start")

    def run(self, argv: list[str], spans: str | None = None) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "spans": spans}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"fork server died on {argv}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_passes(servers, cmds, seconds: float, spans_dir: str | None, setup: SetupTimer):
    """Whole passes, cycling through ``servers`` and alternating
    direction, until ``seconds`` have passed and every server has run
    enough commands.  Returns (server index, order, results) per pass."""
    passes = []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    samples = [0] * len(servers)
    while (time.perf_counter() < t_end or min(samples) < MIN_SAMPLES
           or len(passes) < 2 * len(servers)):
        k = len(passes)
        s = k % len(servers)
        order = list(range(len(cmds)))
        if (k // len(servers)) % 2:
            order.reverse()
        results = [None] * len(cmds)
        for i in order:
            spans = None
            if spans_dir and s == len(servers) - 1 and k < len(servers):
                spans = os.path.join(spans_dir, f"{i:03d}.jsonl")
            results[i] = servers[s].run(cmds[i].argv, spans)
            setup.keep_up((time.perf_counter() - t_start) / seconds)
        samples[s] += len(cmds)
        passes.append((s, order, results))
    setup.keep_up(1.0)
    return passes


def least_squares_slope(points) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def end_to_end(cmds, passes, setup: list[float]) -> dict:
    times = [r["cpu_s"] for _, _, results in passes for r in results]
    deciles = statistics.quantiles(times, n=10)
    by_size: dict[float, list[float]] = {}
    for i, cmd in enumerate(cmds):
        if cmd.size is not None:
            by_size.setdefault(cmd.size, []).extend(res[i]["cpu_s"] for _, _, res in passes)
    scaling = [(size, statistics.median(ts)) for size, ts in by_size.items()]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(sum(r["cpu_s"] for r in res)
                                     for _, _, res in passes), "s"),
        "cmd_p50_ms": (1000 * statistics.median(times), "ms"),
        "cmd_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for _, _, res in passes for r in res) / 1024,
                        "MB"),
        "scaling_exp": (least_squares_slope(scaling), "1"),
    }


def per_layer(cmds, traced) -> tuple[dict, list[str]]:
    """Per-pass totals of each layer metric: counts must repeat exactly
    in every traced pass, times are reported as the median pass."""
    problems = []
    for i, cmd in enumerate(cmds):
        counts = {json.dumps({k: v for k, v in res[i]["layers"].items()
                              if not k.endswith(".ms")}, sort_keys=True)
                  for _, _, res in traced}
        if len(counts) != 1:
            problems.append(f"{' '.join(cmd.argv)}: layer counts differ between traced passes")
    totals = [{name: sum(r["layers"][name] for r in res) for name in PER_LAYER}
              for _, _, res in traced]
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "ms":
            out[name] = (statistics.median(t[name] for t in totals), unit)
        else:
            out[name] = (totals[0][name], unit)
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modgeo", "cli.py")):
        print("error: run from the root of a modgeo checkout (src/modgeo not found)",
              file=sys.stderr)
        return 2
    env = _program_env(root)
    cmds = workloads.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)
    spans_dir = None
    if args.trace:
        spans_dir = os.path.join(RESULTS, f"spans-{tag}")
        os.makedirs(spans_dir, exist_ok=True)

    t_setup = time.perf_counter()
    setup = SetupTimer(env)
    servers = [Server(env, False)] + ([Server(env, True)] if args.trace else [])
    try:
        passes = run_passes(servers, cmds, args.seconds, spans_dir, setup)
    finally:
        for server in servers:
            server.close()
    t_measured = time.perf_counter()

    plain = [p for p in passes if p[0] == 0]
    report = checks.check_passes(cmds, passes)
    attempted = sum(len(res) for _, _, res in passes)
    n_failed = sum(checks.failed(r) for _, _, res in passes for r in res)
    metrics = end_to_end(cmds, plain, setup.times)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "measure_s": t_measured - t_setup,
              "commands": [c.argv for c in cmds], "problems": report,
              "end_to_end": metrics,
              "cpu_s": [[r["cpu_s"] for r in res] for _, _, res in plain],
              "wall_s": [[r["wall_s"] for r in res] for _, _, res in plain]}
    if args.trace:
        traced = [p for p in passes if p[0] == 1]
        metrics, problems = per_layer(cmds, traced)
        report += problems
        traced_pass = end_to_end(cmds, traced, setup.times)["pass_s"][0]
        record["trace_overhead_s"] = traced_pass - record["end_to_end"]["pass_s"][0]
        record["per_layer"] = metrics
        record["layers_by_command"] = [r["layers"] for r in traced[0][2]]
        print(f"tracing overhead: pass_s {record['end_to_end']['pass_s'][0]:.4f} s "
              f"untraced, {traced_pass:.4f} s traced", file=sys.stderr)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for problem in report:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not report,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
