#!/usr/bin/env python3
"""Certification benchmark for orbicurve.

    python3 certbench/run.py --workload enumerate --seed 1 --seconds 18 --trace 0

Run from the root of a source tree; orbicurve is imported from ./src.  One
process runs one workload as a closed loop: certificates run one after
another, in passes over the workload's fixed input list, until the time is
up (whole passes only).  Latency counts orbicurve's calls only; the
benchmark's own comparison with the known answer is untimed.  Between
passes, one at a time, fresh processes time the set-up and orbicurve CLI
processes answer CLI certificates.

With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics; in a traced run every
second pass is traced, the others give the untraced rate for
trace.overhead_ratio.  Earlier lines print every metric with its unit and
sample count, the failures and the machine facts; the same record and, when
traced, the spans are written under .certbench/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".certbench"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
CLI_PROCESSES = 20
CHILD_TIMEOUT_S = 120
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print their digest and exit")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def timed_process(probe, argv, cwd=ROOT) -> tuple[float, float, subprocess.CompletedProcess]:
    """(scaled wall seconds, raw wall seconds, completed process)."""
    return probe.timed(lambda: subprocess.run(argv, cwd=cwd, env=child_env(),
                                              capture_output=True, text=True,
                                              timeout=CHILD_TIMEOUT_S))


def digest(certs, cli) -> str:
    h = hashlib.sha256()
    for c in certs:
        h.update(f"{c.group}|{c.label}\n".encode())
    for c in cli:
        h.update(f"{c.argv}|{c.files}\n".encode())
    return h.hexdigest()


def tail_percentile(per_pass: int) -> float:
    """Highest percentile of the ladder with at least 10 of one pass's
    latencies beyond it."""
    return max((p for p in TAIL_LADDER if per_pass * (100 - p) / 100 >= 10), default=0)


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


class Loop:
    """Closed-loop passes over the certificates, with their outcomes."""

    def __init__(self, certs, tracer, probe):
        self.certs = certs
        self.tracer = tracer
        self.probe = probe
        self.untraced: list[list[float]] = []  # scaled latencies per pass
        self.traced: list[list[float]] = []
        self.raw: list[list[float]] = []  # unscaled latencies of the untraced passes
        self.traced_spans: list[tuple[int, int]] = []  # span range of each traced pass
        self.scales: dict[int, float] = {}  # certificate id -> speed scale
        self.attempted = 0
        self.failures: dict[str, list] = {}  # label -> [cert, message, count]
        self.problems: list[str] = []

    def run(self, seconds: float, between) -> None:
        """Passes until `seconds` are up; after each, between(share of the
        time used)."""
        start = time.perf_counter()
        passes = 0
        tracing = self.tracer is not None
        while passes < (2 if tracing else 1) or time.perf_counter() < start + seconds or (
                tracing and passes % 2):
            self.one_pass(traced=tracing and passes % 2 == 1, number=passes)
            passes += 1
            between((time.perf_counter() - start) / seconds)

    def one_pass(self, traced: bool, number: int) -> None:
        tracer = self.tracer
        gc.collect()
        first_span = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        intervals = []
        try:
            for i, cert in enumerate(self.certs):
                cert_id = number * len(self.certs) + i
                self.probe.maybe_sample()
                t0 = time.perf_counter()
                try:
                    if traced:
                        out = tracer.run_certificate(cert_id, cert.group, cert.run)
                    else:
                        out = cert.run()
                except Exception as exc:  # a raising certificate is a failed one
                    intervals.append((t0, time.perf_counter()))
                    self.fail(cert, f"raised {type(exc).__name__}: {exc}")
                    continue
                intervals.append((t0, time.perf_counter()))
                message = cert.check(out)
                if message:
                    self.fail(cert, message)
        finally:
            if traced:
                tracer.uninstall()
        self.probe.sample()
        self.attempted += len(self.certs)
        scales = [self.probe.scale(t0, t1) for t0, t1 in intervals]
        scaled = [(t1 - t0) * f for (t0, t1), f in zip(intervals, scales)]
        if traced:
            first_id = number * len(self.certs)
            self.scales.update((first_id + i, f) for i, f in enumerate(scales))
            self.traced.append(scaled)
            self.traced_spans.append((first_span, len(tracer.spans)))
        else:
            self.untraced.append(scaled)
            self.raw.append([t1 - t0 for t0, t1 in intervals])
            if tracer is not None and len(tracer.spans) != first_span:
                self.problems.append(f"untraced pass {number} recorded spans")

    def fail(self, cert, message: str) -> None:
        entry = self.failures.setdefault(cert.label, [cert, message, 0])
        entry[2] += 1


def rate(latencies) -> float:
    return len(latencies) / sum(latencies)


def end_to_end(passes, setup_walls, cli_walls, tail_p) -> dict:
    return {
        "setup_s": (statistics.median(setup_walls), len(setup_walls)),
        "certs_per_s": (statistics.median(rate(p) for p in passes), len(passes)),
        "cert_p50_ms": (1e3 * statistics.median(statistics.median(p) for p in passes),
                        sum(map(len, passes))),
        "cert_tail_ms": (1e3 * statistics.median(nearest_rank(sorted(p), tail_p)
                                                 for p in passes),
                         sum(map(len, passes))),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "cli_p50_ms": (1e3 * statistics.median(cli_walls), len(cli_walls)),
    }


def per_layer(loop: Loop, spans_mod, groups, cli_walls, interpreter_walls,
              import_walls) -> dict:
    per_pass = []
    for lo, hi in loop.traced_spans:
        spans = loop.tracer.spans[lo:hi]
        # parent indices are absolute; rebase them onto this pass's slice
        parent = spans_mod.PARENT
        rebased = [s[:parent] + [None if s[parent] is None else s[parent] - lo]
                   + s[parent + 1:] for s in spans]
        busy, calls, self_s, counts, group_busy = spans_mod.layer_totals(
            rebased, groups, loop.scales)
        enum_busy = busy.get("cosets.enum", 0.0)
        closure_busy = busy.get("cosets.closure", 0.0)
        values = {}
        for layer in ("signature", "isomorphism", "serre", "presentations", "abelian"):
            values[f"{layer}.busy_s"] = busy.get(layer, 0.0)
            values[f"{layer}.calls"] = calls.get(layer, 0)
        values.update({
            "abelian.dense_busy_s": group_busy.get(("abelian", "dense"), 0.0),
            "abelian.cells": counts.get("abelian.cells", 0),
            "abelian.transform_bits_max": counts.get("abelian.transform_bits_max", 0),
            "cosets.enum_busy_s": enum_busy,
            "cosets.enum_calls": calls.get("cosets.enum", 0),
            "cosets.rows_total": counts.get("cosets.enum.rows", 0),
            "cosets.rows_per_s": counts.get("cosets.enum.rows", 0) / enum_busy
            if enum_busy else 0.0,
            "cosets.exceeded": counts.get("cosets.enum.exceeded", 0),
            "cosets.completed_ratio": counts.get("cosets.enum.completed", 0)
            / counts["cosets.enum.enumerations"]
            if counts.get("cosets.enum.enumerations") else 0.0,
            "cosets.closure_busy_s": closure_busy,
            "cosets.closure_elements": counts.get("cosets.closure.elements", 0),
            "cosets.elements_per_s": counts.get("cosets.closure.elements", 0) / closure_busy
            if closure_busy else 0.0,
            "cosets.homomorphism_busy_s": busy.get("cosets.homomorphism", 0.0),
            "covers.busy_s": busy.get("covers", 0.0),
            "covers.self_s": self_s.get("covers", 0.0),
            "covers.rejections": counts.get("covers.rejections", 0),
            "wallpaper.busy_s": busy.get("wallpaper", 0.0),
            "wallpaper.samples_per_s": counts.get("wallpaper.samples", 0)
            / busy["wallpaper"] if busy.get("wallpaper") else 0.0,
            "fixtures.triangle_busy_s": busy.get("fixtures.triangle", 0.0),
            "fixtures.triangle_powers": counts.get("fixtures.triangle.powers", 0),
            "fixtures.triangle_failed": counts.get("fixtures.triangle.failed", 0),
            "fixtures.example_busy_s": busy.get("fixtures.example", 0.0),
            "fixtures.example_self_s": self_s.get("fixtures.example", 0.0),
        })
        for k in (2, 3, 4, 6):
            values[f"wallpaper.k{k}_s"] = busy.get(f"wallpaper.k{k}", 0.0)
        per_pass.append(values)
    out = {name: (statistics.median(v[name] for v in per_pass), len(per_pass))
           for name in per_pass[0]}
    interpreter = statistics.median(interpreter_walls)
    out["cli.spawn_p50_ms"] = (1e3 * statistics.median(cli_walls), len(cli_walls))
    out["cli.interpreter_ms"] = (1e3 * interpreter, len(interpreter_walls))
    out["cli.import_ms"] = (1e3 * (statistics.median(import_walls) - interpreter),
                            len(import_walls))
    out["trace.overhead_ratio"] = (
        statistics.median(rate(p) for p in loop.traced)
        / statistics.median(rate(p) for p in loop.untraced),
        len(loop.traced) + len(loop.untraced))
    return out


class SideProcesses:
    """The set-up processes and the CLI certificates, one process at a time,
    spread over the run between passes so that their medians see the host
    at more than one moment."""

    def __init__(self, setup_argv, setup_digest, cli_certs, loop: Loop):
        self.setup_argv = setup_argv
        self.setup_digest = setup_digest
        self.loop = loop
        self.jobs = sorted(
            [((i + 0.5) / SETUP_REPEATS, "setup", None) for i in range(SETUP_REPEATS)]
            + [((i + 0.5) / len(cli_certs), "cli", c) for i, c in enumerate(cli_certs)],
            key=lambda job: job[0])
        self.done = 0
        self.walls = {"setup": [], "cli": []}  # scaled
        self.raw = {"setup": [], "cli": []}
        self.problems: list[str] = []

    def __call__(self, share: float) -> None:
        """Run every job placed at or before this share of the run."""
        while self.done < len(self.jobs) and self.jobs[self.done][0] <= share:
            _, kind, cert = self.jobs[self.done]
            self.done += 1
            if kind == "setup":
                wall, raw, done = timed_process(self.loop.probe, self.setup_argv)
                if done.returncode != 0 or done.stdout.strip() != self.setup_digest:
                    self.problems.append(f"set-up process disagrees: exit {done.returncode}, "
                                         f"{done.stderr.strip()[-300:]!r}")
            else:
                for name, text in cert.files:
                    (OUT / name).write_text(text, encoding="utf-8")
                wall, raw, done = timed_process(
                    self.loop.probe, [sys.executable, "-m", "orbicurve.cli", *cert.argv],
                    cwd=OUT)
                self.loop.attempted += 1
                try:
                    got = json.loads(done.stdout) if done.returncode == 0 else None
                except json.JSONDecodeError:
                    got = None
                if got != cert.expected:
                    self.loop.fail(cert, f"exit {done.returncode}, stdout "
                                         f"{done.stdout.strip()!r}, expected {cert.expected!r}")
            self.walls[kind].append(wall)
            self.raw[kind].append(raw)


def group_profile(certs, passes) -> dict:
    """Per certificate group: count per pass, median latency and median share
    of the pass's certificate time."""
    out = {}
    for group in dict.fromkeys(c.group for c in certs):
        idx = [i for i, c in enumerate(certs) if c.group == group]
        out[group] = {
            "per_pass": len(idx),
            "p50_ms": 1e3 * statistics.median(p[i] for p in passes for i in idx),
            "share": statistics.median(sum(p[i] for i in idx) / sum(p) for p in passes),
        }
    return out


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "orbicurve" / "__init__.py").is_file():
        print(f"error: no orbicurve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orbicurve
    if Path(orbicurve.__file__).resolve().parent != SRC / "orbicurve":
        print(f"error: imported orbicurve from {orbicurve.__file__}", file=sys.stderr)
        return 2
    import inputs
    import spans as spans_mod
    from speed import SpeedProbe

    if args.workload not in inputs.WORKLOADS:
        print(f"error: workload must be one of {inputs.WORKLOADS}", file=sys.stderr)
        return 2
    certs = inputs.build(args.workload, args.seed)
    cli_certs = inputs.cli_certs(args.workload, args.seed, CLI_PROCESSES)
    if args.setup_only:
        print(digest(certs, cli_certs))
        return 0
    own_setup_s = time.perf_counter() - START
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gaps = json.loads((Path(__file__).parent / "design.json").read_text(encoding="utf-8"))[
        "known_gaps"]
    unknown = {c.gap for c in certs if c.gap} - set(gaps)
    if unknown:
        print(f"error: certificates name unlisted gaps {unknown}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    problems = []

    probe = SpeedProbe()
    modules = {name: getattr(orbicurve, name) for name in
               ("signature", "isomorphism", "serre", "presentations", "abelian",
                "cosets", "covers", "wallpaper", "fixtures")}
    problems += spans_mod.self_test() if args.trace else []
    problems += [f"{name} is wrapped before the run"
                 for name in spans_mod.wrapped_attributes(modules)]
    tracer = spans_mod.Tracer(modules) if args.trace else None
    loop = Loop(certs, tracer, probe)
    # set-up time is measured on fresh processes that build the same inputs
    # and exit
    side = SideProcesses([sys.executable, str(Path(__file__).resolve()), "--workload",
                          args.workload, "--seed", str(args.seed), "--setup-only"],
                         digest(certs, cli_certs), cli_certs, loop)
    loop.run(args.seconds, side)
    side(math.inf)
    problems += loop.problems + side.problems
    problems += [f"{name} is wrapped after the run"
                 for name in spans_mod.wrapped_attributes(modules)]
    interpreter = [timed_process(probe, [sys.executable, "-c", "pass"])
                   for _ in range(PROBE_REPEATS)]
    interpreter_walls = [w for w, _, _ in interpreter]
    tail_p = tail_percentile(len(certs))
    metrics = end_to_end(loop.untraced, side.walls["setup"], side.walls["cli"], tail_p)
    raw_metrics = end_to_end(loop.raw, side.raw["setup"], side.raw["cli"], tail_p)

    if tracer is not None:
        import_walls = [timed_process(probe, [sys.executable, "-c", "import orbicurve.cli"])[0]
                        for _ in range(PROBE_REPEATS)]
        resolution = time.get_clock_info("perf_counter").resolution
        problems += spans_mod.check_accounting(tracer.spans, resolution)
        groups = {p * len(certs) + i: c.group
                  for p in range(len(loop.traced) + len(loop.untraced))
                  for i, c in enumerate(certs)}
        metrics.update(per_layer(loop, spans_mod, groups, side.walls["cli"],
                                 interpreter_walls, import_walls))
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "certificate", "counts"],
             "spans": tracer.spans}), encoding="utf-8")

    failed = sum(count for _, _, count in loop.failures.values())
    unexpected = [label for label, (cert, _, _) in loop.failures.items() if cert.gap is None]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")

    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "interpreter_spawn_ms": 1e3 * statistics.median(w for _, w, _ in interpreter),
        "probe_median_ms": 1e3 * statistics.median(probe.took),
        "certificates_per_pass": len(certs), "cli_processes": len(cli_certs),
        "tail_percentile": tail_p, "own_setup_s": own_setup_s,
    }
    print("certbench " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, samples) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {units.get(name, ''):6s} ({samples} samples)")
    print(f"  {'fail_ratio':28s} {failed / loop.attempted:14.6f} ratio  "
          f"({failed} of {loop.attempted} certificates)")
    profile = group_profile(certs, loop.untraced)
    for group, row in profile.items():
        print(f"  group {group:16s} {row['per_pass']:5d} per pass, p50 {row['p50_ms']:10.3f} ms,"
              f" {100 * row['share']:5.1f}% of certificate time")
    for label, (cert, message, count) in loop.failures.items():
        print(f"  FAIL x{count} {label}: {message}"
              + (f" [known gap {cert.gap}]" if cert.gap else ""))
    for problem in problems:
        print(f"  PROBLEM {problem}")

    record = dict(facts, metrics={n: {"value": v, "samples": s}
                                  for n, (v, s) in metrics.items()},
                  unscaled={n: v for n, (v, _) in raw_metrics.items()},
                  groups=profile, attempted=loop.attempted, failed=failed,
                  failures=[{"input": label, "message": m, "count": c, "gap": cert.gap}
                            for label, (cert, m, c) in loop.failures.items()],
                  problems=problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
