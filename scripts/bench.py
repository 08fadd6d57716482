#!/usr/bin/env python3
"""Per-layer benchmark for orbicurve: one fixed workload per layer.

    python3 scripts/bench.py BENCH.json
    python3 scripts/bench.py BENCH.json --src parent=../old/src --src change=src

Each layer runs its certificates (from `certbench/inputs.py`) in a fresh
process, REPEATS times; with several --src trees the trees alternate
within each repeat.  The speed probe of `certbench/speed.py` is sampled
END_PROBES times before the first certificate and after the last, and
between certificates at most every 50 ms; each certificate's time is
scaled by `SpeedProbe.scale` over the probes around it, as certbench
does: the time it would take where the probe takes its reference time.
The probes at the ends keep a layer of a few tens of milliseconds, which
sees one or two probes between its certificates, from resting on one.
A run's `scaled_wall_s` is the sum of those, and its probe ratio is raw
over scaled wall time (above 1 on a host slower than the reference).  The
CLI layer runs the four commands of certbench's CLI certificates (chi,
iso, serre, abelianize --presentation), compares each stdout with its
certificate's answer, scales each process the same way and takes medians.  Per layer
and tree the JSON file gets the median scaled wall time, certificates/s
derived from it, the raw median and per-run wall times, the median probe
ratio, each run's probe count, the largest peak RSS of the runs
(`resource.getrusage` of the process that ran them; for the CLI layer, of
the largest CLI process) and failed checks.  The wallpaper layer also gives, as `k2_scaled_s` ...
`k6_scaled_s`, the median over runs of its certificates' scaled time for
each k.  No layer reports a rate of group elements or cosets: an order is
certified without enumerating that many of either.
Standard library only; certbench is imported, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CERTBENCH = ROOT / "certbench"
CLI_PROCESSES = 8  # chi, iso, serre and abelianize --presentation, twice each
REPEATS = 3
END_PROBES = 3  # speed probes before the first certificate and after the last
HURWITZ_Q = (43, 71, 83, 97, 113)  # q = +-1 mod 7, |PSL(2, q)| below the 10^6 cap


def layer_certs(name: str):
    """The layer's certificates."""
    import inputs
    from orbicurve.signature import OrbSignature

    rng = random.Random(f"bench/{name}")
    if name == "closed-forms":
        return inputs.closed_form_certs(rng, 4000)
    if name == "dense-snf":
        return inputs.dense_certs(rng, {8: 300})
    if name == "signature-snf":  # sparse relator matrices; 30 rounds make a run last ~0.2 s
        return inputs.signature_route_certs() * 30
    if name == "todd-coxeter":
        certs = [inputs._order_cert("order10752", "order 10752", inputs.G10752, 10752),
                 inputs._subgroup_cert()]
        certs += [inputs._order_cert("abelian3", f"Z_{a} x Z_{b} x Z_{c}",
                                     inputs.abelian_text((a, b, c)), a * b * c)
                  for a, b, c in inputs.ABC_10K]
        certs += [inputs._grid_cert(OrbSignature(0, 0, (2, 2, lo)), "dihedral")
                  for lo, _ in inputs.DIHEDRAL_N]
        return certs
    if name == "group-order":
        return [c for q in HURWITZ_Q for c in inputs.hurwitz_certs(q, 10, rng)
                if c.group == "kernel"]
    if name == "rejections":  # no closure: 100 certificates take ~3 ms, so 16 rounds
        return [c for q in HURWITZ_Q for c in inputs.hurwitz_certs(q, 10, rng)
                if c.group == "rejection"] * 16
    if name == "transitive-action":  # not regular: a 3584-point orbit in Schreier-Sims
        from orbicurve import coset_enumeration, permutation_group_order
        from orbicurve.presentations import parse_presentation

        pf = parse_presentation(inputs.G10752.replace("sub x", "sub y"))
        perms = coset_enumeration(pf.presentation, pf.subgroup_generators, 10**6)
        return [inputs.Cert("transitive", "order 10752 on the 3584 cosets of <y>",
                            lambda: permutation_group_order(perms),
                            lambda got: inputs._expect(got, 10752))]
    if name == "wallpaper":
        return [inputs.wallpaper_cert(k, 100, seed) for k in (2, 3, 4, 6)
                for seed in range(3)]
    if name == "examples":  # first calls in the process, so each derives its word maps
        return [inputs._example_cert(example) for example in inputs.EXAMPLES]
    if name == "triangle":
        triples = [(a, b, c) for a in range(2, 25) for b in range(a, 25) for c in range(b, 25)
                   if b * c + a * c + a * b < a * b * c]
        triples += [(2, 3, lo) for lo, _ in inputs.PASSING_M + inputs.GAP_M]
        return [inputs.triangle_cert(t) for t in triples]
    raise ValueError(f"unknown layer {name!r}")


LAYERS = ("closed-forms", "dense-snf", "signature-snf", "todd-coxeter", "group-order",
          "rejections", "transitive-action", "wallpaper", "triangle", "examples", "cli")


def run_layer(name: str) -> dict:
    """One run of a layer in this process, each certificate scaled by the
    probes sampled around it."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    intervals = []

    def timed(fn):
        if not intervals:
            for _ in range(END_PROBES):
                probe.sample()
        probe.maybe_sample()
        t0 = time.perf_counter()
        result = fn()
        intervals.append((t0, time.perf_counter()))
        return result

    if name == "cli":  # the commands of certbench's CLI certificates
        import inputs

        certs = inputs.cli_certs("bench", 1, CLI_PROCESSES)
        with tempfile.TemporaryDirectory() as cwd:
            for file_name, text in (f for cert in certs for f in cert.files):
                Path(cwd, file_name).write_text(text, encoding="utf-8")
            done = [timed(lambda: subprocess.run(
                        [sys.executable, "-m", "orbicurve.cli", *cert.argv], cwd=cwd,
                        capture_output=True, text=True, check=False))
                    for cert in certs]
        failed = sum(d.stdout != json.dumps(cert.expected, sort_keys=True) + "\n"
                     for cert, d in zip(certs, done))
        count, rss, total = 1, resource.RUSAGE_CHILDREN, statistics.median
    else:
        certs = layer_certs(name)
        results = [timed(cert.run) for cert in certs]
        failed = sum(cert.check(r) is not None for cert, r in zip(certs, results))
        count, rss, total = len(certs), resource.RUSAGE_SELF, sum
    for _ in range(END_PROBES):
        probe.sample()
    wall = total(t1 - t0 for t0, t1 in intervals)
    each = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in intervals]
    scaled = total(each)
    record = {"wall_s": wall, "scaled_wall_s": scaled, "certs": count, "failed": failed,
              "peak_rss_mb": resource.getrusage(rss).ru_maxrss / 1024, "probe_ratio": wall / scaled,
              "probes": len(probe.at)}
    if name == "wallpaper":  # the cost of each k, which the summed layer hides
        for report, t in zip(results, each):
            key = f"k{report.k}_scaled_s"
            record[key] = record.get(key, 0.0) + t
    return record


def child(src: str, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, str(CERTBENCH))))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-layer", name],
                          capture_output=True, text=True, check=True, env=env)
    return json.loads(done.stdout)


def summarize(runs: list[dict]) -> dict:
    scaled = statistics.median(r["scaled_wall_s"] for r in runs)
    per_k = {key: statistics.median(r[key] for r in runs)
             for key in runs[0] if key.endswith("_scaled_s")}
    return {
        "scaled_wall_s": scaled,
        "scaled_walls_s": [r["scaled_wall_s"] for r in runs],
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "walls_s": [r["wall_s"] for r in runs],
        "certs": runs[0]["certs"],
        "certs_per_s": runs[0]["certs"] / scaled,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "probe_ratio": statistics.median(r["probe_ratio"] for r in runs),
        "probes": [r["probes"] for r in runs],
        "failed": sum(r["failed"] for r in runs),
        **per_k,
    }


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", nargs="?", help="JSON file to write")
    p.add_argument("--src", action="append", default=[],
                   help="[label=]path of an orbicurve source tree (default: src)")
    p.add_argument("--run-layer", choices=LAYERS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run_layer:
        print(json.dumps(run_layer(args.run_layer)))
        return 0
    if not args.out:
        p.error("the output file is required")
    trees = {}
    for spec in args.src or [f"src={ROOT / 'src'}"]:
        label, _, path = spec.rpartition("=")
        trees[label or path] = str(Path(path).resolve())
    runs = {label: {name: [] for name in LAYERS} for label in trees}
    for repeat in range(REPEATS):
        order = list(trees) if repeat % 2 == 0 else list(reversed(trees))
        for name in LAYERS:
            for label in order:
                runs[label][name].append(child(trees[label], name))
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "trees": {label: {name: summarize(r) for name, r in layers.items()}
                  for label, layers in runs.items()},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for label, layers in record["trees"].items():
        for name, row in layers.items():
            print(f"{label:10s} {name:17s} {row['scaled_wall_s']:9.4f} s scaled"
                  f" ({row['wall_s']:.4f} s raw, probe x{row['probe_ratio']:.2f})"
                  f" {row['certs_per_s']:10.1f} certs/s {row['peak_rss_mb']:7.1f} MB"
                  f" failed {row['failed']}")
            per_k = [f"{key.removesuffix('_scaled_s')} {t:.4f} s"
                     for key, t in row.items() if key.endswith("_scaled_s")]
            if per_k:
                print(f"{'':28s}" + ", ".join(per_k))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
