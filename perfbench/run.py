#!/usr/bin/env python3
"""Product-path benchmark for SuperFlow.

Runs the product path -- Flow.run_staged, the call `superflow flow`
makes -- on a bundled design, each run in a fresh process at a fixed
worker-pool size, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload c499_signoff --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root: it builds perfbench/perfbench.exe with
dune first.

--trace 0   repeats untraced product runs for --seconds seconds (at least
            one) and reports the end-to-end metrics as medians.
--trace 1   makes one untraced product run and one traced replay of the
            stage graph (perfbench.ml), and reports the per-layer metrics.
            The replay's GDS must equal the product run's byte for byte.

The inputs are the bundled design named by the workload and the
placement seed --place-seed (default 1; seed 7 is held out, see
layers.json). The flow has no other source of randomness, so --seed, the
workload seed, is recorded but changes no input: varying the
placement with it would turn seed-to-seed differences in work (apc128
takes 27-41 s across placement seeds 1-6) into run-to-run spread.

BENCHMARK.json names decoder_cold and c499_signoff. apc128_cold, the
largest design, is kept for manual runs only: one of its runs takes
27-47 s, so a timed set holds one or two samples and its median follows
the host's speed from minute to minute.

Work files (GDS, dbs) go under .perfbench/work, which .gitignore names.
A run's files are removed as soon as its checks pass; the files of a run
that failed a check stay until the next invocation of the workload.
Every child starts after a sync(2), so the writeback and discard of
earlier runs' files do not overlap a timed run.

A run fails when any check fails: a stage error, a route check, a GDS
digest or deterministic counter that differs from the first run of the
set or from an earlier invocation of the same build (.perfbench/ref), a
replay that differs from the product run, replay router counters that
disagree with the final routing, and on the signoff workload the
cache-outcome, warm-rerun and check-report checks.
"""

import argparse
import filecmp
import hashlib
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("apc128_cold", "decoder_cold", "c499_signoff")
SELFTEST_WORKLOADS = ("adder8_cold", "adder8_signoff")

# spans whose time each library accounts for, for the layer shares
LAYER_SPANS = {
    "sf_synth": ["synth"],
    "sf_resyn": ["resyn"],
    "sf_place": ["place"],
    "sf_route": ["route.search"],
    "sf_layout": ["layout.build", "drc.check", "gds.write"],
    "sf_timing": ["timing.sta"],
    "sf_check": ["check"],
}

# per-layer times: the summed duration of the replay's spans of a name
SPAN_METRICS = {
    "synth.run_s": "synth",
    "resyn.run_s": "resyn",
    "place.placer_s": "place.placer",
    "place.bufferline_s": "place.bufferline",
    "place.settle_s": "place.settle",
    "place.preexpand_s": "place.preexpand",
    "route.search_s": "route.search",
    "layout.build_s": "layout.build",
    "drc.check_s": "drc.check",
    "drc.density_s": "drc.density",
    "gds.write_s": "gds.write",
    "timing.sta_s": "timing.sta",
    "check.run_s": "check",
    "trace.flow_s": "flow",
}

CHILD_TIMEOUT_S = 170

# The worker-pool size of every run; the benchmark refuses to run on
# fewer cores.
JOBS = 2


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("building perfbench/perfbench.exe failed")


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown"


def metric_units():
    """(end-to-end, per-layer) metric names and units, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            b = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}")
    return ({m["name"]: m["unit"] for m in b["end_to_end"]},
            {m["name"]: m["unit"] for m in b["per_layer"]})


def md5_file(path):
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


def prune_work(workload):
    """Removes the work directories that earlier invocations of the
    workload left behind, so failed runs do not fill the disk."""
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    for d in os.listdir(work):
        if d.startswith(workload + "-"):
            shutil.rmtree(os.path.join(work, d))


def child(mode, workload, place_seed, outdir, deadline):
    """One fresh worker process; returns its JSON record."""
    os.makedirs(outdir, exist_ok=True)
    os.sync()
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        r = subprocess.run(
            [EXE, mode, workload, str(place_seed), str(JOBS), outdir],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} exceeded {timeout:.0f} s")
    if r.returncode != 0:
        raise BenchError(
            f"{mode} run of {workload} exited {r.returncode}: "
            + r.stderr.strip()[-2000:])
    try:
        rec = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} run of {workload} printed no record")
    rec["process_s"] = time.monotonic() - t0
    rec["outdir"] = outdir
    return rec


def spans_nest(rep):
    """Every span lies inside its parent's interval, and top-level spans
    inside the traced run's wall time."""
    by_id = {s["id"]: s for s in rep["spans"]}
    for s in rep["spans"]:
        if s["parent"] == 0:
            lo, hi = 0.0, rep["wall_s"]
        else:
            p = by_id.get(s["parent"])
            if p is None:
                return False
            lo, hi = p["start"], p["end"]
        if not lo <= s["start"] <= s["end"] <= hi:
            return False
    return True


def span_total(rep, names):
    return sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] in names)


def differs(got, ref, prefix):
    """Names of the values in got that ref holds with another value."""
    return [f"{prefix}:{k}" for k, v in got.items() if k in ref and ref[k] != v]


def failures(rec, ref):
    """Failed checks of one product run against the set's first run."""
    bad = [k for k, ok in rec["checks"].items() if not ok]
    if rec["gds_md5"] != ref["gds_md5"]:
        bad.append("gds_digest_repeats")
    return bad + differs(rec["det"], ref["det"], "det")


def replay_failures(rep):
    """The replay's summed router counters against the final routing
    it reports: one Router.route_all call per fix round plus one, and
    without fix rounds the sums are the final routing's own counts."""
    det, c = rep["det"], rep["counters"]
    bad = []
    if c["route.calls"] != det["route.fix_rounds"] + 1:
        bad.append("route_calls_match_fix_rounds")
    if det["route.fix_rounds"] == 0:
        for k in ("node_expansions", "space_expansions"):
            if c[f"route.{k}"] != det[f"route.final_{k}"]:
                bad.append(f"route_{k}_sum_equals_final")
    return bad


class Reference:
    """Digests and work counters that earlier invocations of the same
    build saw for a workload and placement seed, kept under
    .perfbench/ref. An invocation fails on any value that differs from
    them, so the counters that one invocation measures only once -- the
    replay's -- repeat across runs too. New values are added once an
    invocation passes."""

    def __init__(self, workload, place_seed):
        exe = md5_file(EXE)
        self.path = os.path.join(OUT, "ref",
                                 f"{workload}-place{place_seed}-{exe}.json")
        try:
            with open(self.path) as fh:
                self.values = json.load(fh)
        except FileNotFoundError:
            self.values = {}

    def check(self, got):
        return differs(got, self.values, "ref")

    def save(self, got):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w") as fh:
            json.dump({**got, **self.values}, fh, indent=1, sort_keys=True)


def e2e_metrics(runs, units):
    det = runs[0]["det"]
    values = {
        "flow_s": statistics.median([r["flow_s"] for r in runs]),
        "setup_s": statistics.median([s for r in runs for s in r["setup_s"]]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "wirelength_um": det["wirelength_um"],
        "vias": det["vias"],
        "jj": det["jj"],
        "wns_ps": det["wns_ps"],
        "buffer_lines": det["buffer_lines"],
    }
    return {n: {"value": values[n], "unit": u} for n, u in units.items()}


def layer_metrics(prod, rep, units):
    values = {**rep["det"], **rep["counters"], **rep["check_times"],
              **prod["stages"]}
    values.update({k: 0 for k in units if k.startswith("db.")})
    values.update(prod["db"])
    values.update({k: span_total(rep, [name])
                   for k, name in SPAN_METRICS.items()})
    values["drc.tiles_s"] = values["drc.check_s"] - values["drc.density_s"]
    tried = values["resyn.rewrites_tried"]
    values["resyn.accept_ratio"] = (
        values["resyn.rewrites_accepted"] / tried if tried else 0.0)
    values["eco_s"] = prod["eco_s"]
    values["trace.overhead_s"] = values["trace.flow_s"] - prod["flow_s"]
    return {n: {"value": values[n], "unit": u} for n, u in units.items()}


def run_workload(workload, seed, place_seed, seconds, trace, deadline):
    """Returns (result line, full record)."""
    e2e_units, layer_units = metric_units()
    prune_work(workload)
    outdir = tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-trace{trace}-",
                              dir=os.path.join(OUT, "work"))
    ref = Reference(workload, place_seed)
    record = {
        "workload": workload, "seed": seed, "place_seed": place_seed,
        "trace": trace, "jobs": JOBS, "nproc": nproc(), "commit": commit(),
    }
    if trace == 0:
        runs, failed = [], 0
        t0 = time.monotonic()
        while True:
            # the signoff workload's ECO and warm steps run once; the
            # repeat samples of flow_s run its cold step only
            mode = "cold" if runs and workload.endswith("_signoff") \
                else "product"
            rec = child(mode, workload, place_seed,
                        os.path.join(outdir, f"run{len(runs)}"), deadline)
            runs.append(rec)
            bad = failures(rec, runs[0]) + ref.check(
                {"gds_md5": rec["gds_md5"], **rec["det"]})
            rec["failed_checks"] = bad
            failed += bool(bad)
            if not bad:
                # the next child's sync absorbs the removal
                shutil.rmtree(rec["outdir"])
            if time.monotonic() - t0 + rec["process_s"] > seconds:
                break
        metrics = e2e_metrics(runs, e2e_units)
        attempted = len(runs)
        seen = {"gds_md5": runs[0]["gds_md5"], **runs[0]["det"]}
        record["runs"] = [
            {k: r[k] for k in ("mode", "flow_s", "eco_s", "setup_s",
                               "peak_rss_mb",
                               "process_s", "gds_md5", "failed_checks")}
            for r in runs]
        record["ocaml"] = runs[0]["ocaml"]
        record["det"] = runs[0]["det"]
    else:
        prod = child("product", workload, place_seed,
                     os.path.join(outdir, "product"), deadline)
        rep = child("replay", workload, place_seed,
                    os.path.join(outdir, "replay"), deadline)
        seen = {"gds_md5": prod["gds_md5"], **prod["det"], **rep["counters"]}
        bad = failures(prod, prod) + [
            f"replay:{k}" for k in failures(rep, prod)
        ] + replay_failures(rep) + ref.check(seen)
        if not filecmp.cmp(prod["gds"], rep["gds"], shallow=False):
            bad.append("replay_gds_bytes_equal")
        if not spans_nest(rep):
            bad.append("spans_nest")
        metrics = layer_metrics(prod, rep, layer_units)
        attempted, failed = 2, int(bool(bad))
        flow_span = span_total(rep, ["flow"])
        record.update({
            "ocaml": prod["ocaml"], "failed_checks": bad,
            "end_to_end": e2e_metrics([prod], e2e_units),
            "layer_share_of_flow": {
                layer: span_total(rep, names) / flow_span
                for layer, names in LAYER_SPANS.items()},
            "density_share_of_flow":
                span_total(rep, ["drc.density"]) / flow_span,
            "spans": rep["spans"],
        })
    if failed == 0:
        ref.save(seen)
        shutil.rmtree(outdir)
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def save_record(record):
    os.makedirs(OUT, exist_ok=True)
    name = "{workload}-seed{seed}-trace{trace}.json".format(**record)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)


def print_table(record):
    """Every metric by name with its unit; a traced run also shows its
    untraced product run's end-to-end metrics."""
    for section in ("end_to_end", "metrics"):
        for k, v in record.get(section, {}).items():
            print(f"{k:28s} {v['value']:>16.6g} {v['unit']}")


def selftest():
    """Adder8 through both modes: the replay GDS equals the product GDS,
    every metric BENCHMARK.json names is emitted with its unit, spans
    nest."""
    e2e_units, layer_units = metric_units()
    for workload in SELFTEST_WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            result, record = run_workload(workload, 1, 1, 0, trace,
                                          time.monotonic() + CHILD_TIMEOUT_S)
            assert result["correct"], (workload, trace, record.get(
                "failed_checks", record.get("runs")))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, (workload, trace, got)
            if trace == 1:
                assert "spans_nest" not in record["failed_checks"]
                assert "replay_gds_bytes_equal" not in record["failed_checks"]
        log(f"selftest: {workload} ok")
    print("selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--place-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if nproc() < JOBS:
        log(f"error: the benchmark runs at jobs = {JOBS} > nproc = {nproc()}")
        return 2
    try:
        build()
        if args.selftest:
            selftest()
            return 0
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        result, record = run_workload(args.workload, args.seed,
                                      args.place_seed, args.seconds,
                                      args.trace, deadline)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    save_record(record)
    print_table(record)
    print("PERFBENCH_RECORD " + json.dumps(
        {k: v for k, v in record.items() if k != "spans"}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
