#!/usr/bin/env python3
"""Record-path benchmark for dnsctx: simulate -> capture -> v2 spool ->
batch study / online study / serve ingest -> results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dnsctx checkout. The first run configures and
builds perfbench/ (the dnsctx libraries plus harness/) in Release under
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. Workloads (see perfbench/METRICS.md for every name):

  city_capture  2000 houses x 1 h, 8 shards: Town -> LiveFeed -> SpoolWriter
  study_replay  80 houses x 24 h spool -> run_study, and -> OnlineStudy
  serve_ingest  1000-house tenant pushed open-loop at a ladder of rates

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Any failed output check, or a run that processed
no records, exits nonzero without printing it. Flag errors exit 2.
"""

import argparse
import collections
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import pbstats  # noqa: E402

BUILD_TYPE = "Release"
NPROC = os.cpu_count() or 1
THREADS = min(4, NPROC)
# Set-up repetitions per run; setup_s is their median. A town build is
# cheap and noisy, the simulations behind the other inputs are not.
SETUPS = {"city_capture": 7, "study_replay": 3, "serve_ingest": 3}

CITY = {"houses": 2000, "minutes": 60, "shards": 8}
STUDY = {"houses": 80, "hours": 24, "shards": 4}
SERVE = {"houses": 1000, "minutes": 60, "shards": 4, "frame_records": 256}
# Open-loop ladder (records/s) spanning the single-loop ingest ceiling;
# every rung pushes the same frames to a fresh server and tenant. The top
# rung offers more than one loop can take, so its throughput is the
# server's ingest capacity; it runs TOP_REPEATS times and reports the
# median.
LADDER = [150_000, 250_000, 350_000, 450_000, 700_000, 1_000_000]
TOP_REPEATS = 3
REFERENCE_RATE = 150_000  # ingest/results latencies are reported here
# Sizing only: rungs above this rate take about as long as at it.
CAPACITY_GUESS = 350_000
LATENCY_LIMIT_MS = 50.0   # per-frame p99 limit defining the sustained rate
POLL_HZ = 20              # GET /results rate during ingest
MIN_FRAMES = 1100         # frames per rung, so p99 has >= 10 samples beyond

WORKLOADS = ("city_capture", "study_replay", "serve_ingest")
PLATFORMS = ("Local", "Google", "OpenDNS", "Cloudflare")
STAGES = ("pairing", "blocking", "classify", "table1", "isp_only_houses",
          "performance", "platforms")
SUBPROCESS_TIMEOUT_S = 170


class CheckFailed(Exception):
    """An output check failed: the run must not report a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench-" + BUILD_TYPE.lower())


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise CheckFailed(f"no dnsctx sources under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(NPROC), "--target",
                    "perfbench_harness"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(out, "perfbench_harness")


# ---- harness processes -------------------------------------------------------

HARNESS_INFO = {}  # build type and compiler, as the harness reports them


def harness(binary, sub, **flags):
    """Run one harness subcommand; return its JSON report."""
    cmd = [binary, sub]
    for key, value in flags.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise CheckFailed(f"{sub} exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report.get("ok"):
        raise CheckFailed(f"{sub} did not report ok")
    HARNESS_INFO.update(report["info"])
    return report


def m(report, name):
    value = report["metrics"].get(name)
    if value is None:
        raise CheckFailed(f"harness report lacks {name}")
    return value


# ---- city_capture --------------------------------------------------------------

def run_city(binary, work, seed, seconds, trace_dir):
    del seconds  # one fixed unit of work: a whole simulated hour
    flags = dict(CITY, threads=THREADS, seed=seed, spool=os.path.join(work, "spool"),
                 setups=SETUPS["city_capture"])
    if trace_dir:
        flags["trace_dir"] = trace_dir
    r = harness(binary, "capture", **flags)
    records = m(r, "records")
    e2e = {
        "setup_s": m(r, "setup_s"),
        "records_per_s": m(r, "records_per_s"),
        "peak_rss_mib": m(r, "peak_rss_kib") / 1024,
    }
    layer = {}
    if trace_dir:
        obs = lambda name: m(r, "obs." + name)  # noqa: E731
        self_s = lambda name: m(r, "self_s." + name)  # noqa: E731
        events = obs("sim_events_dispatched")
        layer.update({
            "scenario.build_s": m(r, "setup_s"),
            "scenario.run_for_s": m(r, "run_for_s"),
            "scenario.run_for_self_s": self_s("scenario.run_for"),
            "scenario.harvest_s": self_s("scenario.harvest"),
            "scenario.parallelism": m(r, "parallelism"),
            "netsim.events_dispatched": events,
            "netsim.ns_per_event": self_s("scenario.run_for") * 1e9 / events if events else 0.0,
            "netsim.event_queue_peak": obs("sim_event_queue_peak"),
            "netsim.packets_sent": obs("net_packets_sent"),
            "netsim.tap_observations": obs("net_tap_observations"),
            "capture.sink_s": self_s("capture.sink"),
            "capture.conns": m(r, "conns"),
            "capture.dns": m(r, "dns"),
            "capture.rss_kib_per_house": m(r, "peak_rss_kib") / CITY["houses"],
            "stream.feed_drain_s": self_s("stream.feed_drain"),
            "stream.feed_peak_buffered_records": m(r, "feed_peak_buffered_records"),
            "stream.spool_write_s": self_s("stream.spool_write"),
            "stream.spool_bytes_per_record": m(r, "spool_bytes") / records,
            "stream.spool_segments": m(r, "spool_segments"),
        })
        for p in PLATFORMS:
            label = '{platform="%s"}' % p
            layer[f"resolver.queries.{p}"] = obs("resolver_queries" + label)
            layer[f"resolver.cache_hit_rate.{p}"] = obs("resolver_cache_hit_rate" + label)
        blocking = sum(self_s(n) for n in ("scenario.run_for", "capture.sink",
                                           "stream.feed_drain", "stream.spool_write",
                                           "scenario.harvest"))
        layer["trace.blocking_path_coverage"] = blocking / m(r, "total_s.city_capture")
    return {"e2e": e2e, "layer": layer, "attempted": int(records),
            "digest": r["info"]["digest"]}


# ---- study_replay ----------------------------------------------------------------

def summary_pairs(path):
    with open(path) as f:
        for line in f:
            if line.startswith("pairing "):
                return int(line.split()[1])
    raise CheckFailed(f"{path} has no pairing line")


def run_study(binary, work, seed, seconds, trace_dir, spool=None):
    setup = None
    if spool is None:
        spool = os.path.join(work, "spool")
        gen = harness(binary, "gen-spool", **STUDY, threads=THREADS, seed=seed,
                      spool=spool, setups=SETUPS["study_replay"])
        setup = m(gen, "setup_s")
    phase_s = max(1, seconds // 2)
    extra = {"trace_dir": trace_dir} if trace_dir else {}
    b_sum, o_sum = os.path.join(work, "batch.txt"), os.path.join(work, "online.txt")
    b = harness(binary, "study-batch", spool=spool, seconds=phase_s, summary=b_sum, **extra)
    o = harness(binary, "study-online", spool=spool, seconds=phase_s, summary=o_sum, **extra)
    with open(b_sum) as fb, open(o_sum) as fo:
        if fb.read() != fo.read():
            raise CheckFailed("online and batch studies disagree "
                              f"(compare {b_sum} with {o_sum})")
    records = m(b, "records")
    if m(o, "records") != records:
        raise CheckFailed("online and batch studies read different record counts")
    batch_s, online_s = m(b, "batch_study_s"), m(o, "online_s")
    e2e = {
        "setup_s": setup,
        "records_per_s": 2 * records / (batch_s + online_s),
        "peak_rss_mib": max(m(b, "peak_rss_kib"), m(o, "peak_rss_kib")) / 1024,
    }
    layer = {}
    if trace_dir:
        reps_b, reps_o = m(b, "reps"), m(o, "reps")
        ob = lambda name: b["metrics"].get("obs." + name, 0.0) / reps_b  # noqa: E731
        oo = lambda name: o["metrics"].get("obs." + name, 0.0) / reps_o  # noqa: E731
        scanned = ob("pairing_candidates_scanned_total")
        layer.update({
            "study.batch_study_s": batch_s,
            "study.batch_peak_rss_mib": m(b, "peak_rss_kib") / 1024,
            "study.online_records_per_s": m(o, "online_records_per_s"),
            "study.online_peak_rss_mib": m(o, "peak_rss_kib") / 1024,
            "stream.spool_read_s": m(o, "spool_read_s"),
            "stream.spool_read_records_per_s": m(o, "spool_read_records_per_s"),
            "stream.online_ingest_self_s": m(o, "ingest_self_s"),
            "stream.online_finalize_s": m(o, "finalize_s"),
            "stream.online_active_candidates_peak": m(o, "active_candidates_peak"),
            "stream.online_active_records_peak": m(o, "active_records_peak"),
            "stream.online_sweeps": oo("stream_sweeps_total"),
            "stream.online_evicted_candidates": oo("stream_evicted_candidates_total"),
            "analysis.collect_s": m(b, "collect_s"),
            "analysis.run_study_s": m(b, "run_study_s"),
            "analysis.pairing_candidates_scanned": scanned,
            "analysis.pairing_candidates_built": ob("pairing_candidates_built_total"),
            "analysis.pairing_useful_ratio": summary_pairs(b_sum) / scanned if scanned else 0.0,
        })
        for stage in STAGES:
            key = 'stage_wall_us_total{stage="run_study/%s"}' % stage
            layer[f"analysis.stage.{stage}_s"] = ob(key) / 1e6
        online_cov = (m(o, "self_s.stream.replay_spool") + m(o, "self_s.stream.online_ingest")
                      + m(o, "self_s.stream.online_finalize")) / m(o, "total_s.study_online")
        batch_cov = (m(b, "total_s.analysis.collect") + m(b, "total_s.analysis.run_study")) \
            / m(b, "total_s.study_batch")
        layer["trace.blocking_path_coverage"] = min(online_cov, batch_cov)
    reps = m(b, "reps") + m(o, "reps")
    return {"e2e": e2e, "layer": layer, "attempted": int(records * reps), "spool": spool}


# ---- serve_ingest ------------------------------------------------------------------

def rung_records(seconds):
    """Records per rung so the whole ladder lasts about `seconds`."""
    rungs = LADDER + [LADDER[-1]] * (TOP_REPEATS - 1)
    per_record_s = sum(1.0 / min(rate, CAPACITY_GUESS) for rate in rungs)
    return max(int(seconds / per_record_s), MIN_FRAMES * SERVE["frame_records"])


# One ladder rung: its pbstats.Step, the raw samples record, the server's
# and the load generator's harness reports, and the server start time.
Rung = collections.namedtuple("Rung", "step sample host load start_s")


def serve_rung(binary, work, rate, frames, reference, trace_dir):
    """One ladder rung against a fresh server process, so no rung pays for
    an earlier rung's tenant."""
    extra = {}
    cmd = [binary, "serve-host"]
    if trace_dir:
        extra["trace_dir"] = os.path.join(trace_dir, f"rung-{rate}")
        os.makedirs(extra["trace_dir"], exist_ok=True)
        cmd += ["--trace-dir", extra["trace_dir"]]
    samples = os.path.join(work, "samples.json")
    with open(os.path.join(work, "serve-host.log"), "w+") as host_log:
        t0 = time.monotonic()
        # Leaving the with-block closes the host's stdin, which stops it,
        # and waits for it to exit.
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=host_log, text=True) as host:
            try:
                ports = json.loads(host.stdout.readline())
                start_s = time.monotonic() - t0
                load = harness(binary, "serve-load", ingest_port=ports["ingest_port"],
                               http_port=ports["http_port"], server_pid=ports["pid"],
                               loop_tid=ports["loop_tid"], frames=frames,
                               reference=reference, rate=rate, poll_hz=POLL_HZ,
                               samples=samples, **extra)
                out, _ = host.communicate("quit\n", timeout=SUBPROCESS_TIMEOUT_S)
            except BaseException:
                host.kill()
                raise
        if host.returncode != 0:
            host_log.seek(0)
            raise CheckFailed(f"serve-host exited {host.returncode}: {host_log.read().strip()}")
    host_report = json.loads(out.strip().splitlines()[-1])
    with open(samples) as f:
        s = json.load(f)
    if s["error"]:
        raise CheckFailed(f"rung {rate}: {s['error']}")
    if not s["results_match"]:
        raise CheckFailed(f"rung {rate}: /results differs from the offline study")
    if s["released"] != s["pushed"]:
        raise CheckFailed(f"rung {rate}: released {s['released']} of {s['pushed']} "
                          "pushed records")
    step = pbstats.Step(s["rate"], s["frames"], s["polls"])
    if step.failed_frames() or step.failed_polls():
        raise CheckFailed(f"rung {rate}: {step.failed_frames()} frames unacked, "
                          f"{step.failed_polls()} /results polls failed")
    if host_report["metrics"]["frames"] != len(step.frames):
        raise CheckFailed(f"rung {rate}: server saw {host_report['metrics']['frames']} "
                          f"of {len(step.frames)} frames")
    return Rung(step, s, host_report, load, start_s)


def run_serve(binary, work, seed, seconds, trace_dir, inputs=None):
    if inputs is None:
        frames = os.path.join(work, "frames.bin")
        reference = os.path.join(work, "reference.json")
        gen = harness(binary, "serve-gen", houses=SERVE["houses"],
                      minutes=SERVE["minutes"], shards=SERVE["shards"], threads=THREADS,
                      seed=seed, frame_records=SERVE["frame_records"],
                      rung_records=rung_records(seconds), frames=frames,
                      reference=reference, setups=SETUPS["serve_ingest"])
        inputs = (frames, reference, gen)
    frames, reference, gen = inputs
    rungs = [serve_rung(binary, work, rate, frames, reference, trace_dir)
             for rate in LADDER + [LADDER[-1]] * (TOP_REPEATS - 1)]
    ladder = rungs[:len(LADDER)]
    capacity = pbstats.median([r.step.throughput_per_s() for r in rungs[len(LADDER) - 1:]])
    log("serve ladder: " + ", ".join(f"{r.step.rate // 1000}k p99 {r.step.p99_ms():.1f} ms"
                                     for r in ladder) + f"; capacity {capacity:.0f}/s")
    e2e = {
        "setup_s": m(gen, "setup_s") + pbstats.median([r.start_s for r in rungs]),
        "records_per_s": capacity,
        "peak_rss_mib": max(m(r.host, "peak_rss_kib") for r in rungs) / 1024,
    }
    layer = {}
    if trace_dir:
        ref = next(r for r in ladder if r.step.rate == REFERENCE_RATE)
        lat = ref.step.latencies_ms()
        polls = ref.step.poll_latencies_ms()
        layer.update({
            "serve.ingest_p50_ms": pbstats.percentile(lat, 0.5),
            "serve.ingest_p99_ms": pbstats.percentile(lat, 0.99),
            "serve.ingest_samples": len(lat),
            "serve.ladder_sustained_records_per_s":
                pbstats.ladder_sustained([r.step for r in ladder], LATENCY_LIMIT_MS) or 0,
            "serve.results_p50_ms": pbstats.percentile(polls, 0.5),
            "serve.results_max_ms": max(polls) if polls else 0.0,
            "serve.results_samples": len(polls),
            "serve.results_bytes": ref.sample["results_bytes"],
            "serve.backlog_peak_records": ref.step.backlog_peak_records(),
            "serve.send_blocked_s": ref.step.send_blocked_s(),
            "serve.tenant_queue_peak": max(m(r.host, "tenant_queue_peak") for r in rungs),
            "serve.frames": sum(m(r.host, "frames") for r in rungs),
            "serve.frame_errors": sum(m(r.host, "connections_errored") for r in rungs),
            "serve.wire_bytes_per_record": m(gen, "wire_bytes") / m(gen, "records"),
            "gen.lateness_p99_ms": pbstats.percentile(ref.step.lateness_ms(), 0.99),
        })
        for r in ladder:
            wall_s = (r.sample["t_end"] - r.sample["t0"]) / 1e9
            name = f"{r.step.rate // 1000}k"
            layer["serve.loop_cpu_share." + name] = r.sample["loop_cpu_ns"] / 1e9 / wall_s
            layer["serve.p99_ms." + name] = r.step.p99_ms()
        client = sum(m(r.load, "self_s.serve.push") + m(r.load, "self_s.serve.await_acks")
                     for r in rungs)
        layer["trace.blocking_path_coverage"] = client / sum(m(r.load, "total_s.serve.rung")
                                                             for r in rungs)
    attempted = sum(len(r.step.frames) + len(r.step.polls) for r in rungs)
    return {"e2e": e2e, "layer": layer, "attempted": attempted, "inputs": inputs}


# ---- checks shared across runs of one checkout -------------------------------------

def check_digest(state_dir, seed, digest):
    """A seed's city spool must digest identically on every run in this
    checkout (the simulator and capture are deterministic)."""
    path = os.path.join(state_dir, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    key = "city_capture:" + json.dumps(dict(CITY, seed=seed), sort_keys=True)
    if key in known and known[key] != digest:
        raise CheckFailed(f"city_capture seed {seed}: spool digest {digest} differs "
                          f"from an earlier run's {known[key]}")
    known[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def source_id():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


# ---- command line and result ------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


RUNNERS = {"city_capture": run_city, "study_replay": run_study, "serve_ingest": run_serve}


def run(args):
    binary = build()
    state_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-state")
    work = os.path.join(state_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = RUNNERS[args.workload]
        result = runner(binary, work, args.seed, args.seconds, None)
        if args.trace:
            trace_dir = os.path.join(state_dir, f"trace-{args.workload}-seed{args.seed}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            reuse = {k: result[k] for k in ("spool", "inputs") if k in result}
            traced = runner(binary, work, args.seed, args.seconds, trace_dir, **reuse)
            if args.workload == "city_capture" and traced["digest"] != result["digest"]:
                raise CheckFailed("traced and untraced city spools digest differently")
            metrics = dict(traced["layer"])
            # Set-up is not re-run traced (the traced pass reuses the
            # inputs), so overhead covers the timed phase's metrics.
            for name in ("records_per_s", "peak_rss_mib"):
                metrics[f"trace.overhead.{name}"] = traced["e2e"][name] - result["e2e"][name]
            attempted = result["attempted"] + traced["attempted"]
        else:
            metrics = result["e2e"]
            attempted = result["attempted"]
        if args.workload == "city_capture":
            check_digest(state_dir, args.seed, result["digest"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, attempted


def main(argv):
    args = parse_args(argv)
    try:
        metrics, attempted = run(args)
    except (CheckFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log(f"{args.workload} failed: {e}")
        return 1
    if attempted < 1:
        log(f"{args.workload} attempted nothing")
        return 1
    missing = [k for k, v in metrics.items() if v is None]
    if missing:
        log(f"{args.workload}: no value for {', '.join(missing)}")
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        log(f"metrics not declared in BENCHMARK.json: {unknown}")
        return 1
    absent = sorted(set(units) - set(metrics))
    if absent and not args.trace:
        log(f"end-to-end metrics not measured: {absent}")
        return 1
    # A layer this workload's timed phase never enters did no work here.
    metrics.update({name: 0.0 for name in absent})
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "build_type": BUILD_TYPE, "nproc": NPROC,
            "threads": THREADS, "source": source_id(), **HARNESS_INFO}
    print("perfbench-run " + json.dumps(info, sort_keys=True))
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
