#!/usr/bin/env python3
"""End-to-end RF benchmark: builds the program, runs one workload, checks
every output, and prints one JSON result as the last line of stdout.

    python3 rfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to .bench_build/ (Release);
the shipped binaries bfhrf_cli and bfhrf_serve are driven as a user would
drive them. --trace 1 instead runs the in-process traced pass and prints
the per-layer metrics. See rfbench/README.md for the workloads, metrics
and checks.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

T_START = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CLI = os.path.join(BUILD, "bfhrf", "examples", "bfhrf_cli")
SERVE = os.path.join(BUILD, "bfhrf", "tools", "bfhrf_serve")
TOOL = os.path.join(BUILD, "rfbench_tool")
WORKLOADS = ("insect_newick", "insect_p2v_build", "insect_p2v_query",
             "avian_matrix", "serve_insect")
THREADS = "2"  # worker threads of the multi-threaded workloads
CPUS = sorted(os.sched_getaffinity(0))


class BenchError(Exception):
    """The benchmark could not run (build, set-up or tool failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the three targets up to date."""
    started = time.monotonic()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"]]
    else:
        steps = []
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "bfhrf_cli", "bfhrf_serve", "rfbench_tool"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return time.monotonic() - started


def tool(*args, check=True, cpus=None):
    res = subprocess.run([TOOL, *args], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         preexec_fn=pinner(cpus))
    if check and res.returncode != 0:
        raise BenchError("rfbench_tool %s: %s%s" %
                         (args[0], res.stdout, res.stderr))
    return res


def verdict(*args):
    """Run one check; True when the tool says the output is correct."""
    res = tool(*args, check=False)
    if res.returncode == 0:
        return True
    if res.returncode == 1:
        log("check failed: " + res.stdout.strip())
        return False
    raise BenchError("check %s: %s" % (args[0], res.stderr.strip()))


def cpu_probe():
    """Seconds a fixed, compute-bound formatting loop takes here."""
    t0 = time.perf_counter()
    "".join(["%.6f " % (i % 97) for i in range(4000)])
    return time.perf_counter() - t0


def fastest_cpus(k):
    """The k CPUs of this process's set that run the probe fastest now."""
    speed = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        cpu_probe()
        speed.append((min(cpu_probe(), cpu_probe()), cpu))
    os.sched_setaffinity(0, CPUS)
    return {cpu for _, cpu in sorted(speed)[:k]}


def pinner(cpus):
    """A preexec_fn that confines the child to `cpus` (None: no limit)."""
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def pin_threads(pid, cpus):
    """Confine every thread of a running process to `cpus`."""
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def run_timed(cmd, out_path, cpus=None):
    """One program invocation, on `cpus` if given: (seconds, peak RSS MiB,
    exit code)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                preexec_fn=pinner(cpus))
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(out_path + ".err", "rb") as err:
            log("%s exited %d: %s" % (os.path.basename(cmd[0]),
                                      proc.returncode,
                                      err.read()[-2000:].decode(errors="replace")))
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def fast_tenth_mean(values):
    """Mean of the fastest tenth (at least one) of the repetitions.

    Each vCPU of the shared host runs at full speed or at about half
    speed for seconds at a time, independently of the others, as other
    tenants load the cores beneath it (README.md, "Statistics"). The
    share of slow time moves from minute to minute, and a median or mean
    follows it; the fastest tenth of many short repetitions is the
    program at full speed. Averaging that tenth keeps one lucky value
    from setting the figure."""
    values = sorted(values)
    return statistics.mean(values[:max(1, len(values) // 10)])


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Result:
    def __init__(self):
        self.times = []
        self.rss = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.wall_s = None
        self.ops_per_s = None


def repeat(seconds, cmd, cpus, out_path, result, same_output=True,
           after=None):
    """Run `cmd` back to back for `seconds` (at least once), each time on
    the `cpus` CPUs that are fastest just before it. Every output must
    match the first byte for byte when `same_output`; `after` runs after
    each successful invocation."""
    first = None
    started = time.monotonic()
    while True:
        dt, rss, code = run_timed(cmd, out_path, fastest_cpus(cpus))
        result.attempted += 1
        if code != 0:
            result.failed += 1
        else:
            result.times.append(dt)
            result.rss.append(rss)
            if after:
                after()
            if same_output:
                d = digest(out_path)
                if first is None:
                    first = d
                    shutil.copyfile(out_path, out_path + ".first")
                elif d != first:
                    log("output of run %d differs from the first" %
                        result.attempted)
                    result.correct = False
        if time.monotonic() - started >= seconds:
            break
    if same_output and first is not None:
        os.replace(out_path + ".first", out_path)


def start_daemon(ref, procs):
    proc = subprocess.Popen([SERVE, "-r", ref, "--workers", THREADS],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True,
                            preexec_fn=pinner(fastest_cpus(int(THREADS))))
    procs.append(proc)
    line = proc.stdout.readline()
    if not line.startswith("READY port="):
        raise BenchError("bfhrf_serve did not start: %r" % line)
    return proc, int(line.split()[1].split("=")[1])


def serve_load(port, query, responses, seconds, daemon, procs):
    """Closed-loop rounds against the daemon for `seconds` (at least one).
    Before each round the daemon and the client are confined to the
    fastest CPUs, one per connection: a closed loop of 2 connections has
    at most 2 threads running at once. Returns the rounds and the
    client's summary."""
    client = subprocess.Popen([TOOL, "load", "--port", str(port),
                               "--queries", query, "--responses", responses],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True)
    procs.append(client)
    if client.stdout.readline().strip() != "ready":
        raise BenchError("load client did not start")
    rounds = []
    started = time.monotonic()
    while not rounds or time.monotonic() - started < seconds:
        cpus = fastest_cpus(int(THREADS))
        pin_threads(daemon.pid, cpus)
        pin_threads(client.pid, cpus)
        client.stdin.write("round\n")
        client.stdin.flush()
        rounds.append(json.loads(client.stdout.readline()))
    client.stdin.close()
    summary = json.loads(client.stdout.readline())
    if client.wait() != 0:
        raise BenchError("load client exited %d" % client.returncode)
    return rounds, summary


def peak_rss_mib(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe:
            try:
                pipe.close()
            except OSError:
                pass  # unsent input to a process that has ended


def run_workload(name, seed, seconds, work, build_s, procs):
    res = Result()
    gen = json.loads(tool("gen", "--workload", name, "--seed", str(seed),
                          "--dir", work,
                          cpus=fastest_cpus(int(THREADS))).stdout)
    ref = os.path.join(work, gen["ref"])
    query = os.path.join(work, gen["query"]) if gen["query"] else None
    empty = os.path.join(work, "empty.p2v")
    index = os.path.join(work, "index.bfh")
    answers = os.path.join(work, "answers.tsv")
    build_cmd = [CLI, "-r", ref, "-q", empty, "-t", THREADS, "--shards", "0",
                 "--save-index", index, "--mapped"]
    check = ["check-avg", "--workload", name, "--seed", str(seed),
             "--answers", answers]

    if name == "insect_p2v_query":
        if run_timed(build_cmd, os.path.join(work, "build.out"),
                     fastest_cpus(int(THREADS)))[2] != 0:
            raise BenchError("index build failed")
    elif name == "serve_insect":
        daemon, port = start_daemon(ref, procs)
    setup_s = time.monotonic() - T_START - build_s

    if name == "insect_newick":
        repeat(seconds, [CLI, "-r", ref, "-t", "1"], 1, answers, res)
        res.correct &= verdict(*check)
    elif name == "insect_p2v_build":
        # Builds may lay the table out differently (shard insert order
        # follows thread timing), so the files are compared by size only.
        sizes = set()
        repeat(seconds, build_cmd, int(THREADS),
               os.path.join(work, "build.out"), res, same_output=False,
               after=lambda: sizes.add(os.path.getsize(index)))
        if len(sizes) != 1:
            log("index size differs between builds: %s" % sorted(sizes))
            res.correct = False
        # The last index answers the reference against itself.
        if run_timed([CLI, "--load-index", index, "-q", ref, "-t", THREADS],
                     answers)[2] != 0:
            res.correct = False
        res.correct &= verdict(*check)
    elif name == "insect_p2v_query":
        repeat(seconds, [CLI, "--load-index", index, "-q", query, "-t",
                         THREADS], int(THREADS), answers, res)
        res.correct &= verdict(*check)
    elif name == "avian_matrix":
        matrix = os.path.join(work, "matrix.phy")
        repeat(seconds, [CLI, "-r", ref, "--matrix", "-t", THREADS],
               int(THREADS), matrix, res)
        res.correct &= verdict("check-matrix", "--workload", name, "--seed",
                               str(seed), "--matrix", matrix)
    elif name == "serve_insect":
        responses = os.path.join(work, "responses.tsv")
        rounds, load = serve_load(port, query, responses, seconds, daemon,
                                  procs)
        res.rss.append(peak_rss_mib(daemon.pid))
        stop(daemon)
        if daemon.returncode != 0:
            log("bfhrf_serve exited %d" % daemon.returncode)
            res.correct = False
        res.attempted = load["requests"]
        res.failed = load["failed"]
        res.times = [r["p50_us"] / 1e6 for r in rounds]
        res.wall_s = fast_tenth_mean(res.times)
        res.ops_per_s = 1.0 / fast_tenth_mean(r["s"] / r["requests"]
                                              for r in rounds)
        log("serve: %d requests, p50 %.1f us, p99 %.1f us" %
            (load["requests"], load["latency_p50_us"],
             load["latency_p99_us"]))
        # The second path: the bulk CLI answers the same query trees.
        if run_timed([CLI, "-r", ref, "-q", query, "-t", THREADS],
                     answers)[2] != 0:
            res.correct = False
        res.correct &= verdict(*check)
        res.correct &= verdict("check-serve", "--responses", responses,
                               "--bulk", answers)

    if res.wall_s is None:
        if not res.times:
            raise BenchError("no operation succeeded")
        res.wall_s = fast_tenth_mean(res.times)
        res.ops_per_s = 1.0 / res.wall_s
    log("samples (s): " + " ".join("%.6g" % t for t in res.times))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (res.wall_s, "s"),
        "ops_per_s": (res.ops_per_s, "1/s"),
        "peak_rss_mb": (statistics.median(res.rss), "MiB"),
    }
    return res, metrics


def run_trace(seed, seconds, work):
    spans = os.path.join(BUILD, "trace-spans-%d.json" % seed)
    out = json.loads(tool("trace", "--seed", str(seed), "--seconds",
                          str(seconds), "--dir", work, "--spans",
                          spans).stdout.strip().splitlines()[-1])
    res = Result()
    res.attempted = out["attempted"]
    res.failed = out["failed"]
    res.correct = out["correct"]
    return res, {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    work = os.path.join(BUILD, "run-%s-%d" % (args.workload, os.getpid()))
    procs = []
    try:
        build_s = build()
        os.makedirs(work)
        if args.trace:
            res, metrics = run_trace(args.seed, args.seconds, work)
        else:
            res, metrics = run_workload(args.workload, args.seed,
                                        args.seconds, work, build_s, procs)
    except BenchError as e:
        log("rfbench: " + str(e))
        return 1
    finally:
        for proc in procs:
            stop(proc)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": bool(res.correct),
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
