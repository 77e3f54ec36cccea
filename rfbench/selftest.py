#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 rfbench/selftest.py [--seed N]

Produces a real output for each kind of check, confirms the check passes
on it, then feeds the check a corrupted copy and confirms it fails:

  * averages: one RF value off by 2 (the average moves by 2/r, so the
    even-total and range properties still hold; only the independent
    reference can catch it);
  * matrix:   one entry changed on one side of the diagonal only;
  * daemon:   two responses with different answers swapped.

Exits 0 when every clean output passes and every corruption is caught.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def passes(*args):
    res = run.tool(*args, check=False)
    if res.returncode not in (0, 1):
        raise run.BenchError(res.stderr)
    return res.returncode == 0, res.stdout.strip()


def rewrite(path, edit):
    with open(path) as f:
        lines = f.read().splitlines()
    edit(lines)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def off_by_two(r):
    def edit(lines):
        index, avg = lines[7].split("\t")
        lines[7] = "%s\t%.6f" % (index, float(avg) + 2.0 / r)
    return edit


def asymmetric(lines):
    cells = lines[3].split()  # row 2 (line 0 is the size)
    cells[6] = str(int(cells[6]) + 2)  # column 5, (5, 2) unchanged
    lines[3] = " ".join(cells[:1]) + "\t" + " ".join(cells[1:])


def swap_two(lines):
    first = lines[0].split("\t")
    for k in range(1, len(lines)):
        other = lines[k].split("\t")
        if "%.6f" % float(other[1]) != "%.6f" % float(first[1]):
            lines[0] = "%s\t%s" % (first[0], other[1])
            lines[k] = "%s\t%s" % (other[0], first[1])
            return
    raise run.BenchError("no two responses differ")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = str(ap.parse_args().seed)
    work = os.path.join(run.BUILD, "selftest-%d" % os.getpid())
    procs = []
    results = []

    def expect(label, clean_ok, corrupt_ok, detail):
        good = clean_ok and not corrupt_ok
        results.append(good)
        print("%-34s %s  (%s)" % (label, "ok" if good else "FAILED", detail))

    try:
        run.build()
        os.makedirs(work)

        def gen(workload):
            d = os.path.join(work, workload)
            os.makedirs(d)
            info = json.loads(run.tool("gen", "--workload", workload,
                                       "--seed", seed, "--dir", d).stdout)
            return d, info["r"]

        d, r = gen("insect_newick")
        answers = os.path.join(d, "answers.tsv")
        run.run_timed([run.CLI, "-r", os.path.join(d, "ref.nwk")], answers)
        check = ["check-avg", "--workload", "insect_newick", "--seed", seed,
                 "--answers", answers]
        clean, _ = passes(*check)
        rewrite(answers, off_by_two(r))
        corrupt, why = passes(*check)
        expect("averages: one RF value off by 2", clean, corrupt, why)

        d, _ = gen("avian_matrix")
        matrix = os.path.join(d, "matrix.phy")
        run.run_timed([run.CLI, "-r", os.path.join(d, "ref.nwk"), "--matrix",
                       "-t", run.THREADS], matrix)
        check = ["check-matrix", "--workload", "avian_matrix", "--seed", seed,
                 "--matrix", matrix]
        clean, _ = passes(*check)
        rewrite(matrix, asymmetric)
        corrupt, why = passes(*check)
        expect("matrix: one asymmetric entry", clean, corrupt, why)

        d, _ = gen("serve_insect")
        ref, query = os.path.join(d, "ref.nwk"), os.path.join(d, "query.nwk")
        bulk = os.path.join(d, "bulk.tsv")
        responses = os.path.join(d, "responses.tsv")
        daemon, port = run.start_daemon(ref, procs)
        run.serve_load(port, query, responses, 1, daemon, procs)
        run.stop(daemon)
        run.run_timed([run.CLI, "-r", ref, "-q", query], bulk)
        check = ["check-serve", "--responses", responses, "--bulk", bulk]
        clean, _ = passes(*check)
        rewrite(responses, swap_two)
        corrupt, why = passes(*check)
        expect("daemon: two responses swapped", clean, corrupt, why)
    except run.BenchError as e:
        print("selftest: " + str(e), file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            run.stop(proc)
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) and len(results) == 3 else 1


if __name__ == "__main__":
    sys.exit(main())
