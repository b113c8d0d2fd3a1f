#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs from the root of the repository and builds like run.py. For every
workload it runs a tiny configuration (a few tenants, short rounds, a
fixed number of rounds) and checks that:

  * every end-to-end and per-layer metric of BENCHMARK.json is printed,
    with its unit, and every op succeeds (failed == 0, correct == true);
  * two traced runs with one seed repeat every exact count (pages, pool
    misses, WAL bytes, physical statements, locks, tables) exactly;
  * another seed changes the op stream but prints the same metric names.

It also checks that the benchmark fails cleanly, without a result line,
in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"us", "ms", "s", "1/s", "%", "MB"}
WORKLOADS = ["oltp_hot", "pool_pressure", "durable_txn"]
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "60",
           "--trace", str(trace), "--rounds", "3", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    fingerprint = None
    for line in lines:
        m = re.match(r"op stream fingerprint: ([0-9a-f]+)", line)
        if m:
            fingerprint = m.group(1)
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return result, fingerprint


def check_metrics(result, specs, label):
    check(result is not None, label + ": run succeeded")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + ": result has exactly the four keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] > 0,
          label + ": %d ops attempted, %d failed" % (result["attempted"], result["failed"]))
    metrics = result["metrics"]
    missing = [s["name"] for s in specs if s["name"] not in metrics]
    check(not missing, label + ": every metric printed" +
          (" (missing %s)" % ", ".join(missing) if missing else ""))
    wrong = [s["name"] for s in specs if s["name"] in metrics
             and metrics[s["name"]]["unit"] != s["unit"]]
    check(not wrong, label + ": every unit as declared" +
          (" (wrong: %s)" % ", ".join(wrong) if wrong else ""))
    extra = sorted(set(metrics) - {s["name"] for s in specs})
    check(not extra, label + ": no undeclared metric" +
          (" (%s)" % ", ".join(extra) if extra else ""))


def exact_counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in TIME_UNITS and not k.startswith("trace.")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in WORKLOADS:
        first, fp1 = run(workload, 1, 1)
        check_metrics(first, bench["per_layer"], workload + " traced seed 1")
        again, fp2 = run(workload, 1, 1)
        check_metrics(again, bench["per_layer"], workload + " traced seed 1 again")
        if first and again:
            a, b = exact_counts(first), exact_counts(again)
            differ = sorted(k for k in a if a[k] != b.get(k))
            check(not differ, workload + ": %d exact counts repeat" % len(a) +
                  (" (differ: %s)" % ", ".join(differ) if differ else ""))
            check(fp1 is not None and fp1 == fp2,
                  workload + ": one seed gives one op stream")
        other, fp3 = run(workload, 2, 0)
        check_metrics(other, bench["end_to_end"], workload + " untraced seed 2")
        check(fp3 is not None and fp3 != fp1,
              workload + ": another seed changes the op stream")

    # Without the engine sources the benchmark must fail, printing nothing.
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oltp_hot",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=170, env=dict(os.environ, CARGO_TARGET_DIR=""))
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without src/ the benchmark exits %d and prints no result"
              % proc.returncode)

    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
