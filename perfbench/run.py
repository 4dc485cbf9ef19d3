#!/usr/bin/env python3
"""Build and run the ahbpower benchmark; print one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_ca --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and through it the simulator's src/ libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the
benchmark binary, validates the telemetry artifacts it exported and
prints host context lines followed by the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result when the sources are missing, the build
fails or the binary does not finish. See perfbench/README.md.
"""

import argparse
import csv
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.abspath(os.getcwd())
BENCH_DIR = os.path.join(ROOT, "perfbench")
SCHEMA = os.path.join(ROOT, "tools", "telemetry_schema.json")
WORKLOADS = ("paper_ca", "sweep_attr", "telemetry_export", "tlm")
JOBS = "2"
BINARY_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as f:
        return [float(x) for x in f.read().split()[:3]]


def build(build_dir, env):
    """Configures once, then builds the benchmark and the validator."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", JOBS,
         "--target", "perfbench", "perfbench_validate"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def check_json(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list)


def check_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows)


def validate(validator, artifacts):
    """Checks every exported artifact; returns the failure messages.

    Schema-tagged JSON goes through tools/telemetry_validate (which also
    checks the 1e-9 energy conservation contracts); the Chrome traces and
    CSVs carry no schema tag, so they are checked for well-formed
    structure here.
    """
    schema_tagged = ("power_windows.json", "txns.json", "metrics.json")
    structural = {"trace.json": check_json, "txn_trace.json": check_json,
                  "power_windows.csv": check_csv, "txns.csv": check_csv}
    failures = []
    for name in schema_tagged:
        path = os.path.join(artifacts, name)
        proc = subprocess.run([validator, SCHEMA, path],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            failures.append(f"{name}: {(proc.stderr or proc.stdout).strip()}")
    for name, check in structural.items():
        try:
            ok = check(os.path.join(artifacts, name))
        except (OSError, ValueError) as e:
            ok, name = False, f"{name}: {e}"
        if not ok:
            failures.append(f"{name}: malformed")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(SCHEMA)):
        fail(f"simulator sources not found under {ROOT} "
             "(run from the repository root)")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.abspath(build_dir)
    workdir = os.path.join(build_dir, "work", args.workload)

    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)

    try:
        build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    # Read after the build, so it shows the load the benchmark starts under.
    load_before = loadavg()

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    # Its own process group, so a timeout also stops forked campaign
    # workers.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=BINARY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"benchmark did not finish within {BINARY_TIMEOUT_S} s")
    sys.stderr.write(stderr)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    failures = list(result["failures"])
    if result["artifacts"]:
        bad = validate(os.path.join(build_dir, "perfbench_validate"),
                       result["artifacts"])
        failures += bad
        if bad:  # the run that exported them failed its check
            result["failed"] = min(result["attempted"], result["failed"] + 1)
    for f in failures:
        print(f"failure: {f}")

    host = {
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "seed": args.seed,
        "trace": args.trace,
    }
    print("host " + json.dumps(host))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
