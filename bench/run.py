#!/usr/bin/env python3
"""The benchmark of record: one command, every metric by name and unit.

    python3 bench/run.py [--seed N] [--workloads a,b] [--trace] [--smoke]
                         [--out FILE]

runs every workload (untraced; with ``--trace`` also the traced run),
prints each metric with its unit, checks every output against its
reference and exits non-zero on a correctness failure.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

is the form ``BENCHMARK.json``'s ``command`` is completed to: one run of
one workload, whose last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run happens in a **fresh subprocess** with ``PYTHONHASHSEED=0`` (its
own heap, its own ``ru_maxrss``).  A fixed kernel is timed before and after
it; when the two readings differ by more than a tenth the result is flagged
``noisy``, and the first form repeats the run once before settling for
that.  The second form never repeats: its caller owns the clock and takes
its own medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: a run that outlives this gives up: the child raises in its main thread,
#: which closes the workload (and with it every worker process) on the way
#: out; the parent kills a child that does not even manage that
RUN_TIMEOUT_SECONDS = 160


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(contract):
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one run of one workload (the contract form)")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="with --workload: which run; else: also "
                             "make the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s windows, 3 traced rounds, one set-up")
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="references to check against")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1.0
    if args.workload:
        args.workloads = args.workload
    args.workloads = args.workloads.split(",")
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error("unknown workload(s): %s" % ", ".join(sorted(unknown)))
    return args


# -- the child: one run of one workload ----------------------------------------------


def _out_of_time(signum, frame):
    raise TimeoutError("run exceeded %d s" % RUN_TIMEOUT_SECONDS)


def child_main(args, contract):
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("bench: 'repro' resolves outside this checkout: %s"
                 % repro.__file__)
    from workloads import WORKLOADS

    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_TIMEOUT_SECONDS)
    with open(args.expected) as handle:
        expected = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    name = args.workloads[0]
    workload = WORKLOADS[name](args.seed, expected, OUT)
    warnings = harness.WarningCounter.install()
    if args.trace:
        # a fixed number of rounds, so every count repeats exactly
        rounds = max(3, round(workload.trace_rounds * args.seconds
                              / contract["run_seconds"]))
        result = harness.run_traced(
            workload, args.seed, rounds, warnings,
            os.path.join(OUT, "trace-%s.jsonl" % name),
            {metric["name"]: metric["unit"]
             for metric in contract["per_layer"]})
    else:
        result = harness.run_window(workload, args.seed, args.seconds,
                                    args.smoke)
    nproc = harness.available_cpus()
    result.update(
        workload=name, trace=args.trace, seconds=args.seconds,
        core_starved=workload.callers > nproc,
        env=harness.environment(ROOT, args.seed),
    )
    print(json.dumps(result))


# -- the parent ----------------------------------------------------------------------


def run_child(args, name, trace):
    """One fresh subprocess; returns its result dict, or exits with its
    failure.  A run that hangs is killed; the workers it forked then read
    end-of-file on their pipes and leave."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workloads", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(trace),
               "--expected", args.expected]
    if args.smoke:
        command.append("--smoke")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_SECONDS + 10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        sys.exit("bench: %s timed out" % name)
    if process.returncode != 0:
        sys.exit("bench: %s exited with code %d" % (name, process.returncode))
    return json.loads(stdout.strip().splitlines()[-1])


def measured(args, name, trace):
    """One run; repeated once when the machine moved under it, unless the
    caller asked for exactly one run."""
    result = run_child(args, name, trace)
    result["reruns"] = 0
    if harness.is_noisy(*result["calibration_ms"]) and not args.workload:
        result = run_child(args, name, trace)
        result["reruns"] = 1
    result["noisy"] = harness.is_noisy(*result["calibration_ms"])
    return result


def with_units(result, definitions):
    """``{name: {"value", "unit"}}`` for exactly the defined metrics."""
    values = result["metrics"]
    missing = [d["name"] for d in definitions if d["name"] not in values]
    if missing:
        sys.exit("bench: %s did not measure %s"
                 % (result["workload"], ", ".join(missing)))
    for definition in definitions:
        if not math.isfinite(values[definition["name"]]):
            sys.exit("bench: %s: %s is not finite"
                     % (result["workload"], definition["name"]))
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in definitions}


def main():
    contract = load_contract()
    args = parse_args(contract)
    if args.child:
        return child_main(args, contract)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("bench: no program to measure under %s" % SRC)
    if args.workload:
        traces = [args.trace]
    else:
        traces = [0, 1] if args.trace else [0]
    report = {"seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    attempted = failed = 0
    last = None
    for name in args.workloads:
        entry = report["workloads"][name] = {}
        for trace in traces:
            result = measured(args, name, trace)
            definitions = contract["per_layer" if trace
                                   else "end_to_end"]
            result["metrics"] = with_units(result, definitions)
            report["env"] = result.pop("env")
            entry["per_layer" if trace else "end_to_end"] = result
            attempted += result["attempted"]
            failed += result["failed"]
            last = result
            flags = "".join(
                " [%s]" % flag for flag in ("noisy", "core_starved")
                if result[flag])
            for metric, reading in result["metrics"].items():
                print("%-15s %-44s %14.6g %s%s" % (
                    name, metric, reading["value"], reading["unit"], flags))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    correct = failed == 0
    if args.workload:
        print(json.dumps({
            "correct": correct, "attempted": last["attempted"],
            "failed": last["failed"], "metrics": last["metrics"],
        }))
    else:
        print("%d requests attempted, %d failed" % (attempted, failed))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
