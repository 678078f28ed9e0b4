"""Measurement core of the benchmark of record.

A workload (see ``workloads.py``) is driven as a **closed loop**: each
caller sends its next request only after the previous one returned.  A
*round* is one pass over the workload's request classes in a
seed-shuffled order; warm-up is two rounds; the measured window is five
*slices*, each ending at the first round boundary after its share of
``seconds``.  Every request is

    prepare (untimed) -> op (timed, the public front door) -> check (untimed)

so the reference comparison never sits inside an op's clock, and the
harness's own think time is subtracted from the CPU bill.  Times are
*calibrated*: a fixed kernel is timed between rounds and each slice's
times are scaled to the speed of a reference machine (see "calibration").

Two kinds of run share this file:

* :func:`run_window` — the untraced run the end-to-end metrics come from;
* :func:`run_traced` — a fixed number of rounds in which every request is
  sent through the front door plain, again under a ``request`` span, then
  stage by stage through the public functions of each layer (one span
  per call), and finally with the program's own tracer disabled.

Spans live in memory (:class:`SpanLog`) and are written out at exit.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import os
import platform
import random
import resource
import statistics
import threading
import time
import traceback

SLICES = 5
WARMUP_ROUNDS = 2
#: set-up is repeated and its median reported, so one slow allocation
#: does not decide ``setup_s``
SETUP_REPEATS = 3
#: calibration kernel drift above which a run is called noisy
NOISE_LIMIT = 0.10

median = statistics.median
mean = statistics.mean
geometric_mean = statistics.geometric_mean
_now = time.perf_counter


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(share * len(ordered)) - 1))
    return ordered[rank]


# -- calibration ---------------------------------------------------------------------
#
# The machines this runs on are shared: for seconds to minutes at a time
# everything — wall time and CPU time alike — runs up to half again as slow,
# and the guest sees no steal.  A fixed pure-Python kernel does the same work
# on every commit, so its time is the machine, not the program.  It is used
# twice: readings taken *inside* each slice of the window scale that slice's
# times to a reference speed (a run in a slow minute then reads like one in
# a quiet minute), and a reading before and after the run drives the noise
# guard.  The kernel does what the program does — builds dicts, copies them,
# allocates small objects, formats and joins strings — because a slow spell
# costs such code about twice what it costs an arithmetic loop: measured over
# 50 runs, op time followed this kernel's time with exponent 0.7-0.9 and an
# arithmetic kernel's with 1.4-1.7.

#: the kernel's time on the reference machine; times are reported as they
#: would read on a machine that runs the kernel in exactly this long (the
#: box this was written on, between its slow spells)
REFERENCE_KERNEL_MS = 5.0
#: the lead caller takes a reading at most this often, between two rounds
KERNEL_INTERVAL_SECONDS = 0.1


class _KernelNode:
    __slots__ = ("name", "children", "value")


def kernel_ms():
    """One pass of the fixed kernel, in CPU time of this thread (so a second
    caller holding the interpreter lock does not read as a slow machine)."""
    start = time.thread_time()
    rows = [{"id": index, "name": "n%d" % index,
             "zip": 10000 + index * 37 % 90000} for index in range(6000)]
    out = []
    for row in rows:
        env = dict(row)
        env["x"] = env["id"] * 3
        node = _KernelNode()
        node.name = env["name"]
        node.children = [env["zip"]]
        node.value = None
        if env["zip"] % 3:
            out.append("<r>%s</r>" % node.name)
    "".join(out)
    return (time.thread_time() - start) * 1000.0


def calibration_ms():
    """Best of three kernel passes."""
    return min(kernel_ms() for _ in range(3))


def is_noisy(before_ms, after_ms):
    return abs(after_ms - before_ms) / min(before_ms, after_ms) > NOISE_LIMIT


def slowness(readings):
    """How much slower than the reference machine the kernel just ran."""
    return median(readings) / REFERENCE_KERNEL_MS


# -- the environment record ----------------------------------------------------------


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _commit(root):
    """The checked-out commit, read from ``.git`` without running git
    (the driver's checkout is not a repository: then it is unknown)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(root, seed):
    return {
        "nproc": available_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "gc_threshold": list(gc.get_threshold()),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
    }


# -- process accounting --------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _child_cpu_seconds(pid):
    """user+system CPU of a live worker process.  Children are only folded
    into ``RUSAGE_CHILDREN`` once reaped, which is after the window."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds(worker_pids=()):
    return time.process_time() + sum(
        _child_cpu_seconds(pid) for pid in worker_pids
    )


def peak_rss_mb():
    """Peak resident set of this process plus the largest reaped child
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class WarningCounter(logging.Handler):
    """Counts the program's fallback warnings instead of printing them, so
    the terminal (and its cost) is the same on every commit."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1

    @classmethod
    def install(cls):
        handler = cls()
        logger = logging.getLogger("repro")
        logger.addHandler(handler)
        logger.propagate = False
        return handler


class GcWatch:
    """``gc.callbacks`` hook: total pause time and generation-2 count."""

    def __init__(self):
        self.pause_seconds = 0.0
        self.gen2 = 0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = _now()
        elif self._start is not None:
            self.pause_seconds += _now() - self._start
            self._start = None
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


# -- callers -------------------------------------------------------------------------


class _Failed:
    """What a request that raised 'returned'."""


def _run_op(workload, cls, ctx, op):
    """One front-door call.  The boundary that keeps the loop running: an
    op that raises is a failed request, reported once, not a crash."""
    try:
        return op(cls, ctx)
    except Exception:
        workload.mismatch(cls, traceback.format_exc())
        return _Failed


class WindowLog:
    """One caller's untraced measurements over one slice of the window."""

    def __init__(self, caller):
        self.caller = caller
        self.samples = {}       # class -> [latency seconds]
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0         # seconds inside ops
        self.think_cpu = 0.0    # CPU this thread spent outside ops
        self.kernel = []        # the lead caller's kernel readings, ms
        self._mark = None
        self._kernel_due = 0.0

    def start(self):
        self._mark = time.thread_time()

    def request(self, workload, cls, payload):
        ctx = workload.prepare(cls, payload, self.caller)
        self.think_cpu += time.thread_time() - self._mark
        start = _now()
        output = _run_op(workload, cls, ctx, workload.op)
        end = _now()
        self._mark = time.thread_time()
        ok = output is not _Failed and workload.check(cls, ctx, output)
        self.samples.setdefault(cls, []).append(end - start)
        self.attempted += 1
        self.busy += end - start
        if not ok:
            self.failed += 1

    def end_round(self):
        if self.caller == 0 and _now() >= self._kernel_due:
            self.kernel.append(kernel_ms())
            self._kernel_due = _now() + KERNEL_INTERVAL_SECONDS
        mark = time.thread_time()
        self.think_cpu += mark - self._mark
        self._mark = mark


class SpanLog:
    """One caller's traced requests: spans, samples and counts, in memory.

    A span is ``[name, start, end, parent index, request id, class]``.
    The duration of a span is also a sample of the metric its name spells
    (span ``rdb.plan.execute_ms`` feeds metric ``rdb.plan.execute_ms``):
    a *stage* — a span inside a request — is summed per op over every
    request class, so stages add up to the request they are part of; a
    span with no parent, like anything given to :meth:`value`, is averaged
    over the classes that have it.  :meth:`count` adds to a per-op count.
    """

    def __init__(self, caller):
        self.caller = caller
        self.spans = []
        self.stages = {}        # (name, class) -> [ms], spans with a parent
        self.values = {}        # (name, class) -> [samples]
        self.counts = {}        # name -> total over all requests
        self.kernel = []        # the lead caller's kernel readings, ms
        self.requests = 0
        self.failed = 0
        self.cls = None
        self._stack = []

    def start(self):
        pass

    def end_round(self):
        # the collector is off while a traced round runs (see run_traced)
        gc.collect()
        if self.caller == 0:
            self.kernel.append(kernel_ms())

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` under a span; returns what it returns."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, "%d.%d" % (self.caller, self.requests),
                self.cls]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = _now()
        try:
            return fn(*args)
        finally:
            span[2] = _now()
            self._stack.pop()
            self._sample(span)

    def span(self, name, start, end, parent):
        """A span whose times another layer reported (serving results)."""
        span = [name, start, end, parent,
                "%d.%d" % (self.caller, self.requests), self.cls]
        self.spans.append(span)
        self._sample(span)

    def _sample(self, span):
        bucket = self.values if span[3] is None else self.stages
        bucket.setdefault((span[0], self.cls), []).append(
            (span[2] - span[1]) * 1000.0)

    def last_ms(self):
        span = self.spans[-1]
        return (span[2] - span[1]) * 1000.0

    def value(self, name, sample):
        self.values.setdefault((name, self.cls), []).append(sample)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _timed_pass(self, workload, cls, payload, op, name):
        """One more front-door call of this request, outside any span."""
        ctx = workload.prepare(cls, payload, self.caller)
        start = _now()
        output = _run_op(workload, cls, ctx, op)
        self.value(name, (_now() - start) * 1000.0)
        return output

    def request(self, workload, cls, payload):
        self.requests += 1
        self.cls = cls
        # 1. the front door exactly as the untraced run calls it, and
        # 2. the same call under a request span — taking turns to go first,
        # since whichever does finds the request's code and data cold
        plain_first = self.requests % 2
        if plain_first:
            plain = self._timed_pass(workload, cls, payload, workload.op,
                                     "request.plain_ms")
        ctx = workload.prepare(cls, payload, self.caller)
        root = len(self.spans)
        output = self.call("request", _run_op, workload, cls, ctx, workload.op)
        if not plain_first:
            plain = self._timed_pass(workload, cls, payload, workload.op,
                                     "request.plain_ms")
        ok = (plain is not _Failed and output is not _Failed
              and workload.check(cls, ctx, output)
              and workload.observe(cls, ctx, output, self, root))
        # 3. stage by stage through the public functions of each layer
        if ok and workload.staged is not None:
            ctx = workload.prepare(cls, payload, self.caller)
            root = len(self.spans)
            staged = self.call("staged", workload.staged, cls, ctx, self)
            self.value("bench.stage_sum_ms", sum(
                span[2] - span[1] for span in self.spans[root + 1:]
                if span[3] == root) * 1000.0)
            ok = workload.same(output, staged) or workload.mismatch(
                cls, "staged output differs from the front door")
        # 4. the front door with the program's own tracer disabled
        if ok and workload.quiet_op is not None:
            ok = self._timed_pass(workload, cls, payload, workload.quiet_op,
                                  "request.quiet_ms") is not _Failed
        if not ok:
            self.failed += 1


def _caller_loop(workload, log, rng, seconds, rounds):
    log.start()
    start = _now()
    done = 0
    while True:
        for cls, payload in workload.round(rng, log.caller):
            log.request(workload, cls, payload)
        log.end_round()
        done += 1
        if (done >= rounds) if rounds is not None \
                else (_now() - start >= seconds):
            return


def run_callers(workload, rngs, log_type, seconds=None, rounds=None):
    """Drive one closed-loop caller per entry of ``rngs`` for ``seconds``
    (to the next round boundary) or for exactly ``rounds`` rounds each;
    returns one log per caller.  One caller runs on this thread."""
    logs = [log_type(caller) for caller in range(len(rngs))]
    if len(logs) == 1:
        _caller_loop(workload, logs[0], rngs[0], seconds, rounds)
        return logs
    errors = []

    def body(log, rng):
        try:
            _caller_loop(workload, log, rng, seconds, rounds)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=pair, name="bench-caller",
                                daemon=True)
               for pair in zip(logs, rngs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return logs


def caller_rngs(workload, seed):
    """One generator per caller; it lasts the whole run, so warm-up and
    every slice continue one seeded request stream."""
    return [random.Random("%d/%d" % (seed, caller))
            for caller in range(workload.callers)]


def _setup(workload, repeats):
    """Set the workload up ``repeats`` times (closing in between); the
    last one stays.  Returns the calibrated wall time of each."""
    times = []
    for _ in range(repeats):
        workload.close()
        readings = [kernel_ms() for _ in range(3)]
        start = _now()
        workload.setup()
        elapsed = _now() - start
        readings += [kernel_ms() for _ in range(3)]
        times.append(elapsed / slowness(readings))
    return times


# -- the untraced run ----------------------------------------------------------------


def _slice(workload, rngs, seconds=None, rounds=None):
    """One slice of closed-loop load with the process's CPU bill for it."""
    pids = workload.worker_pids()
    cpu = cpu_seconds(pids)
    logs = run_callers(workload, rngs, WindowLog, seconds=seconds,
                       rounds=rounds)
    cpu = cpu_seconds(pids) - cpu - sum(log.think_cpu for log in logs)
    samples = {}
    for log in logs:
        for cls, latencies in log.samples.items():
            samples.setdefault(cls, []).extend(latencies)
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    slow = slowness(logs[0].kernel)
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "slowness": slow,
        # ops per second of caller-busy time: the rate of a closed loop
        # whose callers have no think time of their own
        "throughput_ops_s": ((attempted - failed) * len(logs)
                             / sum(log.busy for log in logs) * slow),
        "latency_p50_ms": geometric_mean(
            [median(values) for values in samples.values()]) * 1000.0 / slow,
        "cpu_ms_per_op": cpu / attempted * 1000.0 / slow,
    }


def run_window(workload, seed, seconds, smoke):
    """Set-up, warm-up, the measured window; the end-to-end metrics."""
    before = calibration_ms()
    rngs = caller_rngs(workload, seed)
    try:
        setups = _setup(workload, 1 if smoke else SETUP_REPEATS)
        _slice(workload, rngs, rounds=WARMUP_ROUNDS)
        slices = [_slice(workload, rngs, seconds=seconds / SLICES)
                  for _ in range(SLICES)]
    finally:
        workload.close()
    after = calibration_ms()
    counts = {}
    for part in slices:
        for cls, values in part.pop("samples").items():
            counts[cls] = counts.get(cls, 0) + len(values)
    return {
        "attempted": sum(part["attempted"] for part in slices),
        "failed": sum(part["failed"] for part in slices),
        "calibration_ms": [before, after],
        "samples": counts,
        "slices": slices,
        "metrics": {
            "setup_s": median(setups),
            "throughput_ops_s": median(
                part["throughput_ops_s"] for part in slices),
            "latency_p50_ms": median(
                part["latency_p50_ms"] for part in slices),
            "cpu_ms_per_op": median(part["cpu_ms_per_op"] for part in slices),
            "peak_rss_mb": peak_rss_mb(),
        },
    }


# -- the traced run ------------------------------------------------------------------


def _class_medians(logs, name, bucket="values"):
    """``{class: median}`` of one sample name over every caller."""
    merged = {}
    for log in logs:
        for (sample_name, cls), values in getattr(log, bucket).items():
            if sample_name == name:
                merged.setdefault(cls, []).extend(values)
    return {cls: median(values) for cls, values in merged.items()}


def run_traced(workload, seed, rounds, warnings, trace_path, units):
    """Set-up, warm-up, then two phases of ``rounds`` rounds each; the
    per-layer metrics.  ``warnings`` is the installed
    :class:`WarningCounter`.

    The first phase is the untraced loop under a collector watch: tails,
    drift and the collector's own cost need the heap as it naturally is.
    The second sends every request through the front door plain, under a
    ``request`` span, stage by stage, and with the program's tracer off.
    There the collector runs only between rounds: which of the four passes
    trips the generation-2 threshold is decided by allocation counts, not
    by chance, so left on it would bill one pass for all four.  A layer's
    time is therefore its own, and the collector is a layer beside them
    (``runtime.gc_pause_ms_per_op``).  ``units`` maps each per-layer metric
    to its unit; times are calibrated like the end-to-end ones.
    """
    before = calibration_ms()
    rngs = caller_rngs(workload, seed)
    fifth = max(1, rounds // SLICES)
    try:
        _setup(workload, 1)
        _slice(workload, rngs, rounds=WARMUP_ROUNDS)
        warnings.count = 0
        with GcWatch() as collector:
            first = _slice(workload, rngs, rounds=fifth)
            middle = _slice(workload, rngs, rounds=rounds - 2 * fifth)
            last = _slice(workload, rngs, rounds=fifth)
        natural_warnings = warnings.count
        gc.disable()
        logs = run_callers(workload, rngs, SpanLog, rounds=rounds)
        derived = workload.finish_trace()
    finally:
        gc.enable()
        workload.close()
    after = calibration_ms()
    write_trace(logs, trace_path)

    requests = sum(log.requests for log in logs)
    plain = _class_medians(logs, "request.plain_ms")
    traced = _class_medians(logs, "request")
    quiet = _class_medians(logs, "request.quiet_ms")
    stage_sums = _class_medians(logs, "bench.stage_sum_ms")
    plain_total = sum(plain.values())

    # a layer the workload never crosses reads 0
    metrics = dict.fromkeys(units, 0.0)
    slow = slowness(logs[0].kernel)
    for name, unit in units.items():
        stage = _class_medians(logs, name, "stages")
        value = _class_medians(logs, name)
        if stage:
            metrics[name] = sum(stage.values()) / len(plain)
        elif value:
            metrics[name] = mean(value.values())
        if unit == "ms":
            metrics[name] /= slow
        elif unit == "MB/s":
            metrics[name] *= slow
    for log in logs:
        for name, total in log.counts.items():
            metrics[name] += total / requests
    if stage_sums:
        metrics["bench.stage_coverage"] = (
            sum(stage_sums.values()) / plain_total)
        if workload.overhead_metric:
            metrics[workload.overhead_metric] = (
                plain_total - sum(stage_sums.values())) / len(plain) / slow
    if quiet:
        metrics["obs.tracing_overhead_share"] = (
            1.0 - sum(quiet.values()) / plain_total)
    metrics["bench.trace_overhead_share"] = (
        sum(traced.values()) - plain_total) / plain_total
    metrics["bench.calibration_ms"] = before

    natural = (first, middle, last)
    slow = median(part["slowness"] for part in natural)
    attempted = sum(part["attempted"] for part in natural)
    latencies = {}
    for part in natural:
        for cls, values in part["samples"].items():
            latencies.setdefault(cls, []).extend(values)
    metrics["core.transform.fallback_warnings"] = natural_warnings / attempted
    metrics["runtime.gc_pause_ms_per_op"] = (
        collector.pause_seconds * 1000.0 / attempted / slow)
    metrics["runtime.gc_gen2_per_op"] = collector.gen2 / attempted
    metrics["request.latency_p90_ms"] = mean(
        [percentile(values, 0.9) for values in latencies.values()]
    ) * 1000.0 / slow
    metrics["request.latency_max_ms"] = max(
        max(values) for values in latencies.values()) * 1000.0 / slow
    metrics["request.throughput_drift"] = (
        last["throughput_ops_s"] / first["throughput_ops_s"])
    metrics.update(derived)
    return {
        "attempted": attempted + requests,
        "failed": (sum(part["failed"] for part in natural)
                   + sum(log.failed for log in logs)),
        "calibration_ms": [before, after],
        "samples": {cls: len(values) for cls, values in latencies.items()},
        "metrics": metrics,
    }


def write_trace(logs, path):
    """One JSON line per span: name, start, end, parent, request id."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for log in logs:
            for index, (name, start, end, parent, request, cls) \
                    in enumerate(log.spans):
                handle.write(json.dumps({
                    "caller": log.caller, "span": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "request": request, "class": cls,
                }) + "\n")
