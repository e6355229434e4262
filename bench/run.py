"""The wittcount benchmark: seeded verification workloads, timed end to end.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload carlitz-grid --seed 1 --seconds 20 --trace 0

A run is a closed loop of passes, one after another.  Each pass is a fresh
interpreter (so every in-process cache starts cold, as for a CLI call) that
imports wittcount from ``src/``, sets up the workload's inputs from the seed,
and checks every item by exact equality.  Passes repeat until ``--seconds``
have gone by (at least MIN_PASSES); the end-to-end metrics are medians over
passes.  With ``--trace 1`` the run makes one untraced and one traced pass
and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
also appends the result with its run metadata to FILE, and
``--compare A B`` compares two such files using the bounds in
BENCHMARK.json.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
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
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS_FILE = os.path.join(BENCH_DIR, "digests.json")
TRACE_DIR = os.path.join(BENCH_DIR, "out")

WORKLOAD_NAMES = ("enum-oracle", "carlitz-grid", "witt-normalize")
DEFAULT_SEED = 0  # the seed whose digests are stored in digests.json
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
TAIL_ITEMS = 10  # the tail percentile leaves at least this many items beyond it
# The machine's speed drifts by tens of percent over seconds (other tenants
# share the cores), so every pass times a fixed probe kernel every
# PROBE_EVERY_S of work and the end-to-end times are rescaled to the speed
# at which one probe takes REFERENCE_PROBE_S.  See bench/README.md.
PROBE_EVERY_S = 0.1
PROBE_STEPS = 3000
LOCAL_PROBES = 5  # an item's latency is rescaled by the probes nearest to it
SETUP_PROBES = 10
REFERENCE_PROBE_S = 2.5e-3

EXIT_OK, EXIT_INCORRECT, EXIT_ERROR = 0, 1, 2


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- one pass, in a fresh interpreter --

def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "wittcount", "__init__.py")):
        raise BenchError(f"no wittcount sources under {SRC}")


def import_wittcount():
    """Import wittcount from this checkout's src/, never from elsewhere."""
    require_sources()
    sys.path.insert(0, SRC)
    import wittcount

    if os.path.dirname(os.path.dirname(os.path.abspath(wittcount.__file__))) != SRC:
        raise BenchError(f"imported wittcount from {wittcount.__file__}, not {SRC}")
    return wittcount


class _ProbeCell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, other):
        return _ProbeCell(self.a + other.b, self.b ^ other.a)


def speed_probe():
    """Seconds for a fixed pure-Python kernel of small-object allocation and
    method calls.  Its time tracks the slowdowns other tenants cause to
    wittcount's own interpreter work more closely than arithmetic loops do."""
    started = time.perf_counter()
    cell = _ProbeCell(1, 2)
    for k in range(PROBE_STEPS):
        cell = cell.step(_ProbeCell(k, k + 1))
    return time.perf_counter() - started


def probe_mean(probes):
    """Probe seconds averaged over the body: each (time stamp, seconds)
    probe stands for half the time to its neighbours on either side."""
    stamps = [stamp for stamp, _ in probes]
    last = len(probes) - 1
    weights = [(stamps[min(i + 1, last)] - stamps[max(i - 1, 0)]) / 2 for i in range(last + 1)]
    if sum(weights) <= 0:
        return statistics.fmean(sec for _, sec in probes)
    return sum(w * sec for w, (_, sec) in zip(weights, probes)) / sum(weights)


def run_body(items, check, tracer=None):
    """Check every item, probing the machine's speed every PROBE_EVERY_S.

    Returns ([(start, end) per item], failed, digest hex,
    [(time stamp, probe seconds)]).
    """
    latencies = []
    probes = [(time.perf_counter(), speed_probe())]
    failed = 0
    digest = hashlib.sha256()

    def body():
        nonlocal failed
        clock = time.perf_counter
        last_probe = clock()
        for item in items:
            started = clock()
            try:
                ok, text = check(item)
            except Exception:  # an item that raises counts as failed; keep going
                traceback.print_exc(file=sys.stderr)
                ok, text = False, "raised"
            ended = clock()
            latencies.append((started, ended))
            failed += not ok
            digest.update(f"{text}|{int(ok)}\n".encode())
            if ended - last_probe >= PROBE_EVERY_S:
                probes.append((ended, speed_probe()))
                last_probe = clock()

    if tracer is None:
        body()
    else:
        with tracer:
            tracer.span(body)()
    probes.append((time.perf_counter(), speed_probe()))
    return latencies, failed, digest.hexdigest(), probes


def local_speeds(spans, probes):
    """Speed factor at each (start, end) span, from the LOCAL_PROBES probes
    whose time stamps are nearest to the span's middle."""
    stamps = [stamp for stamp, _ in probes]
    k = min(LOCAL_PROBES, len(probes))
    out = []
    for started, ended in spans:
        i = bisect.bisect_left(stamps, (started + ended) / 2)
        lo = max(0, min(i - k // 2, len(probes) - k))
        out.append(REFERENCE_PROBE_S / statistics.fmean(sec for _, sec in probes[lo:lo + k]))
    return out


def run_pass(workload, seed, traced):
    """Set up and run one pass in this interpreter; returns its record."""
    import_wittcount()
    import workloads

    items, check, tables_build_s = workloads.setup(workload, seed)
    setup_end = time.monotonic()
    setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
    cpu_start = _cpu_s()
    started = time.perf_counter()
    latencies, failed, digest, probes = run_body(items, check, tracer)
    probe_s = sum(sec for _, sec in probes)
    wall_s = time.perf_counter() - started - probe_s
    record = {
        "setup_end": setup_end,
        "setup_speed": REFERENCE_PROBE_S / statistics.fmean(setup_probes),
        "speed": REFERENCE_PROBE_S / probe_mean(probes),
        "wall_s": wall_s,
        "cpu_s": _cpu_s() - cpu_start - probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item_s": [ended - started for started, ended in latencies],
        "item_speed": local_speeds(latencies, probes),
        "attempted": len(items),
        "failed": failed,
        "digest": digest,
    }
    if traced:
        record["layers"] = layer_metrics(items, tracer, tables_build_s, seed)
        record["spans_file"] = write_spans(workload, seed, tracer)
    return record


def layer_metrics(items, tracer, tables_build_s, seed):
    """Per-layer metrics of a traced pass (all but trace.overhead_frac)."""
    import tracing
    import wittcount
    import workloads

    stats = tracer.counters()
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.calls"] = stats[name]["calls"]
        out[f"{name}.self_s"] = stats[name]["self_s"]
    out["polys.mul.pairs"] = stats["polys.mul"]["work"]
    out["polys.divmod.pairs"] = stats["polys.divmod"]["work"]
    out["witt.tables.build_s"] = tables_build_s
    info = wittcount.witt_tables.cache_info()
    lookups = info.hits + info.misses
    out["witt.tables.hit_ratio"] = info.hits / lookups if lookups else 0.0
    elements = sum(workloads.ring_elements(i) for i in items if i[0] == "ring")
    oracle_s = stats["counting.oracle_cyclic"]["total_s"]
    out["counting.elements"] = elements
    out["counting.elements_per_s"] = elements / oracle_s if oracle_s else 0.0
    pairs = sum(1 for i in items if i[0] == "pair")
    carlitz_s = stats["carlitz.compose_check"]["total_s"] + stats["carlitz.gcd_check"]["total_s"]
    out["carlitz.pairs_per_s"] = pairs / carlitz_s if carlitz_s else 0.0
    out["bench.driver.self_s"] = stats[tracing.DRIVER_SPAN]["self_s"]
    if tracing.leftover_wrappers():
        raise RuntimeError(f"wrappers left installed: {tracing.leftover_wrappers()}")
    out.update(tracing.field_op_ns(seed))
    out.update(tracing.poly_op_us(seed))
    return out


def write_spans(workload, seed, tracer):
    """Write the traced pass's spans and counters; returns the file path."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        json.dump({
            "counters": tracer.counters(),
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, round(s - base, 9), round(e - base, 9), p] for n, s, e, p in tracer.spans],
        }, fh)
    return os.path.relpath(path, ROOT)


def pass_main(args):
    try:
        record = run_pass(args.workload, args.seed, args.trace == 1)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(json.dumps(record))
    return EXIT_OK


# -- the launcher --

def launch_pass(workload, seed, traced):
    """Run one pass in a fresh interpreter and wait for it to end."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same hashing, same work, every pass
    # Cache bytecode in the checkout, as an installed package does: compiling
    # from source on every pass would add to setup_s and peak_rss_mb.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.abspath(__file__), "--pass", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass ran over {PASS_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes, so this spans the
    # interpreter start, the import and the workload set-up.
    record["setup_s"] = record.pop("setup_end") - launched
    return record


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def tail_level(n_items):
    """The highest whole percentile with at least TAIL_ITEMS items beyond it."""
    return max(50, math.floor(100 * (1 - TAIL_ITEMS / n_items)))


def end_to_end(passes):
    """End-to-end metrics from untraced passes over the same items.

    Times are rescaled by the probed speed (the reference probe time over
    the measured one, so 1.0 at reference speed): pass times by the pass's
    ``speed``, item latencies by the probes nearest to each item.
    """
    n_items = len(passes[0]["item_s"])
    per_item = [statistics.median(col) for col in
                zip(*([t * v for t, v in zip(p["item_s"], p["item_speed"])] for p in passes))]
    scaled = lambda key, speed="speed": statistics.median(p[key] * p[speed] for p in passes)
    return {
        "wall_s": scaled("wall_s"),
        "setup_s": scaled("setup_s", "setup_speed"),
        "item_ms_p50": percentile(per_item, 50) * 1e3,
        "item_ms_tail": percentile(per_item, tail_level(n_items)) * 1e3,
        "cpu_s": scaled("cpu_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def stored_digest(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS_FILE):
        return None
    with open(DIGESTS_FILE) as fh:
        return json.load(fh).get(workload)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_meta(workload, seed, trace, load_at_start):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": load_at_start,
    }


def run_workload(workload, seed, seconds, trace, spec):
    """One run; returns (result line dict, meta dict, human-readable lines)."""
    meta = run_meta(workload, seed, trace, list(os.getloadavg()))
    expected = stored_digest(workload, seed)
    lines = []
    if trace:
        plain = launch_pass(workload, seed, traced=False)
        traced = launch_pass(workload, seed, traced=True)
        passes = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = ((traced["wall_s"] * traced["speed"])
                                          / (plain["wall_s"] * plain["speed"]) - 1)
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        passes = []
        started = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
            passes.append(launch_pass(workload, seed, traced=False))
        metrics = end_to_end(passes)
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    digest = passes[0]["digest"]
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} items failed their exact check")
    if len(digests) > 1:
        problems.append("passes over the same items produced different digests")
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} differs from the stored {expected}")
    n_items = passes[0]["attempted"]
    speed = statistics.median(p["speed"] for p in passes)
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    meta.update(items_per_pass=n_items, passes=len(passes), digest=digest,
                speed=speed, raw_wall_s=raw_wall)

    lines.append(f"wittcount benchmark: workload {workload}, seed {seed}, "
                 f"{len(passes)} passes of {n_items} items" + (", traced" if trace else ""))
    for name, unit in wanted:
        note = ""
        if name == "item_ms_tail":
            note = f"  (p{tail_level(n_items)} of {n_items} items)"
        lines.append(f"  {name:<34} {metrics[name]:>14.6g} {unit}{note}")
    lines.append(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} items)")
    if trace:
        lines += layer_shares(metrics, traced["wall_s"])
        lines.append(f"  spans: {traced['spans_file']}")
    else:
        lines.append(f"  times above are at reference speed; this machine ran at {speed:.3f}x "
                     f"of it (unscaled median wall {raw_wall:.6g} s)")
    lines.append(f"  digest {digest}: " + ("matches the stored digest" if expected == digest
                                           else "no stored digest for this seed"
                                           if expected is None else "MISMATCH"))
    for problem in problems:
        lines.append(f"  FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }
    return result, meta, lines


def layer_shares(metrics, traced_wall):
    """Self time of each layer as a share of the traced body."""
    layers = {}
    for key, value in metrics.items():
        if key.endswith(".self_s"):
            layer = key.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    return ["  self time share of the traced body (%.3f s): " % traced_wall
            + ", ".join(f"{layer} {value / traced_wall:.1%}" for layer, value in ranked)]


# -- compare mode --

def _load_results(path):
    rows = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["meta"]["trace"]:
                    rows.setdefault(rec["meta"]["workload"], []).append(rec)
    return rows


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, bound, better, paired):
    """improved / unchanged / worse / unresolved for one metric and workload.

    Improved needs the new side to win 9 in 10 pairs and to move the median
    by more than the base side's quartile spread; worse is a median worse
    by more than the bound; a base spread wider than the bound is
    unresolved unless every new run beats every base run.
    """
    sign = 1 if better == "lower" else -1  # sign * (new - base) > 0 means worse
    q1, med_base, q3 = _quartiles(base)
    med_new = statistics.median(new)
    wins = sum(sign * (b - a) < 0 for a, b in paired)
    if wins >= 0.9 * len(paired) and sign * (med_base - med_new) > q3 - q1:
        return "improved"
    if (q3 - q1) / med_base > bound and not all(sign * (b - a) < 0 for a in base for b in new):
        return "unresolved"
    if sign * (med_new - med_base) / med_base > bound:
        return "worse"
    return "unchanged"


def compare(path_a, path_b, spec):
    rows_a, rows_b = _load_results(path_a), _load_results(path_b)
    print(f"compare: A = {path_a}, B = {path_b}; ratios are B/A with A's median as base")
    for metric in spec["end_to_end"]:
        name, unit, bound = metric["name"], metric["unit"], metric["bound"]
        print(f"\n{name} ({unit}, {metric['better']} is better, bound {bound:.0%})")
        print(f"  {'workload':<15} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
              f"{'B/A':>7}  verdict")
        for workload in sorted(set(rows_a) & set(rows_b)):
            recs_a, recs_b = rows_a[workload], rows_b[workload]
            a = [r["result"]["metrics"][name]["value"] for r in recs_a]
            b = [r["result"]["metrics"][name]["value"] for r in recs_b]
            seeds_a = [r["meta"]["seed"] for r in recs_a]
            seeds_b = [r["meta"]["seed"] for r in recs_b]
            if sorted(seeds_a) == sorted(seeds_b):
                by_seed = dict(zip(seeds_b, b))
                paired = [(x, by_seed[s]) for x, s in zip(a, seeds_a)]
            else:
                paired = list(zip(a, b))
            qa, qb = _quartiles(a), _quartiles(b)
            cell = lambda q: (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] "
                              f"({(q[2] - q[0]) / q[1]:.1%})")
            print(f"  {workload:<15} {cell(qa):<34} {cell(qb):<34} {qb[1] / qa[1]:>7.3f}  "
                  f"{verdict(a, b, bound, metric['better'], paired)} "
                  f"(base {qa[1]:.4g} {unit}, n={len(a)}/{len(b)})")
    return EXIT_OK


# -- entry point --

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to repeat passes (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result with its metadata to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files using the bounds in BENCHMARK.json")
    parser.add_argument("--pass", dest="single_pass", action="store_true",
                        help=argparse.SUPPRESS)  # one pass, run by the launcher
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.single_pass:
        return pass_main(args)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        require_sources()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        code = EXIT_OK
        for workload in names:
            result, meta, lines = run_workload(workload, args.seed, seconds, args.trace, spec)
            print("\n".join(lines))
            print("meta " + json.dumps(meta))
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
            print(json.dumps(result), flush=True)
            if not result["correct"]:
                code = EXIT_INCORRECT
        return code
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
