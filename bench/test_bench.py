"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They check the benchmark itself (seeded generators, the metric contract,
the tracer's clean-up, repeatable counts, compare verdicts), not wittcount.
"""

import json
import os
import subprocess
import sys

import pytest

import run

run.import_wittcount()

import tracing  # noqa: E402  (needs wittcount on sys.path)
import workloads  # noqa: E402
from wittcount.polys import Polynomial  # noqa: E402
from wittcount.witt import WittVector  # noqa: E402
import wittcount as wc  # noqa: E402

SPEC = run.load_spec()


def _describe(workload, seed):
    items, _, _ = workloads.setup(workload, seed)
    return [str(item) for item in items]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_generator_is_deterministic_and_seeded(workload):
    first = _describe(workload, 1)
    assert first == _describe(workload, 1)
    other = _describe(workload, 2)
    assert other != first
    assert len(other) == len(first)  # the seed changes contents, not the item count


def _run_cli(*argv):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"), *argv],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported(trace, section):
    human, result = _run_cli("--workload", "enum-oracle", "--seed", "3", "--seconds", "0",
                             "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = [(m["name"], m["unit"]) for m in SPEC[section]]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == wanted
    printed = {line.split()[0] for line in human if line.startswith("  ")}
    assert {name for name, _ in wanted} <= printed
    if trace == 0:
        assert "failed_frac" in printed
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _attribute_snapshot():
    snap = {}
    for module in tracing._wittcount_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    snap[(module.__name__, key, attr)] = member
    return snap


def test_tracer_wrappers_are_removed_afterwards():
    before = _attribute_snapshot()
    fld = wc.field(2, 2)
    a, b = Polynomial(fld, (1, 2, 3)), Polynomial(fld, (3, 1))
    x = WittVector(2, (fld.elem(1), fld.elem(2)))
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.leftover_wrappers()
        a * b
        3 * a  # __rmul__, an alias of __mul__
        divmod(a, b)
        x.add(x)
        wc.v_n(wc.CountParams(2, 1, 1, 3, 1))
    stats = tracer.counters()
    assert stats["polys.mul"]["calls"] >= 2 and stats["polys.mul"]["work"] >= 6
    assert stats["polys.divmod"]["work"] == 2 * 2
    assert stats["witt.add"]["calls"] == 1 and stats["counting.closed_form"]["calls"] == 1
    assert tracing.leftover_wrappers() == []
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    a * b
    assert tracer.counters()["polys.mul"] == stats["polys.mul"]


def _traced_counts(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--pass",
                           "--workload", workload, "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items() if k.endswith((".calls", ".pairs", ".elements"))}


def test_traced_counts_repeat_exactly():
    first = _traced_counts("enum-oracle", 4)
    assert first["counting.oracle_cyclic.calls"] > 0 and first["counting.elements"] > 0
    assert first == _traced_counts("enum-oracle", 4)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    paired = lambda new: list(zip(base, new))
    faster = [v * 0.8 for v in base]
    slower = [v * 1.2 for v in base]
    same = list(reversed(base))
    assert run.verdict(base, faster, 0.1, "lower", paired(faster)) == "improved"
    assert run.verdict(base, slower, 0.1, "lower", paired(slower)) == "worse"
    assert run.verdict(base, same, 0.1, "lower", paired(same)) == "unchanged"
    assert run.verdict(base, slower, 0.1, "higher", paired(slower)) == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(noisy, base, 0.1, "lower", list(zip(noisy, base))) == "unresolved"


def test_tail_level_leaves_ten_items_beyond():
    for n in (34, 880, 1800):
        level = run.tail_level(n)
        assert n - run.percentile(range(n), level) - 1 >= run.TAIL_ITEMS
