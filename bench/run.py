"""entcheck benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root; the program is imported from ./src.  The
last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer ones.  Lines before
it describe the inputs and the outcome for a reader.  --smoke runs every
workload at a tiny size, checks the output schema against BENCHMARK.json
and the reference agreement, and plants one wrong verdict per workload to
show it is counted; it never judges timings.  See bench/README.md.
"""

import os

# One BLAS thread in this process and every child it starts; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import pools  # noqa: E402
import procs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("analyze-3q", "analyze-4q", "sweep", "cli")

END_TO_END = {
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-op p50 times of each layer, then work counts per op, then the trace's own figures.
LAYER_TIMES = {
    "fileio.parse_us": "us",
    "fileio.diagnostics_us": "us",
    "linalg.validate_us": "us",
    "reductions.reduce_us": "us",
    "reductions.revalidate_us": "us",
    "separability.pt_eig_us": "us",
    "separability.witness_self_us": "us",
    "fileio.report_us": "us",
    "states.construct_us": "us",
    "cli.sweep_self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_entcheck_ms": "ms",
    "cli.command_ms": "ms",
}
LAYER_COUNTS = {
    "fileio.parse_calls": "fileio.parse",
    "linalg.validate_calls": "linalg.validate",
    "separability.witness_calls": "separability.witness",
    "states.construct_calls": "states.construct",
}
PER_LAYER = {
    **LAYER_TIMES,
    **{name: "count" for name in LAYER_COUNTS},
    "reductions.matrices_per_op": "count",
    "ops.entangled_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.remainder_frac": "frac",
}

# Layers whose per-op self times add up to an op, by where the op runs.
IN_PROCESS_LAYERS = (
    "fileio.parse_us", "fileio.diagnostics_us", "linalg.validate_us", "reductions.reduce_us",
    "reductions.revalidate_us", "separability.pt_eig_us", "separability.witness_self_us",
    "fileio.report_us", "states.construct_us", "cli.sweep_self_ms",
)
PROCESS_LAYERS = ("cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_entcheck_ms", "cli.command_ms")

MIN_OPS = 2  # untraced, and traced when tracing, however short the run


class Sizes:
    """How much one run does; the smoke mode shrinks everything."""

    def __init__(self, tiny: bool):
        self.analyze_3q = 12 if tiny else 2048
        self.analyze_4q = 12 if tiny else 768
        self.sweep = 4 if tiny else 64
        self.cli = 6 if tiny else 48
        self.setup_probes = 1 if tiny else 7
        self.import_rounds = 1 if tiny else 3


# ---------------------------------------------------------------- workloads

class Analyze:
    """In-process analyze over a pool of distinct n-qubit states."""

    def __init__(self, name: str, n_qubits: int, seed: int, size: int):
        import inproc  # imports entcheck, importable only once main() has put src/ on the path

        self.name = name
        self.inproc = inproc
        self.pool = pools.analyze_pool(seed, n_qubits, size)
        ref = reference.Reference(n_qubits)
        self.expected = reference.expected(ref, [it[1] for it in self.pool.items], pools.TOL)

    def reference_summary(self) -> str:
        frac = statistics.fmean(e.entangled for e in self.expected)
        margin = min(e.margin() for e in self.expected)
        return f"reference entangled_frac {frac:.4f}; closest PT eigenvalue to -tol {margin:.3e}"

    def op(self, k: int):
        _, _, raw, fmt = self.pool.items[k]
        return self.inproc.analyze(raw, fmt)

    def traced(self, k: int, rec, op: int):
        _, _, raw, fmt = self.pool.items[k]
        text, code = self.inproc.analyze_traced(raw, fmt, rec, op)
        s = rec.open("cli.command", None, op)
        self.inproc.command(["analyze", "-", "--format", fmt], stdin=raw)
        rec.close(s)
        return text, code

    def check(self, k: int, text: str, code: int):
        problems = checks.check_analyze(self.expected[k], text, self.pool.items[k][3], code)
        return problems, int(code == 2), 1

    def describe(self, k: int) -> str:
        kind, _, raw, fmt = self.pool.items[k]
        return f"{kind} state, {fmt} report, input sha256 {sha256(raw)}"

    def plant(self, k: int, text: str, code: int):
        return _flip_first_verdict(text, self.pool.items[k][3]), code

    def probe_request(self) -> dict:
        _, _, raw, fmt = self.pool.items[0]
        return {"raw": raw.decode("utf-8"), "format": fmt}


class Sweep:
    """In-process `entcheck sweep` over seeded ranges of the werner and molecule paths."""

    name = "sweep"

    def __init__(self, seed: int, size: int):
        import inproc

        self.inproc = inproc
        self.pool = pools.sweep_pool(seed, size)
        ref = reference.Reference(3)
        self.expected = []
        for family, start, stop, steps in self.pool.items:
            params = np.linspace(start, stop, steps)
            if family == "werner":
                mats = [pools.werner(t) for t in params]
            else:
                mats = [pools.molecule(t, 0.0, 1.0 - t) for t in params]
            values = ref.min_pt_eigenvalues(np.array(mats)).min(axis=1)
            self.expected.append(checks.SweepExpected(family, params, values, pools.TOL))

    def reference_summary(self) -> str:
        rows = np.concatenate([e.values for e in self.expected])
        frac = float(np.mean(rows < -pools.TOL))
        margin = float(np.min(np.abs(rows + pools.TOL)))
        return f"reference entangled_frac {frac:.4f} of rows; closest PT eigenvalue to -tol {margin:.3e}"

    def op(self, k: int):
        return self.inproc.sweep(self.pool.items[k])

    def traced(self, k: int, rec, op: int):
        return self.inproc.sweep_traced(self.pool.items[k], rec, op)

    def check(self, k: int, text: str, code: int):
        problems = checks.check_sweep(self.expected[k], text, code)
        try:
            verdicts = [row["conclusion"] for row in json.loads(text)["rows"]]
        except (ValueError, KeyError, TypeError):
            return problems, 0, 0
        return problems, verdicts.count("ENTANGLED"), len(verdicts)

    def describe(self, k: int) -> str:
        return "sweep " + " ".join(self.inproc.sweep_argv(self.pool.items[k])[1:])

    def plant(self, k: int, text: str, code: int):
        doc = json.loads(text)
        row = doc["rows"][0]
        row["conclusion"] = "INCONCLUSIVE" if row["conclusion"] == "ENTANGLED" else "ENTANGLED"
        return json.dumps(doc, indent=1), code

    def probe_request(self) -> dict:
        return {"spec": list(self.pool.items[0])}


class Cli:
    """Real `entcheck analyze` and `entcheck reduce` processes on seeded files."""

    name = "cli"

    def __init__(self, seed: int, size: int, files: Path):
        self.labels = {n: reference.labels(n) for n in (3, 4)}
        self.pool = pools.cli_pool(seed, size, self.labels)
        refs = {n: reference.Reference(n) for n in (3, 4)}
        self.env = procs.child_env()
        self.argv, self.expected = [], []
        for k, (command, n, arg, mat, raw) in enumerate(self.pool.items):
            path = files / f"state-{k:03d}.json"
            path.write_bytes(raw)
            if command == "analyze":
                self.argv.append(["analyze", str(path), "--format", arg])
                self.expected.append(reference.expected(refs[n], [mat], pools.TOL)[0])
            else:
                self.argv.append(["reduce", str(path), "--label", arg])
                self.expected.append(refs[n].reductions(mat[None])[0, self.labels[n].index(arg)])

    def reference_summary(self) -> str:
        verdicts = [e for e in self.expected if isinstance(e, reference.Expected)]
        frac = statistics.fmean(e.entangled for e in verdicts)
        margin = min(e.margin() for e in verdicts)
        return (f"reference entangled_frac {frac:.4f} of analyze requests; "
                f"closest PT eigenvalue to -tol {margin:.3e}")

    def op(self, k: int):
        return procs.entcheck(self.argv[k], self.env)

    def traced(self, k: int, rec, op: int):
        import inproc

        s = rec.open("op", None, op)
        text, code = procs.entcheck(self.argv[k], self.env)
        rec.close(s)
        import_probes(rec, op, self.env)
        s = rec.open("cli.command", None, op)
        inproc.command(self.argv[k])
        rec.close(s)
        command, _, arg, _, raw = self.pool.items[k]
        if command == "analyze":
            inproc.analyze_traced(raw, arg, rec, op, root_name="inprocess")
        else:
            inproc.reduce_traced(raw, arg, rec, op)
        return text, code

    def check(self, k: int, text: str, code: int):
        command, _, arg, _, _ = self.pool.items[k]
        if command == "analyze":
            return checks.check_analyze(self.expected[k], text, arg, code), int(code == 2), 1
        return checks.check_reduce(self.expected[k], text, code), 0, 0

    def describe(self, k: int) -> str:
        return f"entcheck {' '.join(self.argv[k])}, input sha256 {sha256(self.pool.items[k][4])}"

    def plant(self, k: int, text: str, code: int):
        command, _, arg, _, _ = self.pool.items[k]
        if command != "analyze":
            raise ValueError("a verdict can only be planted in an analyze request")
        return _flip_first_verdict(text, arg), code

    def probe_request(self) -> dict:
        return {"argv": self.argv[0]}


def _flip_first_verdict(text: str, fmt: str) -> str:
    """The report with its first reduction's verdict inverted."""
    rows = text.split("\n")
    if fmt == "machine":
        for i, line in enumerate(rows):
            if '"separable": ' in line:
                rows[i] = line.replace("true", "false") if "true" in line else line.replace("false", "true")
                break
    else:
        for i, line in enumerate(rows):
            if checks.ROW.match(line):
                rows[i] = line[:-9] + "ENTANGLED" if line.endswith("separable") else line[:-9] + "separable"
                break
    return "\n".join(rows)


def sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def import_probes(rec, op: int, env) -> None:
    for name, code in procs.IMPORT_PROBES:
        s = rec.open(name, None, op)
        proc = procs.python(code, [], env)
        rec.close(s)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} probe failed: {proc.stderr.decode(errors='replace')}")


def make_workload(name: str, seed: int, sizes: Sizes, files: Path):
    if name == "analyze-3q":
        return Analyze(name, 3, seed, sizes.analyze_3q)
    if name == "analyze-4q":
        return Analyze(name, 4, seed, sizes.analyze_4q)
    if name == "sweep":
        return Sweep(seed, sizes.sweep)
    return Cli(seed, sizes.cli, files)


# ---------------------------------------------------------------- measuring

class Tally:
    """Checked outcomes of every op attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.entangled = 0
        self.judged = 0
        self.mismatches: list[str] = []

    def record(self, w, k: int, text: str, code: int) -> None:
        problems, entangled, judged = w.check(k, text, code)
        self.attempted += 1
        self.entangled += entangled
        self.judged += judged
        if problems:
            self.failed += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(f"{w.describe(k)}: " + "; ".join(problems[:4]))


def measure(w, seconds: float, trace: bool, probes: int, plant: int | None = None):
    """Closed loop, one caller: run ops over the pool in order for ``seconds``.

    Each op's output is checked after its clock stops.  With ``trace``,
    blocks of untraced and traced ops alternate, so the overhead is read
    against ops run at the same time.  ``probes`` set-up probes run at even
    intervals in between, so their median covers the whole window.
    """
    rec = spans.Recorder() if trace else None
    tally = Tally()
    latencies: list[float] = []
    setup: list[tuple[float, int]] = []
    block = seconds / 20.0
    start = perf_counter()
    deadline = start + seconds
    probe_at = [start + (j + 0.5) * seconds / probes for j in range(probes)]
    traced_block, block_end = False, start + block
    i = n_traced = 0
    while True:
        now = perf_counter()
        if probe_at and now >= probe_at[0]:
            probe_at.pop(0)
            setup.append(setup_probe(w))
            continue
        short_untraced = len(latencies) < MIN_OPS
        short_traced = trace and n_traced < MIN_OPS
        if now >= deadline:
            if not (short_untraced or short_traced):
                break
            traced_block = not short_untraced
        elif trace and now >= block_end:
            traced_block, block_end = not traced_block, now + block
        k = i % len(w.pool.items)
        if traced_block:
            text, code = w.traced(k, rec, i)
            n_traced += 1
        else:
            t0 = perf_counter()
            text, code = w.op(k)
            latencies.append(perf_counter() - t0)
        if plant == i:
            text, code = w.plant(k, text, code)
        tally.record(w, k, text, code)
        i += 1
    return latencies, setup, rec, tally


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(latencies: list[float], setup: list[tuple[float, int]]) -> tuple[dict, list[str]]:
    times = [t for t, _ in setup]
    values = {
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(times),
        "peak_rss_mb": statistics.median(rss for _, rss in setup) / 1024.0,
    }
    lines = [
        f"latency ms over {len(latencies)} ops: p10 {percentile(latencies, 10) * 1e3:.4f}, "
        f"p50 {percentile(latencies, 50) * 1e3:.4f}, p90 {values['latency_p90_ms']:.4f}, "
        f"p99 {percentile(latencies, 99) * 1e3:.4f}, mean {statistics.fmean(latencies) * 1e3:.4f}; "
        f"{len(latencies) / sum(latencies):.2f} ops/s",
        f"setup_s over {len(times)} fresh interpreters: " + ", ".join(f"{t:.4f}" for t in times),
    ]
    return values, lines


def setup_probe(w) -> tuple[float, int]:
    """Spawn a fresh interpreter that runs the workload's first op.

    Returns the seconds from spawn until that op returned, and the
    interpreter's peak RSS in KiB after a few more ops.
    """
    payload = json.dumps(w.probe_request()).encode("utf-8")
    repeats = 0 if w.name == "cli" else 1 if w.name == "sweep" else 20
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), w.name, str(repeats)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          env=procs.child_env()) as proc:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            ready = proc.stdout.readline()
            t1 = perf_counter()
            rest = proc.stdout.read()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {w.name} failed with exit code {proc.returncode}")
    return t1 - t0, json.loads(rest)["maxrss_kb"]


def derive(a: dict, sweep_op: bool) -> dict[str, float]:
    """Layer figures of one op from its aggregated spans (name -> dur/self/n)."""
    def dur(name):
        return a[name]["dur"] if name in a else None

    v = {}
    simple = {
        "fileio.parse_us": "fileio.parse", "fileio.diagnostics_us": "fileio.diagnostics",
        "linalg.validate_us": "linalg.validate", "reductions.reduce_us": "reductions.reduce",
        "separability.pt_eig_us": "separability.pt_eig", "fileio.report_us": "fileio.report",
        "states.construct_us": "states.construct",
    }
    for metric, name in simple.items():
        if name in a:
            v[metric] = dur(name) * 1e6
    if "reductions.reduce_validated" in a:
        v["reductions.revalidate_us"] = (dur("reductions.reduce_validated") - dur("reductions.reduce")) * 1e6
        if "separability.witness" in a:
            v["separability.witness_self_us"] = (
                dur("separability.witness") - dur("reductions.reduce_validated") - dur("separability.pt_eig")
            ) * 1e6
    if sweep_op and "op" in a:
        v["cli.sweep_self_ms"] = a["op"]["self"] * 1e3
        v["cli.command_ms"] = dur("op") * 1e3
    if "cli.command" in a:
        v["cli.command_ms"] = dur("cli.command") * 1e3
    steps = [name for name, _ in procs.IMPORT_PROBES]
    if all(name in a for name in steps):
        v["cli.interpreter_ms"] = dur(steps[0]) * 1e3
        v["cli.import_numpy_ms"] = (dur(steps[1]) - dur(steps[0])) * 1e3
        v["cli.import_entcheck_ms"] = (dur(steps[2]) - dur(steps[1])) * 1e3
    return v


def per_layer(w, latencies: list[float], rec, tally: Tally, sizes: Sizes,
              out: Path) -> tuple[dict, list[str]]:
    if w.name != "cli":
        env = procs.child_env()
        for r in range(sizes.import_rounds):
            import_probes(rec, -1 - r, env)
    aggregated = rec.per_op()
    derived = {op: derive(a, w.name == "sweep") for op, a in aggregated.items() if op is not None}
    ops = [op for op in derived if op >= 0]
    values = {}
    for metric in LAYER_TIMES:
        seen = [d[metric] for d in derived.values() if metric in d]
        values[metric] = statistics.median(seen) if seen else 0.0
    for metric, name in LAYER_COUNTS.items():
        values[metric] = statistics.fmean(aggregated[op][name]["n"] if name in aggregated[op] else 0
                                          for op in ops)
    values["reductions.matrices_per_op"] = statistics.fmean(
        rec.counts[op]["reductions.matrices"] for op in ops)
    values["ops.entangled_frac"] = tally.entangled / tally.judged if tally.judged else 0.0
    untraced = statistics.median(latencies)
    traced = statistics.median(aggregated[op]["op"]["dur"] for op in ops)
    layers = PROCESS_LAYERS if w.name == "cli" else IN_PROCESS_LAYERS
    sums = [sum(derived[op].get(m, 0.0) * (1e-3 if m.endswith("_ms") else 1e-6) for m in layers)
            for op in ops]
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.remainder_frac"] = 1.0 - statistics.median(sums) / untraced
    rec.write(out)
    lines = [
        f"traced {len(ops)} ops, untraced {len(latencies)} ops; {len(rec.spans)} spans written to "
        f"{out.relative_to(ROOT)}",
        f"op p50: untraced {untraced * 1e3:.4f} ms, traced {traced * 1e3:.4f} ms; "
        f"layer self times sum to {statistics.median(sums) * 1e3:.4f} ms "
        f"(remainder {values['trace.remainder_frac']:+.4f} of the untraced op)",
    ]
    return values, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 plant: int | None = None) -> tuple[dict, list[str]]:
    sizes = Sizes(tiny)
    WORK.mkdir(exist_ok=True)
    files = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        w = make_workload(name, seed, sizes, files)
        lines = [
            f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}",
            f"pool: {len(w.pool.items)} inputs {json.dumps(w.pool.composition, sort_keys=True)}, "
            f"sha256 {w.pool.sha256}",
            w.reference_summary(),
        ]
        latencies, setup, rec, tally = measure(w, seconds, trace, 0 if trace else sizes.setup_probes, plant)
        lines.append(f"ops: {tally.attempted} attempted, {tally.failed} failed "
                     f"(failed_op_frac {tally.failed / tally.attempted:.6f})")
        lines += [f"mismatch: {m}" for m in tally.mismatches]
        if trace:
            out = WORK / f"spans-{name}-seed{seed}.jsonl"
            values, more = per_layer(w, latencies, rec, tally, sizes, out)
            units = PER_LAYER
        else:
            values, more = end_to_end(latencies, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(files, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    return result, lines + more


# ---------------------------------------------------------------- smoke mode

def check_schema(result: dict, trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        problems.append(f"metrics {got} != BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], float) or m["value"] != m["value"]:
            problems.append(f"{name} value {m['value']!r}")
    return problems


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(name, 1, 0.2, trace, tiny=True)
            problems = check_schema(result, trace)
            if not result["correct"]:
                problems.append(f"{result['failed']} ops disagree with the reference")
            failures += [f"{name} trace {int(trace)}: {p}" for p in problems]
        planted, _ = run_workload(name, 1, 0.2, False, tiny=True, plant=0)
        if planted["failed"] != 1 or planted["correct"]:
            failures.append(f"{name}: planted wrong verdict gave failed={planted['failed']}")
        print(f"smoke {name}: {'ok' if not failures else 'FAILED'}", flush=True)
    for f in failures:
        print(f"smoke failure: {f}")
    return 1 if failures else 0


# ---------------------------------------------------------------- entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "entcheck" / "cli.py").is_file():
        print(f"error: no entcheck sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
