"""Benchmark for sierpmat, run from the root of a checkout:

    python3 bench/run.py --workload symbolic-law --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's src/ and each module is timed
from outside, through its public functions. A run sets up (imports, inputs,
warm-up), repeats whole sweeps of the workload's fixed operation list until
--seconds have passed, then checks every output against the independent
routes in checks.py, outside the timed part.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
untraced sweeps, then traced ones, prints the per-layer metrics and writes
the spans to bench/out/. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; problems go to stderr.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def process_age() -> float:
    """Seconds since this process started, from the kernel's record of its
    start (10 ms resolution); falls back to the time since this file began
    to run."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0 <= age < 600:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T0


def import_library():
    package = SRC / "sierpmat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no sierpmat sources at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import sierpmat

    if Path(sierpmat.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported sierpmat from {sierpmat.__file__}, not {package}")
    return sierpmat


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} not found")
    with open(path) as fh:
        return json.load(fh)


class Phase:
    """Whole sweeps of one operation list, timed, with plain outputs."""

    def __init__(self, workload, ops, seconds: float, tracer=None, reference=None):
        self.sweep_s: list[float] = []
        self.op_s: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.first = reference
        deadline = time.perf_counter() + seconds
        while True:
            outputs = {}
            t0 = time.perf_counter()
            for label, fn in ops:
                a = time.perf_counter()
                try:
                    outputs[label] = fn() if tracer is None else tracer.run(label, fn)
                except Exception as exc:  # one failed operation must not end the run
                    outputs[label] = exc
                self.op_s.append(time.perf_counter() - a)
            self.sweep_s.append(time.perf_counter() - t0)
            plain = {}
            for label, out in outputs.items():
                if isinstance(out, Exception):
                    self.failed += 1
                    plain[label] = ("failed", repr(out))
                else:
                    plain[label] = workload.plain(label, out)
            del outputs
            if self.first is None:
                self.first = plain
            elif plain != self.first:
                bad = [k for k in plain if plain[k] != self.first.get(k)]
                self.problems.append(f"sweep {len(self.sweep_s)} differs from the first on {bad}")
            if time.perf_counter() >= deadline:
                break


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, args) -> tuple[list[Phase], dict, list[str]]:
    setup = process_age()
    phase = Phase(workload, workload.ops(), args.seconds)
    rss = peak_rss_mib(workload.uses_children)
    metrics = {
        "setup_s": setup,
        "sweep_s": median(phase.sweep_s),
        "op_p50_ms": median(phase.op_s) * 1000,
        "peak_rss_mib": rss,
    }
    return [phase], metrics, []


def per_layer(workload, args, pkg, wanted) -> tuple[list[Phase], dict, list[str]]:
    from tracing import Tracer

    cli = workload.uses_children
    share = args.seconds / (3 if cli else 2)
    phases = [Phase(workload, workload.ops(), share)]
    if cli:
        phases.append(Phase(workload, workload.ops(in_process=True), share, reference=phases[0].first))
    tracer = Tracer()
    tracer.install(pkg)
    try:
        traced = Phase(
            workload, workload.ops(in_process=True), share, tracer=tracer, reference=phases[0].first
        )
    finally:
        tracer.uninstall()
    phases.append(traced)
    sweeps = len(traced.sweep_s)
    untraced = median(phases[-2].sweep_s)

    extra = {"trace.overhead_s": median(traced.sweep_s) - untraced}
    if cli:
        wall = median(phases[0].sweep_s)
        extra["cli.invocation.wall_s"] = wall
        extra["cli.main.in_process_s"] = untraced
        extra["cli.startup_s"] = wall - untraced
        extra["cli.stdout_bytes"] = sum(len(out.encode()) for _, out in phases[0].first.values())
    totals = tracer.totals()
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in extra:
            value = extra[name]
        elif name.startswith("cli."):
            value = 0
        else:
            layer, field = name.rsplit(".", 1)
            row = totals.get(layer, {})
            if field == "nonzero_ratio":
                value = row.get("nonzero_products", 0) / row["entry_products"] if row.get("entry_products") else 0
            else:
                value = row.get(field, 0) / sweeps
                if field != "self_s" and value == int(value):
                    value = int(value)
        metrics[name] = value
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": args.seed, "sweeps": sweeps})
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return phases, metrics, workload.expected_counts(tracer, sweeps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    pkg = import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](pkg, args.seed)
    for _, fn in workload.ops():  # warm-up: one untimed sweep, part of set-up
        try:
            fn()
        except Exception:  # the timed sweeps count and report the failure
            pass

    if args.trace:
        wanted = spec["per_layer"]
        phases, values, problems = per_layer(workload, args, pkg, wanted)
    else:
        phases, values, problems = end_to_end(workload, args)
        wanted = spec["end_to_end"]

    for phase in phases:
        problems += phase.problems
    try:
        problems += workload.check(phases[0].first)
    except Exception as exc:  # a malformed output may break a checker
        problems.append(f"checker raised {exc!r}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(p.op_s) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
