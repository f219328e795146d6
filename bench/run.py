"""spinhalg benchmark harness.

    python3 bench/run.py --workload steenrod-cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; the package is imported from ../src relative to this
file and never installed.  Workloads (see workloads.py for the inputs):

  steenrod-cli  subprocess runs of `spinhalg steenrod verify-bspinh|wu|sq`
  exact-lib     library calls on exact rationals in one long-lived process
  cli-mix       short subprocess runs of all eleven subcommands

Every workload is a closed loop with one client: one operation at a time,
at most one child process alive.  With --trace 0 the run times operations
for --seconds (whole rounds, at least enough operations for a p90 with
ten samples beyond it) and prints the end-to-end metrics.  With --trace 1
it runs the first rounds three times: the untraced workload itself (per
kind medians), the same operations in process without spans, and in
process with spans around the public functions of every module; it
prints the per-layer metrics and writes the spans to .bench_out/.

Outputs are checked after the timed window.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is a JSON record of the environment, input shares and output
digests, with the digest compared against the one recorded for the same
workload and seed in digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from math import prod
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import measure
import oracles
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# digests["all"] per workload and seed, recorded at the commit that added
# the benchmark; the CLI contract is byte-identical output across commits
REFERENCE_DIGESTS = Path(__file__).resolve().parent / "digests.json"
LAYERS = ("cli", "clifford", "modules", "series", "steenrod", "ktheory")

SETUP_REPS = 5          # set-ups per run; setup_s is their median
ROUNDS = 16             # rounds generated per run; the timed loop cycles them
DIGEST_ROUNDS = 2       # leading rounds whose outputs are digested
MIN_OPS = measure.min_samples(90)
OP_TIMEOUT_S = 60.0
HARD_STOP_S = 110.0     # no round starts after this, so a run ends well inside 180 s
PROBE_REPS = 5


@dataclass
class Record:
    op: wl.Op
    latency: float
    out: str
    err: str = ""
    rc: int = 0
    timed_out: bool = False
    result: object = None


# --------------------------------------------------------------------------
# executing operations
# --------------------------------------------------------------------------

def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_subprocess(op: wl.Op, env: dict) -> Record:
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "spinhalg.cli", *op.argv], env=env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Record(op, perf_counter() - start, "", "", -1, True)
    return Record(op, perf_counter() - start, proc.stdout, proc.stderr, proc.returncode)


def clear_caches(mods):
    """Empty the package's memo caches so an in-process run starts as cold
    as a fresh interpreter."""
    for name in LAYERS:
        for value in list(vars(getattr(mods, name)).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_cli_in_process(op: wl.Op, mods) -> Record:
    clear_caches(mods)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = mods.cli.main(list(op.argv))
        except Exception:
            traceback.print_exc()
            rc = 1
    return Record(op, perf_counter() - start, out.getvalue(), err.getvalue(), rc)


def prepare(op: wl.Op, mods):
    """Build an operation's shared fixtures (part of set-up, not timed)."""
    a = op.args
    if op.kind.startswith("clifford"):
        sig = mods.clifford.Signature(a["r"], a["n"] - a["r"])
        op.fixture = (mods.clifford.CliffordElement(sig, a["a"]),
                      mods.clifford.CliffordElement(sig, a["b"]))
    elif op.kind == "dual-group":
        op.fixture = mods.ktheory.FGAbelianGroup.from_summands(0, a["orders"])


def call_library(op: wl.Op, mods):
    a, series = op.args, mods.series
    if op.kind.startswith("clifford"):
        x, y = op.fixture
        return x * y
    if op.kind == "graded-tensor":
        return mods.clifford.graded_tensor_check(a["m"], a["n"])
    if op.kind == "hp-residue":
        return series.hp_pairing_matrix(a["k"], a["k"], "residue")
    if op.kind == "hp-chebyshev":
        return series.hp_pairing_matrix(a["k"], a["k"], "chebyshev")
    if op.kind == "ahat-recip":
        return series.a_hat_series(a["trunc"]).reciprocal()
    if op.kind == "ahat-pow":
        return series.a_hat_series(a["trunc"]) ** a["e"]
    if op.kind == "dual-group":
        return mods.ktheory.dual_group(op.fixture)
    raise ValueError(op.kind)


def run_library(op: wl.Op, mods) -> Record:
    start = perf_counter()
    try:
        result = call_library(op, mods)
    except Exception:
        return Record(op, perf_counter() - start, "", traceback.format_exc(), 1)
    latency = perf_counter() - start
    return Record(op, latency, "", rc=0, timed_out=latency > OP_TIMEOUT_S, result=result)


def render(op: wl.Op, result) -> str:
    """Canonical text of a library result, for digests and comparisons."""
    if op.kind in ("ahat-recip", "ahat-pow"):
        return " ".join(map(str, result.coeffs))
    if op.kind == "dual-group":
        return f"{result.group} {result.verified} {result.torsion_candidates} {result.torsion_valid}"
    return repr(result)


# --------------------------------------------------------------------------
# output checks (after the timed window)
# --------------------------------------------------------------------------

def check_library(op: wl.Op, result, ahat) -> str | None:
    a = op.args
    if op.kind.startswith("clifford"):
        rng = random.Random(a["sample_seed"])
        if a["n"] <= 5:
            sample = range(1 << a["n"])
        else:
            sample = rng.sample(sorted(result.terms), min(6, len(result.terms)))
            sample += [rng.randrange(1 << a["n"]) for _ in range(2)]
        return oracles.check_clifford_product(a["a"], a["b"], a["r"], result.terms, sample)
    if op.kind == "graded-tensor":
        ok = result.passed and result.dimension == 2 ** (a["m"] + a["n"])
        return None if ok else f"graded tensor check failed: {result}"
    if op.kind in ("hp-residue", "hp-chebyshev"):
        return oracles.check_pairing_matrix(result, a["k"], a["k"])
    if op.kind in ("ahat-recip", "ahat-pow"):
        expected = ahat.power(a.get("e", -1), a["trunc"])
        return None if list(result.coeffs) == expected else "differs from the sympy A-hat series"
    if op.kind == "dual-group":
        factors = oracles.invariant_factors(a["orders"])
        order = prod(factors)
        ok = (result.verified and result.group == op.fixture
              and result.group.torsion == factors and result.group.rank == 0
              and result.torsion_candidates == order * order and result.torsion_valid == order)
        return None if ok else f"double dual of {op.fixture} not verified: {result}"
    raise ValueError(op.kind)


def check_all(records: list[Record], library: bool) -> list[str]:
    """Failure reasons, one per failed record, in op order."""
    ahat = None
    if library:
        truncs = [r.op.args["trunc"] for r in records if "trunc" in r.op.args]
        ahat = oracles.AHatOracle(max(truncs)) if truncs else None
    failures = []
    for i, rec in enumerate(records):
        check = None
        if rec.rc == 0 and not rec.timed_out:
            try:
                if library:
                    check = check_library(rec.op, rec.result, ahat)
                else:
                    check = oracles.CLI_CHECKS[rec.op.kind](rec.op, rec.out.rstrip("\n"))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                check = f"unreadable output: {exc!r}"
        reason = measure.failure_reason(rec.rc, rec.err, rec.timed_out, check)
        if reason:
            failures.append(f"op {i} {describe(rec.op)}: {reason}")
    return failures


def describe(op: wl.Op) -> str:
    if op.argv:
        return " ".join(op.argv)
    return f"{op.kind} " + " ".join(f"{k}={v}" for k, v in op.args.items() if k not in ("a", "b"))


def output_text(rec: Record) -> str:
    return render(rec.op, rec.result) if rec.result is not None else rec.out


def digests(records: list[Record]) -> dict:
    by_kind: dict[str, list[bytes]] = {}
    for rec in records:
        by_kind.setdefault(rec.op.kind, []).append(output_text(rec).encode())
    return {"all": measure.digest(output_text(r).encode() for r in records),
            **{k: measure.digest(v) for k, v in sorted(by_kind.items())}}


# --------------------------------------------------------------------------
# workloads: set-up and the closed loop
# --------------------------------------------------------------------------

def import_package():
    """Import spinhalg afresh (dropping earlier copies) and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "spinhalg" or n.startswith("spinhalg.")]:
        del sys.modules[name]
    importlib.import_module("spinhalg")
    return SimpleNamespace(**{m: importlib.import_module(f"spinhalg.{m}") for m in LAYERS})


def setup(workload: str, seed: int, env: dict):
    """Generate every round, build fixtures and warm up; returns (rounds, mods)."""
    mods = None
    if workload == "exact-lib":
        mods = import_package()
        rounds = wl.exact_rounds(seed, ROUNDS)
        for ops in rounds:
            for op in ops:
                prepare(op, mods)
        warm = wl.exact_round(wl.round_rng(seed, "warm-up", 0), wl.Cycles(random.Random(seed)), 0)
        for op in warm:
            if op.kind in ("clifford-sparse", "ahat-recip", "ahat-pow"):
                prepare(op, mods)
                call_library(op, mods)
    else:
        if workload == "steenrod-cli":
            rounds = wl.steenrod_rounds(seed, ROUNDS, oracle_rounds=DIGEST_ROUNDS)
        else:
            rounds = wl.cli_mix_rounds(seed, ROUNDS)
        run_subprocess(wl.Op("warm-up", {}, argv=["classify", "--n", "3"]), env)
    return rounds, mods


def closed_loop(rounds, execute, seconds: float, min_ops: int = MIN_OPS, min_rounds: int = 1):
    """Run whole rounds, one operation at a time, until the window is over
    and at least min_ops operations and min_rounds rounds are done."""
    records: list[Record] = []
    start = perf_counter()
    r = 0
    while True:
        now = perf_counter() - start
        enough = now >= seconds and len(records) >= min_ops and r >= min_rounds
        if enough or (now >= HARD_STOP_S and r > 0):
            break
        for op in rounds[r % len(rounds)]:
            records.append(execute(op))
        r += 1
    return records, perf_counter() - start, r


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def probe(argv: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBE_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True)
        times.append(perf_counter() - start)
    return median(times)


def environment(env: dict) -> dict:
    start = probe(["-c", "pass"], env)
    imported = probe(["-c", "import spinhalg.cli"], env)
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": source.hexdigest(), "nproc": os.cpu_count(), "cpu": cpu,
            "interp.start_s": start, "cli.import_s": imported - start}


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, env: dict):
    setups = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        rounds, mods = setup(workload, seed, env)
        setups.append(perf_counter() - start)
    library = mods is not None
    if library:
        records, elapsed, n_rounds = closed_loop(rounds, lambda op: run_library(op, mods), seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        records, elapsed, n_rounds = closed_loop(rounds, lambda op: run_subprocess(op, env), seconds)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    failures = check_all(records, library)
    latencies = [r.latency for r in records]
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": ((len(records) - len(failures)) / elapsed, "1/s"),
        "op_p50_s": (median(latencies), "s"),
        "op_p90_s": (measure.tail_percentile(latencies, 90), "s"),
        "peak_rss_mib": (peak / 1024, "MiB"),
    }
    extra = {"error_ratio": (measure.error_ratio(len(records), len(failures)), "ratio"),
             "samples": (len(records), "count"), "rounds": (n_rounds, "count"),
             "window_s": (elapsed, "s")}
    per_kind = {}
    for rec in records:
        per_kind.setdefault(rec.op.kind, []).append(rec.latency)
    record = {"per_kind_p50_s": {k: median(v) for k, v in sorted(per_kind.items())},
              "setup_s_all": setups, **{name: v for name, (v, _) in extra.items()},
              "digests": digests(records[:DIGEST_ROUNDS * len(rounds[0])]),
              "input_shares": wl.input_shares(workload, [r.op for r in records])}
    return metrics, extra, len(records), failures, record


def install_spans(tracer: spans.Tracer, m):
    w = tracer.wrap
    st, se = m.steenrod, m.series
    w(st.StiefelWhitneyRing, "monomial_basis", "steenrod.monomial_basis", _count_monomials)
    w(st.GradedIdeal, "slice", "steenrod.GradedIdeal.slice", _count_slice, per_result=True)
    for name in ("wu_classes", "bso_quotient_model", "sq1_homology_series",
                 "ideal_membership", "parse_polynomial", "sq"):
        w(st, name, f"steenrod.{name}")
    w(st.F2Polynomial, "__mul__", "steenrod.F2Polynomial.__mul__")
    w(m.clifford.CliffordElement, "__mul__", "clifford.CliffordElement.__mul__", _count_blades)
    for name in ("graded_tensor_check", "classify"):
        w(m.clifford, name, f"clifford.{name}")
    w(se.GradedSeries, "__mul__", "series.GradedSeries.__mul__", _count_series_mul)
    w(se.GradedSeries, "reciprocal", "series.GradedSeries.reciprocal", _count_reciprocal)
    w(se.GradedSeries, "__pow__", "series.GradedSeries.__pow__", _count_trunc)
    for name in ("hp_pairing_residue", "chebyshev_theta", "hp_pairing_matrix", "genus_4manifold"):
        w(se, name, f"series.{name}")
    w(m.ktheory, "dual_group", "ktheory.dual_group", _count_dual)
    for name in ("k_coefficients_extension", "zk_index"):
        w(m.ktheory, name, f"ktheory.{name}")
    for name in ("fundamental_dimension", "ngroup", "ngroup_bigraded"):
        w(m.modules, name, f"modules.{name}")
    w(m.cli, "main", "cli.main")
    w(m.cli, "build_parser", "cli.build_parser")


# work counters that the _count_* functions below accumulate
COUNTERS = ("steenrod.monomial_basis.monomials", "steenrod.slice.width_max",
            "steenrod.slice.rank_sum", "clifford.blade_pairs", "series.coeff_mults",
            "series.trunc_max", "ktheory.dual_group.candidates")


def _count_monomials(c, args, result):
    c["steenrod.monomial_basis.monomials"] += len(result)


def _count_slice(c, args, sl):
    c["steenrod.slice.width_max"] = max(c["steenrod.slice.width_max"], sl.width)
    c["steenrod.slice.rank_sum"] += len(sl.rows)
    c["steenrod.slice.rows_generated"] += len(sl.products)


def _count_blades(c, args, result):
    a, b = args
    if hasattr(b, "terms"):
        c["clifford.blade_pairs"] += len(a.terms) * len(b.terms)


def _count_trunc(c, args, result):
    c["series.trunc_max"] = max(c["series.trunc_max"], args[0].trunc)


def _count_series_mul(c, args, result):
    _count_trunc(c, args, result)
    a, b = args
    if not hasattr(b, "coeffs"):
        return
    nonzero, prefix = 0, []
    for x in b.coeffs:
        nonzero += x != 0
        prefix.append(nonzero)
    top = a.trunc
    c["series.coeff_mults"] += sum(prefix[top - i] for i, x in enumerate(a.coeffs) if x)


def _count_reciprocal(c, args, result):
    _count_trunc(c, args, result)
    nonzero = 0
    for x in args[0].coeffs[1:]:
        nonzero += x != 0
        c["series.coeff_mults"] += nonzero


def _count_dual(c, args, report):
    c["ktheory.dual_group.candidates"] += report.torsion_candidates
    c["ktheory.dual_group.valid"] += report.torsion_valid


def traced(workload: str, seed: int, seconds: float, env: dict):
    rounds, mods = setup(workload, seed, env)
    library = mods is not None
    if library:
        first, _, n_rounds = closed_loop(rounds, lambda op: run_library(op, mods), seconds / 4,
                                         min_ops=0, min_rounds=DIGEST_ROUNDS)
    else:
        first, _, n_rounds = closed_loop(rounds, lambda op: run_subprocess(op, env), seconds / 4,
                                         min_ops=0, min_rounds=DIGEST_ROUNDS)
        mods = import_package()
    ops = [op for r in range(n_rounds) for op in rounds[r % len(rounds)]]
    execute = (lambda op: run_library(op, mods)) if library else \
        (lambda op: run_cli_in_process(op, mods))

    start = perf_counter()
    plain = [execute(op) for op in ops]
    plain_wall = perf_counter() - start

    tracer = spans.Tracer()
    install_spans(tracer, mods)
    start = perf_counter()
    traced_records = []
    for i, op in enumerate(ops):
        tracer.begin(i)
        traced_records.append(execute(op))
        tracer.end()
    wall = perf_counter() - start
    tracer.restore()

    failures = check_all(first, library)
    for i, (a, b, c) in enumerate(zip(first, plain, traced_records)):
        texts = {output_text(a), output_text(b), output_text(c)}
        if len(texts) != 1 or b.rc or c.rc:
            failures.append(f"op {i} {a.op.kind}: in-process or traced output differs")

    self_s, calls = spans.self_times(tracer.spans)
    counts = tracer.counts
    per_kind = {}
    for rec in first:
        per_kind.setdefault(rec.op.kind, []).append(rec.latency)
    extra = {
        "steenrod.slice.useful_row_ratio":
            counts["steenrod.slice.rank_sum"] / (counts["steenrod.slice.rows_generated"] or 1),
        "ktheory.dual_group.valid_ratio":
            counts["ktheory.dual_group.valid"] / (counts["ktheory.dual_group.candidates"] or 1),
        "clifford.integral_coeff_share":
            wl.integral_share([op for op in ops if op.kind.startswith("clifford")]) if library else 0.0,
        "cli.stdout_bytes": 0 if library else sum(len(r.out.encode()) for r in traced_records),
        "trace.overhead_ratio": wall / plain_wall,
        "trace.wall_s": wall,
        "trace.harness_s": wall - sum(self_s.values()),
        **{f"opkind.{k}.p50_s": median(v) for k, v in per_kind.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload}-{seed}.json")
    record = {"traced_ops": len(ops), "untraced_in_process_wall_s": plain_wall,
              "digests": digests(first[:DIGEST_ROUNDS * len(rounds[0])]),
              "input_shares": wl.input_shares(workload, ops)}
    values = (self_s, calls, counts, extra)
    return values, len(first) + len(plain) + len(traced_records), failures, record


def per_layer_metrics(spec, self_s, calls, counts, extra, env_info):
    values = {**extra, "interp.start_s": env_info["interp.start_s"],
              "cli.import_s": env_info["cli.import_s"]}
    metrics = {}
    for entry in spec:
        name = entry["name"]
        base, _, leaf = name.rpartition(".")
        if name in values:
            value = values[name]
        elif name in COUNTERS:
            value = counts.get(name, 0)
        elif leaf == "calls":
            value = calls.get(base, 0)
        elif leaf == "self_s":
            value = self_s.get(base, 0.0)
        elif name.startswith("opkind."):
            value = 0.0  # the kind does not occur in this workload
        else:
            raise KeyError(f"no measurement for per-layer metric {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values, attempted, failures, record = traced(workload, seed, seconds, env)
        env_info = environment(env)
        metrics = per_layer_metrics(spec["per_layer"], *values, env_info)
        shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    else:
        e2e, extra, attempted, failures, record = end_to_end(workload, seed, seconds, env)
        env_info = environment(env)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
        shown = {**e2e, **extra}
    for name, (v, u) in shown.items():
        print(f"{workload} {name} = {v:.6g} {u}")
    reference = json.loads(REFERENCE_DIGESTS.read_text()).get(workload, {}).get(str(seed))
    record.update({"workload": workload, "seed": seed, "trace": trace,
                   "environment": env_info, "failures": failures[:20],
                   "digest_vs_reference": "none" if reference is None else
                   "same" if reference == record["digests"]["all"] else "differs"})
    print(json.dumps({"record": record}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["steenrod-cli", "exact-lib", "cli-mix", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinhalg" / "__init__.py").is_file():
        print(f"error: no spinhalg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in ("steenrod-cli", "exact-lib", "cli-mix"):
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
