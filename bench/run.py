"""End-to-end and per-layer benchmark of the hyperwave CLI pipelines.

    python3 bench/run.py --workload blowup-d7 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Every invocation is a fresh interpreter that imports `hyperwave.cli` from
this checkout's src/ (bench/child.py) and runs one README command. The load
is a closed loop with one client: one invocation at a time, back to back.
BLAS/OpenMP threads are pinned to 1 in every child.

Workloads (seed 0 runs the README command verbatim):
    blowup-d7     blowup --d 7 --amp 1e-3 --eps 0.05    nonlinear layer
    freewave-d7   freewave --d 7 --N 64 --s-end 5       descent layer
    spectrum-d7   spectrum --d 7 --N 96 --scan-ssc      linstab layer
Other seeds draw the blowup amplitude log-uniformly from a 17-point grid
over [5e-4, 2e-3]; the other two workloads take no random input.
BENCHMARK.json lists blowup-d7 and freewave-d7, which between them trace
every layer; spectrum-d7 runs by name or with --workload all.

--trace 0 reports the end-to-end metrics, as medians over the invocations
of one run: wall_s (spawn to exit), setup_s (spawn until `hyperwave.cli` is
imported, several import-only spawns included), cpu_s (child user+system)
and peak_rss_mb (child max RSS). --trace 1 alternates untraced and traced
invocations and reports the per-layer metrics from bench/tracer.py, plus
trace.overhead_s = traced wall_s - untraced wall_s.

An invocation fails when it exits non-zero (the CLI's own verdict), an
artifact is missing or unreadable, its certified outputs deviate from
bench/references.json by more than REF_TOL (ref_dev), or its artifact digest
differs from that of another repetition in the run. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the full record, with its
provenance, is appended to bench/.work/records.jsonl.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
CHILD = os.path.join(BENCH, "child.py")
REFERENCES = os.path.join(BENCH, "references.json")

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT_S = 165.0  # no invocation is started that would end later than this
SETUP_SPAWNS = 3  # import-only spawns per untraced run, besides the invocations
# Invocations of one command vary by about 10% (coefficient of variation)
# from process to process on a shared 2-core host, so an untraced run takes
# the median of at least 4; a traced run makes at least 2 untraced/traced pairs.
MIN_INVOCATIONS = {False: 4, True: 2}
REF_TOL = 1e-6

WORKLOADS = {
    "blowup-d7": {
        "argv": ["blowup", "--d", "7", "--amp", "1e-3", "--eps", "0.05"],
        "d": 7, "N": 64, "R": 2.0,
        "artifacts": (".csv", ".json"),
    },
    "freewave-d7": {
        "argv": ["freewave", "--d", "7", "--N", "64", "--s-end", "5"],
        "d": 7, "N": 64, "R": 2.0,
        "artifacts": (".csv", ".json"),
    },
    "spectrum-d7": {
        "argv": ["spectrum", "--d", "7", "--N", "96", "--scan-ssc"],
        "d": 7, "N": 96, "R": 2.0,
        "artifacts": (".json",),
    },
}

# blowup amplitudes: 5e-4 * 4**(k/16), k = 0..16; k = 8 is the README's 1e-3
AMPLITUDES = ["1e-3" if k == 8 else repr(5e-4 * 4 ** (k / 16)) for k in range(17)]
README_AMPLITUDE = 8

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "nonlinear.evolve_nonlinear.calls",
    "nonlinear.evolve_nonlinear.busy_s",
    "nonlinear.evolve_nonlinear.self_s",
    "nonlinear.evolve_nonlinear.unstable_ratio",
    "model.nonlinearity_scalar.calls",
    "model.nonlinearity_scalar.busy_s",
    "nonlinear.cauchy_tr_solver.busy_s",
    "nonlinear.initial_data_operator.calls",
    "nonlinear.initial_data_operator.busy_s",
    "nonlinear.adjust_blowup_time.busy_s",
    "linstab.assemble_L.calls",
    "linstab.assemble_L.busy_s",
    "linstab.eig.calls",
    "linstab.eig.busy_s",
    "linstab.riesz_projection.busy_s",
    "linstab.resolvent_solves.calls",
    "linstab.mode_angle.busy_s",
    "linstab.spectrum.busy_s",
    "linstab.ssc_scan_roots.busy_s",
    "linstab.ssc_mode_scan.calls",
    "descent.fd_oracle_series.busy_s",
    "descent.direct_fd_oracle.busy_s",
    "descent.descent_full_inverse.calls",
    "descent.descent_full_inverse.busy_s",
    "descent.descent_full.busy_s",
    "descent.evolve_free_wave.calls",
    "descent.evolve_free_wave.busy_s",
    "grids.Grid.interp_matrix.calls",
    "grids.Grid.interp_matrix.busy_s",
    "halfwave.evolve_S1.calls",
    "halfwave.evolve_S1.busy_s",
    "grids.make_grid.calls",
    "grids.make_grid.busy_s",
    "grids.weighted_sobolev_norm.calls",
    "grids.weighted_sobolev_norm.busy_s",
    "output.write.busy_s",
    "output.bytes",
    "cli.main.busy_s",
    "cli.main.self_s",
    "trace.overhead_s",
)
_SPECIAL_UNITS = {"nonlinear.evolve_nonlinear.unstable_ratio": "ratio", "output.bytes": "bytes"}
# counts that must repeat exactly between traced invocations (and seeds);
# output.bytes repeats within a run by the digest check, but not across
# seeds, whose blowup artifacts hold other numbers
EXACT = [m for m in PER_LAYER if m.endswith(".calls")]


def layer_unit(name):
    return _SPECIAL_UNITS.get(name, "count" if name.endswith(".calls") else "s")


def inputs(workload, seed):
    """CLI arguments for a workload and seed, and the key of their reference values."""
    if workload != "blowup-d7":
        return list(WORKLOADS[workload]["argv"]), "default"
    return blowup_input(
        README_AMPLITUDE if seed == 0 else random.Random(seed).randrange(len(AMPLITUDES))
    )


def blowup_input(k):
    argv = list(WORKLOADS["blowup-d7"]["argv"])
    argv[argv.index("--amp") + 1] = AMPLITUDES[k]
    return argv, f"amp={AMPLITUDES[k]}"


# ---------------------------------------------------------------- correctness


def certified_outputs(workload, doc):
    """{name: (kind, value)} of the numbers a run certifies; kind "rel" is
    compared relative to the reference, "abs" (defects and errors, nominally
    zero) absolutely. Complex values are [re, im]."""
    if workload == "blowup-d7":
        return {k: ("rel", doc[k]) for k in ("T_star", "omega0_fit", "gap")}
    if workload == "freewave-d7":
        return {
            "exponent_fit": ("rel", doc["exponent_fit"]),
            "cross_check_error": ("abs", doc["cross_check_error"]),
        }
    out = {f"eigenvalues[{i}]": ("rel", [z["re"], z["im"]]) for i, z in enumerate(doc["eigenvalues"])}
    out.update({f"ssc_roots[{i}]": ("rel", [z["re"], z["im"]]) for i, z in enumerate(doc["ssc_roots"])})
    out["gap"] = ("rel", doc["gap"])
    out.update({f"projection.{k}": ("abs", v) for k, v in doc["projection"].items()})
    out["mode_angle"] = ("abs", doc["mode_angle"])
    return out


def _number(v):
    return complex(*v) if isinstance(v, list) else v


def ref_dev(outputs, reference):
    """Largest deviation of certified outputs from their reference values."""
    if reference is None or set(outputs) != set(reference):
        return math.inf
    worst = 0.0
    for name, (kind, value) in outputs.items():
        x, r = _number(value), _number(reference[name])
        if x is None or r is None:
            dev = 0.0 if x is r else math.inf
        else:
            dev = abs(x - r) / (abs(r) if kind == "rel" and r != 0 else 1.0)
        worst = max(worst, dev)
    return worst


def check(workload, prefix, rc, reference):
    """Verdict on one invocation: (failure reason or None, ref_dev, digest)."""
    if rc != 0:
        return f"exit code {rc}", math.inf, None
    digest = hashlib.sha256()
    for suffix in WORKLOADS[workload]["artifacts"]:
        try:
            with open(prefix + suffix, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return f"missing artifact {suffix}", math.inf, None
        digest.update(suffix.encode() + b"\0" + data)
    try:
        with open(prefix + ".json") as fh:
            outputs = certified_outputs(workload, json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable summary: {exc!r}", math.inf, digest.hexdigest()
    dev = ref_dev(outputs, reference)
    if not dev <= REF_TOL:
        return f"ref_dev {dev:.3g} above {REF_TOL:g}", dev, digest.hexdigest()
    return None, dev, digest.hexdigest()


# ---------------------------------------------------------------- processes


def _env():
    env = dict(os.environ, PYTHONPATH=SRC, **THREADS)
    # cached bytecode, so that setup_s times imports, not compilation
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(tag, cli_argv=None, trace=False, info=False, timeout=RUN_LIMIT_S):
    """Run one child to completion; returns its timings and where it wrote."""
    where = os.path.join(WORK, f"{os.getpid()}-{tag}")
    os.makedirs(where)
    marker = os.path.join(where, "imported.json")
    cmd = [sys.executable, CHILD, "--marker", marker]
    if info:
        cmd.append("--info")
    if trace:
        cmd += ["--trace", os.path.join(where, "spans.json")]
    if cli_argv:
        cmd += ["--", *cli_argv, "--out", os.path.join(where, "out")]
    with open(os.path.join(where, "stdout.txt"), "w") as out, open(
        os.path.join(where, "stderr.txt"), "w"
    ) as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "dir": where,
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "setup_s": None,
    }
    try:
        with open(marker) as fh:
            result["marker"] = json.load(fh)
        result["setup_s"] = result["marker"]["imported"] - start
    except (FileNotFoundError, ValueError):
        pass
    return result


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hyperwave")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(marker):
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **{k: marker[k] for k in ("python", "numpy", "scipy", "blas")},
        "hyperwave": os.path.relpath(marker["hyperwave"], ROOT),
        "threads": THREADS,
        "load": "closed loop, 1 client",
    }


# ---------------------------------------------------------------- one run


def _median(values):
    """Median, or 0.0 for a run whose invocations all failed (it reports
    correct = false)."""
    return statistics.median(values) if values else 0.0


def layer_values(spans_path):
    """Per-layer metrics of one traced invocation, and the self-time balance:
    the sum of all self times minus the cli.main busy time, zero when every
    span nests inside cli.main."""
    with open(spans_path) as fh:
        data = json.load(fh)
    summary = tracer.summarize(data["spans"])
    counters = data["counters"]
    values = {}
    for name in PER_LAYER:
        prefix, field = name.rsplit(".", 1)
        if prefix in counters:
            values[name] = counters[prefix][0 if field == "calls" else 1]
        elif name == "nonlinear.evolve_nonlinear.unstable_ratio":
            s = summary.get("nonlinear.evolve_nonlinear")
            values[name] = s["outcome"] / s["calls"] if s else 0.0
        elif name == "output.bytes":
            values[name] = summary.get("output.write", {}).get("outcome", 0.0)
        elif name != "trace.overhead_s":  # set per run from the untraced invocations
            values[name] = summary.get(prefix, {}).get(field, 0)
    balance = sum(s["self_s"] for s in summary.values()) - values["cli.main.busy_s"]
    return values, balance


def _samples(runs, key):
    return [r[key] for r in runs if r[key] is not None]


def run_workload(workload, seed, seconds, trace, references):
    deadline = time.monotonic() + RUN_LIMIT_S
    argv, key = inputs(workload, seed)
    reference = references.get(workload, {}).get(key)
    warm = spawn("warmup", info=True)  # compiles bytecode, checks src/
    if warm["rc"] != 0 or "marker" not in warm:
        with open(os.path.join(warm["dir"], "stderr.txt")) as fh:
            sys.exit(f"cannot import hyperwave.cli from {SRC}:\n{fh.read()}")
    shutil.rmtree(warm["dir"])
    imports = []
    for i in range(0 if trace else SETUP_SPAWNS):
        imports.append(spawn(f"setup{i}"))
        shutil.rmtree(imports[-1]["dir"])
    untraced, traced, failures, digests, layers = [], [], [], set(), []
    begin = time.monotonic()
    while len(untraced) < MIN_INVOCATIONS[trace] or time.monotonic() - begin < seconds:
        longest = max(r["wall_s"] for r in untraced + traced) if untraced else 0.0
        if untraced and time.monotonic() + longest * (2 if trace else 1) > deadline:
            break
        for traced_now in (False, True) if trace else (False,):
            runs = traced if traced_now else untraced
            tag = f"{'t' if traced_now else 'u'}{len(runs)}"
            res = spawn(tag, argv, trace=traced_now, timeout=deadline - time.monotonic())
            reason, dev, digest = check(workload, os.path.join(res["dir"], "out"), res["rc"], reference)
            if reason is None and traced_now:
                values, balance = layer_values(os.path.join(res["dir"], "spans.json"))
                layers.append(values)
                if abs(balance) > 1e-6:
                    reason = f"self times miss cli.main busy time by {balance:.3g} s"
            if digest is not None:
                digests.add(digest)
            if reason is None and len(digests) > 1:
                reason = "artifact digest differs from an earlier repetition"
            res.update(ref_dev=dev, digest=digest, failure=reason)
            runs.append(res)
            if reason is None:
                shutil.rmtree(res["dir"])
            else:
                failures.append(f"{tag}: {reason} (kept in {res['dir']})")
    if any(values[m] != layers[0][m] for values in layers for m in EXACT):
        failures.append("call counts differ between traced invocations")

    invocations = untraced + traced
    samples = {
        "wall_s": _samples(untraced, "wall_s"),
        "setup_s": _samples(imports + invocations, "setup_s"),
        "cpu_s": _samples(untraced, "cpu_s"),
        "peak_rss_mb": _samples(untraced, "peak_rss_mb"),
    }
    if trace:
        values = {
            name: layers[0][name] if name in EXACT and layers else _median([v[name] for v in layers])
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = _median(_samples(traced, "wall_s")) - _median(samples["wall_s"])
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    else:
        metrics = {name: {"value": _median(samples[name]), "unit": unit} for name, unit in END_TO_END.items()}
    failed = sum(1 for r in invocations if r["failure"])
    if failed == 0 and failures:  # a run-level failure spoils every invocation
        failed = len(invocations)
    record = {
        "workload": workload,
        "seed": seed,
        "argv": argv,
        "reference_key": key,
        **{k: WORKLOADS[workload][k] for k in ("d", "N", "R")},
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(warm["marker"]),
        "invocations": [
            {
                k: r.get(k)
                for k in ("rc", "wall_s", "cpu_s", "peak_rss_mb", "setup_s", "ref_dev", "digest", "failure")
            }
            for r in imports + invocations
        ],
        "samples": {name: len(v) for name, v in samples.items()},
        "failures": failures,
        "ref_dev": max((r["ref_dev"] for r in invocations), default=math.inf),
        "fail_ratio": failed / len(invocations),
        "result": {
            "correct": failed == 0,
            "attempted": len(invocations),
            "failed": failed,
            "metrics": metrics,
        },
    }
    with open(os.path.join(WORK, "records.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def describe(record):
    counts = record["samples"]
    lines = [f"{record['workload']} seed={record['seed']} ({' '.join(record['argv'])}):"]
    for name, m in record["result"]["metrics"].items():
        n = f" (median of {counts[name]})" if name in counts else ""
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{n}")
    lines.append(f"  ref_dev = {record['ref_dev']:.3g} (max deviation from references; tolerance {REF_TOL:g})")
    result = record["result"]
    lines.append(
        f"  fail_ratio = {record['fail_ratio']:.3g} ({result['failed']}/{result['attempted']} invocations)"
    )
    lines += [f"  failure: {f}" for f in record["failures"]]
    return "\n".join(lines)


def combine(records):
    """One result line for several workloads: metrics keyed <workload>.<name>."""
    results = [r["result"] for r in records]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{rec['workload']}.{name}": m
            for rec in records
            for name, m in rec["result"]["metrics"].items()
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "hyperwave", "cli.py")):
        sys.exit(f"no hyperwave sources at {SRC}: run from a checkout of the repository")
    with open(REFERENCES) as fh:
        references = json.load(fh)["values"]
    os.makedirs(WORK, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), references) for w in names]
    for record in records:
        print(describe(record))
    result = records[0]["result"] if len(records) == 1 else combine(records)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
