"""pnnreg benchmark: seeded workloads run in one process through the public API.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 45 --trace 0

``--workload`` takes one name, a comma-separated list, or ``all``. Each
workload prepares its inputs from ``--seed``, re-importing the package
each time, in batches before, between and after the passes. Passes run
in a closed loop, one after the other, until they have taken
``--seconds`` (at least one pass). ``wall_s`` is the median pass and
``wall_min_s`` the fastest one.

The gated times are at a reference CPU speed. On a shared virtual machine
the CPU speed flips between levels every few tens of milliseconds, and the share
of slow time drifts for minutes at a time, which moves a median pass by
up to 2x. So before every operation of a pass (certify: each interior
k's relaxation solve; scenarios: each scenario call; estimate-mc: every
250th fit) and before and after every set-up, the run times a fixed calibration
loop that does not touch pnnreg, and scales the time next to it by
``CAL_REF_S`` over the loop's time per call. ``wall_ref_s`` is the mean
pass scaled by the run's calibration samples together, ``setup_s`` the
median over set-ups, each scaled by the samples just before and after
it. Calibration time is left out of every pass time.

Outputs are checked after every pass, outside the timed region. Every
metric is printed as ``workload metric value unit``; the last line is one
JSON object with the gated metrics of BENCHMARK.json: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``. The traced run
alternates untraced and traced passes, so ``trace.overhead_s`` compares
passes from the same run, and writes its spans to ``.perfbench_work/``.
The exit code is 1 when an output check fails, 2 when the package cannot
be imported from ``src/`` of this checkout.

Workloads (see perfbench/NOTES.md for why each exists):
  certify      ``pnnreg width`` on a seeded 8x24 N(0,1) design, via cli.main.
  scenarios    ``pnnreg bench --bench {ellipsoid,product,identity}``.
  estimate-mc  paired Monte Carlo risk of the split and plain fits on a
               seeded 16x32 design; the split is chosen in set-up. Not in
               BENCHMARK.json: its work varies with the seed, and a third
               workload would not fit the run budget.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import spans as pbspans  # noqa: E402  (perfbench/spans.py)

SCENARIOS = ("ellipsoid", "product", "identity")

# ------------------------------------------------------------ calibration

# The reference speed: one calibration call takes CAL_REF_S there, which is
# about its time on a 2-vCPU Xeon VM. A constant, so reference-speed times
# compare across runs and commits.
CAL_REF_S = 8e-4
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.standard_normal((8, 8))
_CAL_SMALL = _CAL_SMALL + _CAL_SMALL.T
_CAL_MID = _CAL_RNG.standard_normal((48, 48))
_CAL_MID = _CAL_MID + _CAL_MID.T


def _cal_call():
    """A fixed mix like the workloads' own steps: Python arithmetic, small
    numpy updates, 8x8 and 48x48 symmetric eigensolves. pnnreg is not used,
    so a change to the package cannot change it."""
    s = 0
    for i in range(1500):
        s += i * i % 7
    x = np.zeros(8)
    for i in range(60):
        x = np.clip(x + _CAL_SMALL[i % 8], -1.0, 1.0)
    for _ in range(4):
        w = np.linalg.eigh(_CAL_SMALL)[0]
    return s + x[0] + w[0] + np.linalg.eigvalsh(_CAL_MID)[0]


class Speed:
    """Samples the machine's speed with the calibration loop, keeping the
    calls made and the seconds they took."""

    def __init__(self, calls):
        self.calls_per_sample = calls
        self.calls = 0
        self.seconds = 0.0

    def sample(self):
        t0 = time.perf_counter()
        for _ in range(self.calls_per_sample):
            _cal_call()
        self.seconds += time.perf_counter() - t0
        self.calls += self.calls_per_sample

    def factor(self):
        """Reference over measured speed: multiplies a time measured
        alongside the samples into a time at the reference speed."""
        return CAL_REF_S * self.calls / self.seconds


def _no_sample():
    pass


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY the self-test."""

    certify_shape: tuple = (8, 24)
    mc_shape: tuple = (16, 32)
    mc_ks: tuple = (0, 1, 2, 4, 8, 16)
    mc_profile_iters: int = 400
    mc_trials: int = 20
    mc_extra: int = 32
    bench_trials: int | None = None  # None: the CLI default
    # each batch of set-ups (before the first pass, after a pass once a
    # third of --seconds has passed since the last batch, and after the
    # last pass) lasts at least this long
    setup_seconds: float = 0.4
    # calibration calls before each operation, and before and after each
    # set-up
    cal_calls: int = 250
    setup_cal_calls: int = 25


FULL = Sizes()
TINY = Sizes(
    certify_shape=(3, 6),
    mc_shape=(4, 8),
    mc_ks=(0, 1, 2, 4),
    mc_profile_iters=50,
    mc_trials=2,
    mc_extra=4,
    bench_trials=2,
    setup_seconds=0.0,
    cal_calls=2,
    setup_cal_calls=2,
)


@dataclass
class Check:
    """Outcome of the output checks of one pass."""

    attempted: int = 0
    failed: int = 0  # operations whose output is wrong or missing
    fail_ops: int = 0  # fail_frac numerator: wrong, or (certify) unconverged
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)  # name -> (value, unit)
    fingerprint: object = None  # equal on every pass of a run, traced or not


def import_package():
    """Fresh import of pnnreg from this checkout's src/ directory."""
    for name in [k for k in sys.modules if k == "pnnreg" or k.startswith("pnnreg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("pnnreg")
    importlib.import_module("pnnreg.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "pnnreg":
        raise ImportError(f"pnnreg imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _cli(pkg, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return code, buf.getvalue()


def _finite_numbers(obj):
    """True when every number in a parsed report is finite; the CLI writes
    non-finite values as strings, which count as not finite here."""
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, str):
        return obj not in ("nan", "inf", "-inf")
    if isinstance(obj, bool) or obj is None:
        return True
    return math.isfinite(obj)


# ---------------------------------------------------------------- certify


class Certify:
    name = "certify"

    def prepare(self, pkg, seed, sizes):
        X = np.random.default_rng(seed).standard_normal(sizes.certify_shape)
        WORK.mkdir(exist_ok=True)
        path = WORK / f"certify-{seed}-X.csv"
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        return {"argv": ["width", "--design", str(path), "--seed", str(seed)], "n": X.shape[0]}

    def run_pass(self, pkg, st, sample):
        # one operation is one interior k: the speed is sampled before each
        # relaxation solve
        width, solve = pkg.width, pkg.width.width_relaxation_solve

        def sampled_solve(X, k, opts=None):
            sample()
            return solve(X, k, opts)

        width.width_relaxation_solve = sampled_solve
        try:
            return _cli(pkg, st["argv"])
        finally:
            width.width_relaxation_solve = solve

    def check(self, pkg, st, out):
        code, text = out
        n = st["n"]
        c = Check(attempted=n - 1, fingerprint=(code, text))
        if code not in (0, 3):
            c.failed = c.fail_ops = n - 1
            c.problems.append(f"width exited {code}")
            return c
        rep = json.loads(text)
        ks, lo, hi, conv = rep["ks"], rep["relax_lower"], rep["achieved"], rep["converged"]
        if ks != list(range(n + 1)) or not (len(lo) == len(hi) == len(conv) == n + 1) or not _finite_numbers(rep):
            c.failed = c.fail_ops = n - 1
            c.problems.append("width report malformed or not finite")
            return c
        if (code == 3) != (not all(conv)):
            c.problems.append(f"exit code {code} disagrees with converged flags {conv}")
        ratios = []
        for k in range(1, n):
            broken = not lo[k] <= hi[k] or hi[k] > hi[k - 1]
            if broken:
                c.problems.append(f"k={k}: sandwich or monotonicity broken ({lo[k]} <= {hi[k]} <= {hi[k - 1]})")
            c.failed += broken
            c.fail_ops += broken or not conv[k]
            ratios.append(hi[k] / lo[k] if lo[k] > 0 else math.inf)
        c.info["sandwich_max"] = (max(ratios), "ratio")
        c.info["exit_code"] = (code, "code")
        return c


# ------------------------------------------------------------ estimate-mc


class EstimateMC:
    name = "estimate-mc"
    C = 2.0
    SIGMA = 0.5

    def prepare(self, pkg, seed, sizes):
        n, p = sizes.mc_shape
        X = np.random.default_rng(seed).standard_normal((n, p)) / math.sqrt(n)
        inst = pkg.ProblemInstance(X, q=1.0, C=self.C, sigma=self.SIGMA)
        scaled = inst.scaled_design()
        opts = pkg.WidthOptions(max_iter=sizes.mc_profile_iters, repeats=16, seed=seed, ks=sizes.mc_ks)
        sel = pkg.pnn_select(inst, pkg.width_profile(scaled, opts))
        cands = pkg.candidate_set(inst, seed, extra=sizes.mc_extra)
        return {"inst": inst, "sel": sel, "cands": cands, "seed": seed, "trials": sizes.mc_trials}

    def run_pass(self, pkg, st, sample):
        inst, sel, clock = st["inst"], st["sel"], time.perf_counter
        lat, split, plain = [], [], []

        def split_fit(v):
            if len(lat) % 250 == 0:
                sample()
            t0 = clock()
            est, sol = pkg.pnn_solve(inst, v, sel)
            lat.append(clock() - t0)
            split.append((v, sol.y_hat))
            return est

        def plain_fit(v):
            if len(lat) % 250 == 0:
                sample()
            t0 = clock()
            y_hat = pkg.nn_estimate(inst, v)
            lat.append(clock() - t0)
            plain.append((v, y_hat))
            return y_hat

        r_split = pkg.mc_risk(split_fit, st["cands"], inst.sigma, st["trials"], st["seed"])
        r_plain = pkg.mc_risk(plain_fit, st["cands"], inst.sigma, st["trials"], st["seed"])
        return lat, split, plain, r_split, r_plain

    def check(self, pkg, st, out):
        lat, split, plain, r_split, r_plain = out
        inst, sel = st["inst"], st["sel"]
        scaled = inst.scaled_design()
        A_split = sel.projection.apply(scaled)
        c = Check(attempted=len(split) + len(plain))
        # the certificate is recomputed for every fit rather than trusting
        # the solver's converged flag
        for A, fits, project in ((A_split, split, sel.projection.apply), (scaled, plain, None)):
            for v, y_hat in fits:
                b = project(v) if project else v
                res = pkg.vertex_vi_residual(A, b, 1.0, y_hat)
                if not res <= 1e-6 * (1.0 + float(b @ b)):
                    c.failed += 1
        if c.failed:
            c.problems.append(f"{c.failed} fits fail their VI certificate")
        if len(split) != len(plain) or any(not np.array_equal(a[0], b[0]) for a, b in zip(split, plain)):
            c.problems.append("split and plain fits did not see the same noisy observations")
        risks = (r_split.max_mse, r_plain.max_mse)
        if not all(math.isfinite(r) for r in risks):
            c.problems.append(f"non-finite risk {risks}")
        c.fail_ops = c.failed
        c.fingerprint = (r_split.means.tobytes(), r_plain.means.tobytes())
        c.info["fit_p50_ms"] = (1e3 * statistics.median(lat), "ms")
        c.info["fit_p99_ms"] = (1e3 * statistics.quantiles(lat, n=100, method="inclusive")[98], "ms")
        c.info["fit_samples"] = (len(lat), "count")
        c.info["risk_split"] = (r_split.max_mse, "mse")
        c.info["risk_plain"] = (r_plain.max_mse, "mse")
        c.info["k_star"] = (sel.k_star, "k")
        c.info["candidates"] = (len(st["cands"]), "count")
        return c


# -------------------------------------------------------------- scenarios


class Scenarios:
    name = "scenarios"

    def prepare(self, pkg, seed, sizes):
        extra = [] if sizes.bench_trials is None else ["--trials", str(sizes.bench_trials)]
        return {b: ["bench", "--bench", b, "--seed", str(seed)] + extra for b in SCENARIOS}

    def run_pass(self, pkg, st, sample):
        out = {}
        for b, argv in st.items():
            sample()
            t0 = time.perf_counter()
            code, text = _cli(pkg, argv)
            out[b] = (code, text, time.perf_counter() - t0)
        return out

    def check(self, pkg, st, out):
        c = Check(attempted=len(out), fingerprint={b: o[:2] for b, o in out.items()})
        for b, (code, text, dt) in out.items():
            c.info[f"{b}_s"] = (dt, "s")
            problems = [f"exit code {code}"] if code != 0 else self._problems(b, json.loads(text))
            if problems:
                c.failed += 1
                c.problems += [f"{b}: {p}" for p in problems]
        c.fail_ops = c.failed
        if out["product"][0] == 0:
            # recorded as measured: criterion 8's ordering is a known open result
            rep = json.loads(out["product"][1])
            c.info["product_nn_risk"] = (rep["nn"]["risk"], "mse")
            c.info["product_pnn_risk"] = (rep["pnn"]["risk"], "mse")
            c.info["product_best_projection_risk"] = (rep["best_projection_risk"], "mse")
        return c

    def _problems(self, b, rep):
        if rep.get("scenario") != b or not _finite_numbers(rep):
            return ["report malformed or not finite"]
        out = []
        if b == "ellipsoid":
            rows = rep["rows"]
            if [r["n"] for r in rows] != [64, 256, 1024]:
                out.append("rows are not n = 64, 256, 1024")
            # criterion 1, seed-free clauses: the single-axis projection keeps
            # one noise unit, and nearest-point risk sits above it and grows
            for r in rows:
                if not r["proj_risk"] <= 2.0 + 3.0 * r["proj_se"]:
                    out.append(f"n={r['n']}: projection risk {r['proj_risk']} above 2 + 3se")
                if not r["nn_risk"] > r["proj_risk"]:
                    out.append(f"n={r['n']}: nearest-point risk not above projection risk")
            if not rep["growth_exponent"] > 0:
                out.append(f"growth exponent {rep['growth_exponent']} not positive")
        elif b == "product":
            names = set(rep["projections"])
            if rep["best_projection"] not in names or rep["candidates"] != 4:
                out.append("product report malformed")
        else:
            ach = rep["achieved"]
            if len(ach) != len(rep["ks"]) or any(a1 > a0 for a0, a1 in zip(ach, ach[1:])):
                out.append("identity widths malformed or increasing in k")
            # criterion 9
            if not rep["pnn_risk"] <= 0.5 * rep["proj_risk"]:
                out.append(f"split risk {rep['pnn_risk']} above half the formula {rep['proj_risk']}")
        return out


WORKLOADS = {w.name: w for w in (Certify(), EstimateMC(), Scenarios())}


# --------------------------------------------------------------- running


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # gated metrics, name -> (value, unit)
    info: dict  # workload-specific metrics, name -> (value, unit)
    problems: list


def _setup_batch(wl, seed, sizes, times):
    """Set up at least once and for at least sizes.setup_seconds, sampling
    the speed just before and after each set-up and appending its
    reference-speed time; returns the last package and state."""
    t_batch = time.perf_counter()
    while True:
        speed = Speed(sizes.setup_cal_calls)
        speed.sample()
        t0 = time.perf_counter()
        pkg = import_package()
        st = wl.prepare(pkg, seed, sizes)
        dt = time.perf_counter() - t0
        speed.sample()
        times.append(dt * speed.factor())
        if time.perf_counter() - t_batch >= sizes.setup_seconds:
            return pkg, st


def run_workload(wl, seed, seconds, trace, sizes=FULL):
    """Set up and run one workload; see the module docstring."""
    setups, walls, traced_walls, checks, phases = [], [], [], [], []
    speed = Speed(sizes.cal_calls)
    pkg, st = _setup_batch(wl, seed, sizes, setups)
    tracer = pbspans.Tracer() if trace else None
    if tracer:
        with tracer.installed(), tracer.span("harness.setup"):
            st = wl.prepare(pkg, seed, sizes)
        phases.append(("setup", *tracer.take()))

    last_batch = time.perf_counter()
    while True:
        sampled, t0 = speed.seconds, time.perf_counter()
        out = wl.run_pass(pkg, st, speed.sample)
        walls.append(time.perf_counter() - t0 - (speed.seconds - sampled))
        checks.append(wl.check(pkg, st, out))
        if tracer:
            with tracer.installed(), tracer.span("harness.pass"):
                t0 = time.perf_counter()
                out = wl.run_pass(pkg, st, _no_sample)
                traced_walls.append(time.perf_counter() - t0)
            phases.append(("pass", *tracer.take()))
            checks.append(wl.check(pkg, st, out))
        done = sum(walls) + sum(traced_walls) >= seconds
        if not tracer and (done or time.perf_counter() - last_batch >= seconds / 3):
            # set-ups between passes spread setup_s over the run
            pkg, st = _setup_batch(wl, seed, sizes, setups)
            last_batch = time.perf_counter()
        if done:
            break

    problems = [p for c in checks for p in c.problems]
    if any(c.fingerprint != checks[0].fingerprint for c in checks):
        problems.append("passes of one run gave different outputs")
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    info = {
        "fail_frac": (sum(c.fail_ops for c in checks) / attempted, "frac"),
        "passes": (len(checks), "count"),
        "setups": (len(setups), "count"),
        "wall_s": (statistics.median(walls), "s"),
        "wall_min_s": (min(walls), "s"),
        "speed_ref": (speed.factor(), "ratio"),
    }
    for name, (_, unit) in checks[0].info.items():
        vals = [c.info[name][0] for c in checks]
        info[name] = (vals[0] if len(set(vals)) == 1 else statistics.median(vals), unit)

    if tracer:
        metrics = layer_metrics(phases, walls, traced_walls)
        write_spans(wl.name, seed, phases)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_ref_s": (statistics.fmean(walls) * speed.factor(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return Outcome(not problems and failed == 0, attempted, failed, metrics, info, problems)


SETUP_METRICS = ("width.relax_s", "width.relax_iters", "width.relax_unconverged", "core.eig_sym_s",
                 "estimators.pnn_select_s", "risk.candidate_set_s")


def _unit(name):
    if name.startswith(("share.", "setup.share.")):
        return "%"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("gap_rel_max") else "count"


def layer_metrics(phases, walls, traced_walls):
    """Per-layer metrics: the median over traced passes, plus the traced set-up."""
    passes = [pbspans.summarize(spans, rec) for kind, spans, rec in phases if kind == "pass"]
    setup = pbspans.summarize(*phases[0][1:])
    out = {name: (statistics.median(p[name] for p in passes), _unit(name)) for name in passes[0]}
    for name in SETUP_METRICS:
        out[f"setup.{name}"] = (setup[name], _unit(name))
    for layer in pbspans.LAYERS:
        out[f"setup.share.{layer}"] = (setup[f"share.{layer}"], "%")
    out["trace.wall_s"] = (statistics.median(traced_walls), "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
    return out


def write_spans(workload, seed, phases):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": environment(seed), "workload": workload}) + "\n")
        for i, (kind, spans, _) in enumerate(phases):
            for s in spans:
                fh.write(json.dumps([i, kind, *s]) + "\n")


def _gated(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="name, comma-separated names, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if not 0 <= args.seed < 2**63:
        ap.error("seed must be in [0, 2**63)")
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import pnnreg from {SRC}: {exc}", file=sys.stderr)
        return 2
    gated = _gated(args.trace)

    ok = True
    for name in names:
        env = environment(args.seed)
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(f"# env {name} {json.dumps(env, sort_keys=True)}")
        for p in res.problems:
            print(f"# check failed: {name}: {p}")
        for metric, (value, unit) in {**res.metrics, **res.info}.items():
            print(f"{name} {metric} {value!r} {unit}")
        missing = [g for g in gated if g not in res.metrics]
        if missing:
            raise RuntimeError(f"metrics {missing} named in BENCHMARK.json were not measured")
        metrics = {g: {"value": float(res.metrics[g][0]), "unit": res.metrics[g][1]} for g in gated}
        print(json.dumps({"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
                          "metrics": metrics}), flush=True)
        ok = ok and res.correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
