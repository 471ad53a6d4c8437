"""Command-line front end.

Subcommands: width (width profile of a design), estimate (projected
nearest-point fit), adapt (radius-free estimation), risk (minimax
certificates), bench (canned gap scenarios). Inputs are headerless CSV;
reports are deterministic JSON on stdout or --out.

Exit codes: 0 success; 2 usage or configuration error; 3 a solver failed
to converge (the report is still written); 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .bench import bench_ellipsoid, bench_identity, bench_product
from .core import ProblemInstance
from .estimators import adaptive_estimate, pnn_select, pnn_solve
from .nearest import SolveOptions
from .risk import euclidean_ball_lower, minimax_certificate
from .width import WidthOptions, width_profile


class MatrixParseError(ValueError):
    """CSV input that cannot be turned into a finite numeric matrix."""


def load_matrix_csv(path):
    """Parse a headerless CSV matrix; blank lines are skipped.

    Raises MatrixParseError naming the line and column for unparseable or
    non-finite fields, and the line for ragged rows.
    """
    rows = []
    with open(path, newline="") as fh:
        for ln, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            row = []
            for col, tok in enumerate(stripped.split(","), start=1):
                tok = tok.strip()
                try:
                    val = float(tok)
                except ValueError:
                    raise MatrixParseError(
                        f"{path}: line {ln}, column {col}: cannot parse {tok!r} as a number"
                    ) from None
                if not math.isfinite(val):
                    # float() accepts "inf"/"nan" spellings, so check explicitly
                    raise MatrixParseError(
                        f"{path}: line {ln}, column {col}: non-finite value {tok!r}"
                    )
                row.append(val)
            if rows and len(row) != len(rows[0]):
                raise MatrixParseError(
                    f"{path}: line {ln}: ragged row, expected {len(rows[0])} fields, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise MatrixParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def load_vector_csv(path):
    """A vector stored as a single CSV row or a single column."""
    M = load_matrix_csv(path)
    if 1 not in M.shape:
        raise MatrixParseError(f"{path}: expected a vector (one row or one column), got {M.shape}")
    return M.ravel()


def write_matrix_csv(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", newline="") as fh:
        for row in M:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _sanitize(obj):
    """JSON-ready copy: numpy types unwrapped, non-finite floats stringified."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
    return obj


def _add_common(sp, tol_default, max_iter_default, need_obs=False, need_model=True):
    sp.add_argument("--design", required=True, help="CSV file with the n-by-p design matrix")
    if need_obs:
        sp.add_argument("--obs", required=True, help="CSV file with the length-n observation")
    if need_model:
        sp.add_argument("--sigma", type=float, default=1.0, help="noise standard deviation")
        sp.add_argument("--q", type=float, default=1.0, help="sparsity exponent in (0, 1]")
        sp.add_argument("--radius", type=float, default=1.0, help="constraint-ball radius C")
    sp.add_argument("--seed", type=int, default=42, help="64-bit seed for all randomized stages")
    sp.add_argument("--tol", type=float, default=tol_default, help="solver tolerance")
    sp.add_argument("--max-iter", type=int, default=max_iter_default, help="solver iteration cap")
    sp.add_argument("--out", default=None, help="write the JSON report here instead of stdout")


def build_parser():
    p = argparse.ArgumentParser(
        prog="pnnreg",
        description="Projected nearest neighbor estimation, width profiles, and risk certificates",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("width", help="width profile of a design matrix")
    _add_common(sp, 1e-4, 2000, need_model=False)

    sp = sub.add_parser("estimate", help="projected nearest-point estimate (q = 1)")
    _add_common(sp, 1e-6, 20000, need_obs=True)

    sp = sub.add_parser("adapt", help="radius-free adaptive estimate")
    _add_common(sp, 1e-6, 20000, need_obs=True)

    sp = sub.add_parser("risk", help="minimax-risk certificates")
    _add_common(sp, 1e-4, 2000)

    sp = sub.add_parser("bench", help="canned benchmark scenarios")
    sp.add_argument(
        "--bench",
        required=True,
        choices=("ellipsoid", "product", "identity"),
        help="scenario name",
    )
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", default=None)
    return p


def run_width(args):
    X = load_matrix_csv(args.design)
    prof = width_profile(X, WidthOptions(max_iter=args.max_iter, tol=args.tol, seed=args.seed))
    payload = {
        "ks": prof.ks,
        "relax_lower": prof.relax_lower,
        "achieved": prof.achieved,
        "converged": prof.converged,
    }
    return payload, 0 if bool(np.all(prof.converged)) else 3


def run_estimate(args):
    X = load_matrix_csv(args.design)
    y = load_vector_csv(args.obs)
    inst = ProblemInstance(X, q=args.q, C=args.radius, sigma=args.sigma)
    if inst.q != 1.0:
        raise ValueError(
            "estimate requires q = 1: the nearest-point subproblem over an lq "
            "ball with q < 1 is nonconvex and no efficient solver is known; "
            "the risk command still covers q < 1"
        )
    profile = width_profile(inst.scaled_design(), WidthOptions(seed=args.seed))
    sel = pnn_select(inst, profile)
    y_hat, sol = pnn_solve(inst, y, sel, SolveOptions(tol=args.tol, max_iter=args.max_iter))
    payload = {
        "k_star": sel.k_star,
        "r": sel.r,
        "z": profile.achieved,
        "y_hat": y_hat,
        "vi_residual": sol.vi_residual,
    }
    ok = bool(np.all(profile.converged)) and sol.converged
    return payload, 0 if ok else 3


def run_adapt(args):
    X = load_matrix_csv(args.design)
    y = load_vector_csv(args.obs)
    inst = ProblemInstance(X, q=args.q, C=args.radius, sigma=args.sigma)
    ks = tuple(range(inst.n // 2 + 1))
    profile = width_profile(inst.X, WidthOptions(seed=args.seed, ks=ks))
    y_hat, trace = adaptive_estimate(
        inst, y, profile, SolveOptions(tol=args.tol, max_iter=args.max_iter)
    )
    payload = {
        "final_k": "fallback" if trace.final_k is None else trace.final_k,
        "records": trace.records,
        "y_hat": y_hat,
    }
    ok = bool(np.all(profile.converged)) and trace.converged
    return payload, 0 if ok else 3


def run_risk(args):
    X = load_matrix_csv(args.design)
    inst = ProblemInstance(X, q=args.q, C=args.radius, sigma=args.sigma)
    cert = minimax_certificate(
        inst, WidthOptions(max_iter=args.max_iter, tol=args.tol, seed=args.seed)
    )
    enclosing = inst.C * float(np.max(np.linalg.norm(inst.X, axis=0)))
    payload = {
        "q": cert.q,
        "sigma": cert.sigma,
        "u": cert.u,
        "upper": cert.upper,
        "k_upper": cert.k_upper,
        "lower": cert.lower,
        "k_lower": cert.k_lower,
        "ratio": cert.ratio,
        "c_q": cert.c_q,
        "proj_risk": cert.proj_risk,
        "euclidean_ball_lower": euclidean_ball_lower(inst.n, enclosing, inst.sigma),
        "converged": cert.converged,
    }
    return payload, 0 if cert.converged else 3


def run_bench(args):
    fn = {"ellipsoid": bench_ellipsoid, "product": bench_product, "identity": bench_identity}
    return fn[args.bench](trials=args.trials, seed=args.seed), 0


_DISPATCH = {
    "width": run_width,
    "estimate": run_estimate,
    "adapt": run_adapt,
    "risk": run_risk,
    "bench": run_bench,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, code = _DISPATCH[args.command](args)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = {k: v for k, v in vars(args).items() if k != "command"}
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": config,
        **payload,
    }
    text = json.dumps(_sanitize(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code
