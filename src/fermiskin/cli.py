"""Command-line surface: every computation as a subcommand emitting CSV/JSON.

Data payloads are deterministic for fixed inputs; the only run-specific
item is an ISO-8601 timestamp carried in a leading comment line (CSV)
or a "generated" field (JSON). Exit codes: 0 success, 2 usage errors,
1 computation errors with the originating module's message verbatim.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import analysis, field, permittivity
from .constants import SPEED_OF_LIGHT
from .materials import (
    MATERIALS_ENV_VAR,
    Material,
    get_material,
    material_table,
    params_for,
)

_G = "%.12g"


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _G % float(v)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit_csv(path, columns, rows, comments=()):
    def write(fh):
        fh.write(f"# generated: {_timestamp()}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])

    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _json_number(v):
    v = float(v)
    return v if math.isfinite(v) else None


def _emit_json(path, subcommand, meta, columns, rows):
    doc = {
        "generated": _timestamp(),
        "subcommand": subcommand,
        "meta": meta,
        "columns": list(columns),
        # a failed point's NaN has no JSON spelling; it goes out as null
        "rows": [[v if isinstance(v, str) else _json_number(v) for v in row] for row in rows],
    }
    if path is None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _emit(args, subcommand, meta, columns, rows, comments=()):
    if args.format == "json":
        _emit_json(args.output, subcommand, meta, columns, rows)
    else:
        _emit_csv(args.output, columns, rows, comments)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid must be min:max:n, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--grid needs finite min and max, got {text!r}")
    if not (lo < hi):
        raise ValueError(f"--grid needs min < max, got {text!r}")
    if n < 2:
        raise ValueError(f"--grid needs n >= 2, got {n}")
    return lo, hi, n


def _material(args) -> Material:
    return get_material(args.material, getattr(args, "config", None))


def _meta_params(params) -> dict:
    return {
        "material": params.material.name,
        "Omega": params.Omega,
        "eps": params.eps,
        "a": params.a,
        "b": params.b,
        "omega_rad_per_s": params.omega,
        "nu_rad_per_s": params.nu,
        "l_cm": "infinite" if params.l == float("inf") else params.l,
        "delta_cm": params.delta,
    }


def _meta_comments(meta: dict) -> list[str]:
    return [f"{k} = {v if isinstance(v, str) else _G % v}" for k, v in meta.items()]


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_materials(args) -> int:
    if args.material:
        mats = [_material(args)]
    else:
        table = material_table(args.config)
        mats = [table[k] for k in sorted(table)]
    columns = [
        "name",
        "n_e_cm3",
        "n_e_per_m3",
        "omega_p_rad_per_s",
        "v_F_cm_per_s",
        "v_F_m_per_s",
        "delta_cm",
        "delta_m",
    ]
    rows = []
    for m in mats:
        rows.append(
            [
                m.name,
                m.n_e,
                m.n_e * 1e6,
                m.omega_p,
                m.v_F,
                m.v_F * 1e-2,
                m.skin_depth,
                m.skin_depth * 1e-2,
            ]
        )
    _emit(args, "materials", {"count": len(mats)}, columns, rows)
    return 0


def _cmd_epsilon(args) -> int:
    if (args.q is None) == (args.grid is None):
        raise ValueError("epsilon needs exactly one of --q or --grid")
    if args.q is not None:
        qs = np.asarray([args.q])
    else:
        lo, hi, n = _parse_grid(args.grid)
        qs = np.linspace(lo, hi, n)
    vals = permittivity.eps_tr(qs, args.Omega, args.eps)
    meta = {"Omega": args.Omega, "eps": args.eps}
    rows = [[q, v.real, v.imag] for q, v in zip(qs, np.atleast_1d(vals))]
    _emit(args, "epsilon", meta, ["q", "re_eps_tr", "im_eps_tr"], rows,
          _meta_comments(meta))
    return 0


def _cmd_kohn_scan(args) -> int:
    lo, hi, n = _parse_grid(args.grid)
    res = permittivity.kohn_scan(args.Omega, args.eps, lo, hi, n)
    meta = {
        "Omega": args.Omega,
        "eps": args.eps,
        "q_star": res.q_star,
        "max_abs_derivative": res.max_abs_derivative,
        "refined_step": res.refined_step,
        "n_skipped": res.n_skipped,
    }
    rows = [[q, v] for q, v in zip(res.grid, res.values)]
    _emit(args, "kohn-scan", meta, ["q", "abs_d_eps_dq"], rows, _meta_comments(meta))
    return 0


def _cmd_field(args) -> int:
    mat = _material(args)
    params = params_for(mat, args.Omega, args.eps)
    lo, hi, n = _parse_grid(args.grid)
    xs = np.linspace(lo, hi, n)
    prof = field.profile(xs, params, args.method, tol_rel=args.tol_rel)
    meta = _meta_params(params)
    meta["method"] = args.method
    rows = [
        [x, v.real, v.imag, e]
        for x, v, e in zip(prof.xs, prof.values, prof.abs_err)
    ]
    _emit(
        args, "field", meta,
        ["x_cm", "re_E_ratio_cm", "im_E_ratio_cm", "abs_err_est"],
        rows, _meta_comments(meta),
    )
    for i, msg in prof.errors:
        print(f"point {i} (x = {_G % prof.xs[i]} cm) failed: {msg}", file=sys.stderr)
    return 0


def _cmd_asymptotic(args) -> int:
    mat = _material(args)
    coef = field.asymptotic_coefficients(args.Omega, mat)
    meta = {
        "material": mat.name,
        "Omega": args.Omega,
        "A_cm3": coef.A,
        "B_cm2": coef.B,
        "f_Omega": coef.f_Omega,
        "wavenumber_per_cm": coef.wavenumber,
        "normalization": args.normalization,
    }
    if args.grid is None:
        columns = ["Omega", "A_cm3", "B_cm2", "f_Omega", "wavenumber_per_cm"]
        rows = [[args.Omega, coef.A, coef.B, coef.f_Omega, coef.wavenumber]]
        _emit(args, "asymptotic", meta, columns, rows,
              [f"material = {mat.name}"])
        return 0
    lo, hi, n = _parse_grid(args.grid)
    xs = np.linspace(lo, hi, n)
    vals = field.asymptotic_field(xs, args.Omega, mat,
                                  normalization=args.normalization)
    rows = [[x, v, 0.0, 0.0] for x, v in zip(xs, vals)]
    _emit(
        args, "asymptotic", meta,
        ["x_cm", "re_E_ratio_cm", "im_E_ratio_cm", "abs_err_est"],
        rows, _meta_comments(meta),
    )
    return 0


def _cmd_crossover(args) -> int:
    mat = _material(args)
    res = analysis.crossover(args.Omega, mat, args.E0)
    meta = {
        "material": mat.name,
        "Omega": args.Omega,
        "E0": args.E0,
        "x_star_cm": res.x_star,
        "x_star_um": res.x_star * 1e4,
        "g_residual": res.g_residual,
        "iterations": res.iterations,
        "branch": res.branch,
    }
    columns = ["material", "Omega", "x_star_cm", "x_star_um", "g_residual", "iterations"]
    rows = [[mat.name, args.Omega, res.x_star, res.x_star * 1e4, res.g_residual,
             res.iterations]]
    _emit(args, "crossover", meta, columns, rows, _meta_comments(meta))
    return 0


# figure recipes, ranges fixed to the source plots: x range, points,
# comment line, and one (column, material, Omega) per closed-form curve
_FIG_PROFILE = {
    2: (2e-5, 2e-3, 400, "Omega = 0.0001",
        [(f"E_ratio_{m}_cm", m, 1e-4) for m in ("na", "au", "al")]),
    3: (9e-5, 3e-3, 2000, "Omega = 0.001",
        [(f"E_ratio_{m}_cm", m, 1e-3) for m in ("na", "au", "al")]),
    4: (1.5e-3, 1.8e-3, 2000, "material = al",
        [(f"E_ratio_Omega_{om:g}_cm", "al", om) for om in (1e-4, 1e-3, 1e-2)]),
}
_FIG_CROSSOVER = {5: 1e-2, 6: 1e-1}


def _sidecar_path(csv_path: str) -> str:
    return (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".json"


def _cmd_figures(args) -> int:
    fig = args.fig
    out = args.output or f"fig{fig}.csv"
    if fig == 1:
        lo, hi, n = 0.02, 0.2, 500
        qs = np.linspace(lo, hi, n)
        cols = ["q"]
        data = [qs]
        comments = []
        for Om in (0.1, 0.08):
            vals = np.abs(permittivity.d_eps_dq(qs, Om, args.eps))
            scan = permittivity.kohn_scan(Om, args.eps, lo, hi, n)
            tag = ("%g" % Om).replace(".", "p")
            cols.append(f"abs_d_eps_dq_Omega_{tag}")
            data.append(vals)
            comments.append(f"q_star(Omega = {Om:g}) = {_G % scan.q_star}")
        comments.insert(0, f"eps = {args.eps:g}")
        rows = list(zip(*data))
        _emit_csv(out, cols, rows, comments)
    elif fig in _FIG_PROFILE:
        x_lo, x_hi, n, comment, curves = _FIG_PROFILE[fig]
        xs = np.linspace(x_lo, x_hi, n)
        cols = ["x_cm"]
        data = [xs]
        for col, name, Om in curves:
            mat = get_material(name, args.config)
            cols.append(col)
            data.append(field.asymptotic_field(xs, Om, mat))
        _emit_csv(out, cols, list(zip(*data)), [comment])
    else:
        Om = _FIG_CROSSOVER[fig]
        mat = _material(args)
        res = analysis.crossover(Om, mat, args.E0)
        B = field.amplitude_B(Om, mat, args.E0)
        k = mat.omega_p / SPEED_OF_LIGHT
        xs = np.geomspace(res.x_star / 20.0, res.x_star * 4.0, 300)
        y1 = B / xs**2
        y2 = np.exp(-k * xs)
        rows = list(zip(xs, y1, y2))
        _emit_csv(
            out, ["x_cm", "y1", "y2"], rows,
            [
                f"material = {mat.name}",
                f"Omega = {Om:g}",
                "y1 = B/x^2, y2 = exp(-omega_p x/c)",
                f"x_star_cm = {_G % res.x_star}",
            ],
        )
        sidecar = {
            "generated": _timestamp(),
            "fig": fig,
            "material": mat.name,
            "Omega": Om,
            "E0": args.E0,
            "B_cm2": B,
            "x_star_cm": res.x_star,
            "x_star_um": res.x_star * 1e4,
            "g_residual": res.g_residual,
            "iterations": res.iterations,
        }
        with open(_sidecar_path(out), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out} and {_sidecar_path(out)}")
        return 0
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, *, material=False, fmt=True):
    if material:
        p.add_argument("--material", default=None if p.prog.endswith("materials") else "na",
                       help="material name from the built-in table or config")
        p.add_argument("--config", default=None,
                       help=f"materials JSON path (or set {MATERIALS_ENV_VAR})")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    if fmt:
        p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermiskin",
        description=(
            "Skin-effect field profiles and their slow oscillatory tails "
            "in a degenerate collisionless plasma"
        ),
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("materials", help="print the material table (CGS and SI)")
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_materials)

    p = sub.add_parser("epsilon", help="evaluate the transverse permittivity")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--q", type=float, default=None, help="single wavevector")
    p.add_argument("--grid", default=None, help="q grid as min:max:n")
    _add_common(p)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("kohn-scan", help="localize the permittivity-derivative peak")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", required=True, help="q grid as min:max:n")
    _add_common(p)
    p.set_defaults(func=_cmd_kohn_scan)

    p = sub.add_parser("field", help="numeric field profile E(x)/E'(0)")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--grid", required=True, help="x grid in cm as min:max:n")
    p.add_argument("--method", choices=field.PROFILE_METHODS, default="rescaled")
    p.add_argument("--tol-rel", type=float, default=1e-8, help="mesh tolerance (see README)")
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("asymptotic", help="far-field coefficients or closed-form profile")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--grid", default=None, help="x grid in cm as min:max:n")
    p.add_argument("--normalization", choices=("per_Eprime0", "per_E0"),
                   default="per_Eprime0")
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("crossover", help="exponential-vs-tail crossover depth")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--E0", type=float, default=1.0)
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("figures", help="emit one of the six reference data sets")
    p.add_argument("--fig", type=int, required=True, choices=(1, 2, 3, 4, 5, 6))
    p.add_argument("--eps", type=float, default=1e-4,
                   help="collision parameter for the fig-1 scan")
    p.add_argument("--E0", type=float, default=1.0)
    _add_common(p, material=True, fmt=False)
    p.set_defaults(func=_cmd_figures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
