"""Command-line surface: every computation as a subcommand emitting CSV/JSON.

Data payloads are deterministic for fixed inputs; the only run-specific
item is an ISO-8601 timestamp carried in a leading comment line (CSV)
or a "generated" field (JSON). Exit codes: 0 success, 2 usage errors,
1 computation errors with the originating module's message verbatim.

Every table, the figures' included, goes out through `_emit`, the one
writer; only the figure 5/6 JSON sidecar is written beside it.

Each subcommand imports the modules it runs in its body. The closed forms
(`asymptotic`, `crossover`, `figures --fig 2-6`) run on `math` and the
`asymptotic` module alone, so only `epsilon`, `kohn-scan`, `field` and
`figures --fig 1` load numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from datetime import datetime, timezone

from .constants import SPEED_OF_LIGHT
from .materials import Material, get_material, material_table, params_for

_G = "%.12g"


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write(path, text):
    """Write text to path (None: stdout)."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_json(path, doc):
    """Write doc as JSON indented by 2, plus a newline, to path (None: stdout)."""
    import json

    _write(path, json.dumps(doc, indent=2) + "\n")


def _emit(args, subcommand, meta, columns, rows, comments=None):
    """Write one table to args.output (None: stdout) as args.format. Cells are
    str, int or Python float; CSV comments default to meta as `key = value`."""
    if args.format == "json":
        doc = {
            "generated": _timestamp(),
            "subcommand": subcommand,
            "meta": meta,
            "columns": columns,
            # JSON cannot spell a non-finite number; one goes out as null
            "rows": [[v if isinstance(v, str) else float(v) if math.isfinite(v) else None
                      for v in row] for row in rows],
        }
        _write_json(args.output, doc)
        return
    if comments is None:
        comments = [f"{k} = {v if isinstance(v, str) else _G % v}" for k, v in meta.items()]
    fh = io.StringIO()
    fh.write(f"# generated: {_timestamp()}\n")
    for line in comments:
        fh.write(f"# {line}\n")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(columns)
    w.writerows([v if isinstance(v, str) else _G % v for v in row] for row in rows)
    _write(args.output, fh.getvalue())


def _parse_grid(text: str) -> tuple[float, float, int]:
    """The argparse type of --grid: min:max:n, a usage error otherwise."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--grid must be min:max:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--grid must be min:max:n with numeric parts, got {text!r}"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"--grid needs finite min and max, got {text!r}")
    if not (lo < hi):
        raise argparse.ArgumentTypeError(f"--grid needs min < max, got {text!r}")
    if n < 2:
        raise argparse.ArgumentTypeError(f"--grid needs n >= 2, got {n}")
    return lo, hi, n


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n) in plain floats, by its arithmetic: node i is
    i * step + lo, and the last node is hi."""
    div, delta = n - 1, hi - lo
    step = delta / div
    if step == 0.0:
        # a subnormal span, scaled as numpy does
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def _geomspace(lo: float, hi: float, n: int) -> list[float]:
    """np.geomspace(lo, hi, n) for 0 < lo < hi in plain floats, by its
    arithmetic: 10 ** nodes of a linspace in log10, with the ends pinned."""
    logs = _linspace(math.log10(lo), math.log10(hi), n)
    return [lo] + [10.0**v for v in logs[1:-1]] + [hi]


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_materials(args) -> int:
    if args.material:
        mats = [get_material(args.material, args.config)]
    else:
        table = material_table(args.config)
        mats = [table[k] for k in sorted(table)]
    rows = [
        {
            "name": m.name,
            "n_e_cm3": m.n_e,
            "n_e_per_m3": m.n_e * 1e6,
            "omega_p_rad_per_s": m.omega_p,
            "v_F_cm_per_s": m.v_F,
            "v_F_m_per_s": m.v_F * 1e-2,
            "delta_cm": m.skin_depth,
            "delta_m": m.skin_depth * 1e-2,
        }
        for m in mats
    ]
    _emit(args, "materials", {"count": len(mats)}, list(rows[0]), map(dict.values, rows), [])
    return 0


def _cmd_epsilon(args) -> int:
    from . import permittivity

    qs = [args.q] if args.grid is None else _linspace(*args.grid)
    vals = permittivity.eps_tr(qs, args.Omega, args.eps)
    meta = {"Omega": args.Omega, "eps": args.eps}
    rows = zip(qs, vals.real.tolist(), vals.imag.tolist())
    _emit(args, "epsilon", meta, ["q", "re_eps_tr", "im_eps_tr"], rows)
    return 0


def _cmd_kohn_scan(args) -> int:
    from . import permittivity

    res = permittivity.kohn_scan(args.Omega, args.eps, *args.grid)
    meta = {
        "Omega": args.Omega,
        "eps": args.eps,
        "q_star": res.q_star,
        "max_abs_derivative": res.max_abs_derivative,
    }
    rows = zip(res.grid.tolist(), res.values.tolist())
    _emit(args, "kohn-scan", meta, ["q", "abs_d_eps_dq"], rows)
    return 0


def _cmd_field(args) -> int:
    from . import field

    params = params_for(get_material(args.material, args.config), args.Omega, args.eps)
    prof = field.profile(_linspace(*args.grid), params, args.method)
    meta = {
        "material": params.material.name,
        "Omega": params.Omega,
        "eps": params.eps,
        "a": params.a,
        "b": params.b,
        "omega_rad_per_s": params.omega,
        "nu_rad_per_s": params.nu,
        "l_cm": "infinite" if params.l == float("inf") else params.l,
        "delta_cm": params.delta,
        "method": args.method,
    }
    rows = zip(prof.xs.tolist(), prof.values.real.tolist(), prof.values.imag.tolist(),
               prof.abs_err.tolist())
    _emit(args, "field", meta, ["x_cm", "re_E_ratio_cm", "im_E_ratio_cm", "abs_err_est"], rows)
    return 0


def _cmd_asymptotic(args) -> int:
    from . import asymptotic

    mat = get_material(args.material, args.config)
    meta = {
        "material": mat.name,
        "Omega": args.Omega,
        "A_cm3": asymptotic.amplitude_A(args.Omega, mat),
        "B_cm2": asymptotic.amplitude_B(args.Omega, mat),
        "f_Omega": asymptotic.f_of_Omega(args.Omega, mat),
        "wavenumber_per_cm": args.Omega * mat.omega_p / mat.v_F,
    }
    if args.grid is None:
        columns = ["Omega", "A_cm3", "B_cm2", "f_Omega", "wavenumber_per_cm"]
        _emit(args, "asymptotic", meta, columns, [[meta[c] for c in columns]],
              [f"material = {mat.name}"])
        return 0
    meta["normalization"] = args.normalization or "per_Eprime0"
    xs = _linspace(*args.grid)
    vals = asymptotic.asymptotic_values(xs, args.Omega, mat,
                                        normalization=meta["normalization"])
    rows = ([x, v, 0.0, 0.0] for x, v in zip(xs, vals))
    _emit(args, "asymptotic", meta, ["x_cm", "re_E_ratio_cm", "im_E_ratio_cm", "abs_err_est"],
          rows)
    return 0


def _crossover_meta(mat: Material, Omega: float, **extra) -> dict:
    """The crossover's fields, for `crossover` and the figure 5/6 sidecar;
    extra fields go after Omega."""
    from . import asymptotic

    res = asymptotic.crossover(Omega, mat)
    return {
        "material": mat.name,
        "Omega": Omega,
        **extra,
        "x_star_cm": res.x_star,
        "x_star_um": res.x_star * 1e4,
        "g_residual": res.g_residual,
        "iterations": res.iterations,
    }


def _cmd_crossover(args) -> int:
    meta = _crossover_meta(get_material(args.material, args.config), args.Omega)
    _emit(args, "crossover", meta, list(meta), [list(meta.values())])
    return 0


# figure recipes, ranges fixed to the source plots: x range, points, the
# meta written as comments, and one (column, material, Omega) per closed-form curve
_FIG_PROFILE = {
    2: (2e-5, 2e-3, 400, {"Omega": 1e-4},
        [(f"E_ratio_{m}_cm", m, 1e-4) for m in ("na", "au", "al")]),
    3: (9e-5, 3e-3, 2000, {"Omega": 1e-3},
        [(f"E_ratio_{m}_cm", m, 1e-3) for m in ("na", "au", "al")]),
    4: (1.5e-3, 1.8e-3, 2000, {"material": "al"},
        [(f"E_ratio_Omega_{om:g}_cm", "al", om) for om in (1e-4, 1e-3, 1e-2)]),
}
# Omega of the two crossover figures, both for na
_FIG_CROSSOVER = {5: 1e-2, 6: 1e-1}


def _cmd_figures(args) -> int:
    fig = args.fig
    out = args.output = args.output or f"fig{fig}.csv"
    if fig in _FIG_CROSSOVER:
        from . import asymptotic

        Om = _FIG_CROSSOVER[fig]
        mat = get_material("na")
        meta = _crossover_meta(mat, Om, B_cm2=asymptotic.amplitude_B(Om, mat))
        B, x_star = meta["B_cm2"], meta["x_star_cm"]
        k = mat.omega_p / SPEED_OF_LIGHT
        xs = _geomspace(x_star / 20.0, x_star * 4.0, 300)
        rows = ([x, B / (x * x), math.exp(-k * x)] for x in xs)
        _emit(
            args, "figures", meta, ["x_cm", "y1", "y2"], rows,
            [
                f"material = {mat.name}",
                f"Omega = {Om:g}",
                "y1 = B/x^2, y2 = exp(-omega_p x/c)",
                f"x_star_cm = {_G % x_star}",
            ],
        )
        sidecar = (out[:-4] if out.endswith(".csv") else out) + ".json"
        _write_json(sidecar, {"generated": _timestamp(), "fig": fig, **meta})
        print(f"wrote {out} and {sidecar}")
        return 0
    if fig == 1:
        from . import permittivity

        eps = 1e-4
        scans = {Om: permittivity.kohn_scan(Om, eps, 0.02, 0.2, 500) for Om in (0.1, 0.08)}
        meta = {"eps": eps}
        cols = ["q"]
        data = [scans[0.1].grid.tolist()]  # the scans share their grid
        for Om, scan in scans.items():
            tag = ("%g" % Om).replace(".", "p")
            cols.append(f"abs_d_eps_dq_Omega_{tag}")
            data.append(scan.values.tolist())
            meta[f"q_star(Omega = {Om:g})"] = scan.q_star
    else:
        from . import asymptotic

        x_lo, x_hi, n, meta, curves = _FIG_PROFILE[fig]
        xs = _linspace(x_lo, x_hi, n)
        cols = ["x_cm"]
        data = [xs]
        for col, name, Om in curves:
            cols.append(col)
            data.append(asymptotic.asymptotic_values(xs, Om, get_material(name)))
    _emit(args, "figures", meta, cols, zip(*data))
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, *, material=False):
    if material:
        p.add_argument("--material", default="na",
                       help="material name from the built-in table or config")
        p.add_argument("--config", default=None, help="materials JSON path")
    p.add_argument("--output", default=None, help="output path (default stdout)")
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
    p.add_argument("--material", default=None, help="print one material (default all)")
    p.add_argument("--config", default=None, help="materials JSON path")
    _add_common(p)
    p.set_defaults(func=_cmd_materials)

    p = sub.add_parser("epsilon", help="evaluate the transverse permittivity")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    q = p.add_mutually_exclusive_group(required=True)
    q.add_argument("--q", type=float, help="single wavevector")
    q.add_argument("--grid", type=_parse_grid, help="q grid as min:max:n")
    _add_common(p)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("kohn-scan", help="localize the permittivity-derivative peak")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, help="q grid as min:max:n")
    _add_common(p)
    p.set_defaults(func=_cmd_kohn_scan)

    p = sub.add_parser("field", help="numeric field profile E(x)/E'(0)")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="x grid in cm as min:max:n")
    # field.PROFILE_METHODS, spelled out so that parsing does not import field
    p.add_argument("--method", choices=("rescaled", "ibp"), default="rescaled")
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("asymptotic", help="far-field coefficients or closed-form profile")
    p.add_argument("--Omega", type=float, required=True)
    p.add_argument("--grid", type=_parse_grid, help="x grid in cm as min:max:n")
    p.add_argument("--normalization", choices=("per_Eprime0", "per_E0"), default=None,
                   help="E/E'(0) or E/E(0) profile, with --grid (default per_Eprime0)")
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("crossover", help="exponential-vs-tail crossover depth")
    p.add_argument("--Omega", type=float, required=True)
    _add_common(p, material=True)
    p.set_defaults(func=_cmd_crossover)

    p = sub.add_parser("figures", help="emit one of the six reference data sets")
    p.add_argument("--fig", type=int, required=True, choices=(1, 2, 3, 4, 5, 6))
    p.add_argument("--output", default=None, help="output path (default figN.csv)")
    p.set_defaults(func=_cmd_figures, format="csv")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.subcommand == "asymptotic" and args.grid is None and args.normalization:
        ap.error("asymptotic --normalization needs --grid: the coefficient row "
                 "gives both A and B")
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(str(exc), file=sys.stderr)
        return 1
