import argparse
import importlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from fermiskin import asymptotic, cli, quadrature

GOLDEN_DIR = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
README = Path(__file__).parent.parent / "README.md"


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def strip_csv_stamp(text: str) -> str:
    lines = text.split("\n")
    assert lines[0].startswith("# generated: ")
    return "\n".join(lines[1:])


def strip_json_stamp(text: str) -> str:
    doc = json.loads(text)
    assert doc.pop("generated", None) is not None
    return json.dumps(doc, indent=2) + "\n"


def check_golden(name: str, text: str, regen: bool):
    path = GOLDEN_DIR / name
    if regen:
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    if not path.exists():
        pytest.fail(f"golden file {name} missing; run pytest --regen-golden")
    assert text == path.read_text(encoding="utf-8")


def fresh_env() -> dict:
    """os.environ with the directory that holds the fermiskin under test put
    first on PYTHONPATH, so that a fresh interpreter imports that one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_fresh(*args, cwd=None) -> str:
    """Run `python *args` in a fresh interpreter, assert that it exits 0, and
    return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env=fresh_env(), cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def readme_block(section: str, lang: str) -> list[str]:
    """The lines inside the README's ```lang fences between `## section` and
    the next `## ` heading: the blocks that TestReadme runs."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith(f"## {section}"))
    out, inside = [], False
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if inside and line == "```":
            inside = False
        elif not inside and line == f"```{lang}":
            inside = True
        elif inside:
            out.append(line)
    return out


README_COMMANDS = [l for l in readme_block("Command line", "sh") if l.startswith("fermiskin ")]


# stdout-emitting invocations
STDOUT_CASES = [
    ("materials_all.csv", ["materials"]),
    ("materials_na.json", ["materials", "--material", "na", "--format", "json"]),
    ("epsilon_grid.csv",
     ["epsilon", "--Omega", "0.1", "--eps", "0.01", "--grid", "0.03:0.2:8"]),
    ("epsilon_single.csv",
     ["epsilon", "--Omega", "0.1", "--eps", "0", "--q", "0.05"]),
    ("kohn_scan.csv",
     ["kohn-scan", "--Omega", "0.08", "--eps", "1e-4", "--grid", "0.02:0.2:500"]),
    ("asymptotic_coef.csv", ["asymptotic", "--Omega", "1e-2", "--material", "na"]),
    ("asymptotic_profile.csv",
     ["asymptotic", "--Omega", "1e-2", "--material", "na",
      "--grid", "1e-4:3e-4:5", "--normalization", "per_E0"]),
    ("crossover_na.csv", ["crossover", "--Omega", "1e-2"]),
    ("crossover_na.json", ["crossover", "--Omega", "1e-2", "--format", "json"]),
]

# the numeric field profile, through the integration kernels
FIELD_CASES = [
    ("field_rescaled.csv",
     ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-5:3e-5:3"]),
    ("field_ibp.json",
     ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "2e-5:4e-5:2",
      "--method", "ibp", "--format", "json"]),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("name,argv", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
    def test_stdout_payloads(self, capsys, regen_golden, name, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert err == ""
        strip = strip_json_stamp if name.endswith(".json") else strip_csv_stamp
        check_golden(name, strip(out), regen_golden)

    @pytest.mark.parametrize("name,argv", FIELD_CASES, ids=[c[0] for c in FIELD_CASES])
    def test_field_payloads(self, capsys, regen_golden, name, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert err == ""
        strip = strip_json_stamp if name.endswith(".json") else strip_csv_stamp
        check_golden(name, strip(out), regen_golden)

    @pytest.mark.parametrize("fig", [1, 2, 3, 4, 5, 6])
    def test_figures(self, capsys, regen_golden, tmp_path, fig):
        out_path = tmp_path / f"fig{fig}.csv"
        code, out, err = run_cli(
            capsys, ["figures", "--fig", str(fig), "--output", str(out_path)]
        )
        assert code == 0
        assert out.startswith("wrote ")
        check_golden(
            f"fig{fig}.csv",
            strip_csv_stamp(out_path.read_text(encoding="utf-8")),
            regen_golden,
        )
        if fig in (5, 6):
            sidecar = tmp_path / f"fig{fig}.json"
            check_golden(
                f"fig{fig}_meta.json",
                strip_json_stamp(sidecar.read_text(encoding="utf-8")),
                regen_golden,
            )


class TestBehavior:
    def test_epsilon_below_threshold_has_zero_imag(self, capsys):
        # q = 0 too, on the small-q series: eps_tr = 1 - 1/Omega^2 there
        for q_arg in ("0.05", "0"):
            code, out, err = run_cli(
                capsys, ["epsilon", "--Omega", "0.1", "--eps", "0", "--q", q_arg]
            )
            assert code == 0
            rows = [l for l in out.splitlines() if l and not l.startswith("#")]
            assert rows[0] == "q,re_eps_tr,im_eps_tr"
            q, re, im = rows[1].split(",")
            assert q == q_arg
            assert im == "0"

    def test_epsilon_at_a_huge_wavevector(self, capsys):
        # eps_tr -> 1 + 3 pi i / (4 Omega q): a finite row, not an overflow
        code, out, err = run_cli(
            capsys, ["epsilon", "--Omega", "0.1", "--eps", "0.01", "--q", "1e200"]
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        q, re, im = map(float, rows[1].split(","))
        assert (q, re) == (1e200, 1.0)
        assert im == pytest.approx(3.0 * math.pi / (4.0 * 0.1 * 1e200), rel=1e-11)

    def test_kohn_scan_meta(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["kohn-scan", "--Omega", "0.08", "--eps", "1e-4",
             "--grid", "0.02:0.2:500", "--format", "json"],
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert list(meta) == ["Omega", "eps", "q_star", "max_abs_derivative"]
        assert meta["q_star"] == pytest.approx(0.08004078578352956, rel=1e-12)
        assert meta["max_abs_derivative"] == pytest.approx(13792.028339264314, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["epsilon", "--Omega", "0.1", "--eps", "0.01", "--grid", "0.03:0.2:8"],
        ["kohn-scan", "--Omega", "0.08", "--eps", "1e-4", "--grid", "0.02:0.2:50"],
        ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-5:3e-5:3"],
        ["asymptotic", "--Omega", "1e-2", "--grid", "1e-4:3e-4:5"],
        ["crossover", "--Omega", "1e-2", "--material", "al"],
    ], ids=lambda argv: argv[0])
    def test_csv_comments_are_the_json_meta(self, capsys, argv):
        # one writer: the CSV comments are the JSON meta as `key = value`,
        # same keys in the same order, numbers as %.12g
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        comments = [l[2:] for l in strip_csv_stamp(out).splitlines() if l.startswith("# ")]
        code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
        assert code == 0
        meta = json.loads(out)["meta"]
        assert comments == [f"{k} = {v if isinstance(v, str) else '%.12g' % v}"
                            for k, v in meta.items()]

    def test_materials_table_is_sorted(self, capsys):
        code, out, _ = run_cli(capsys, ["materials", "--format", "json"])
        doc = json.loads(out)
        names = [row[0] for row in doc["rows"]]
        assert names == sorted(names)
        assert set(names) == {"al", "au", "na"}

    def test_config_file_extends_table(self, capsys, tmp_path):
        cfg = tmp_path / "mats.json"
        cfg.write_text(json.dumps([{"name": "cs", "n_e_cm3": 0.91e22}]))
        code, out, _ = run_cli(
            capsys, ["materials", "--config", str(cfg), "--format", "json"]
        )
        assert code == 0
        names = [row[0] for row in json.loads(out)["rows"]]
        assert "cs" in names and "na" in names

    def test_environment_is_not_read(self, capsys, tmp_path, monkeypatch):
        # --config is the only route to a materials file: a variable naming
        # one changes neither the listing nor a lookup
        cfg = tmp_path / "mats.json"
        cfg.write_text(json.dumps([
            {"name": "cs", "n_e_cm3": 0.91e22},
            {"name": "na", "n_e_cm3": 2.60e22},
        ]))
        monkeypatch.setenv("FERMISKIN_MATERIALS", str(cfg))
        code, out, _ = run_cli(capsys, ["materials", "--format", "json"])
        assert code == 0
        rows = {row[0]: row for row in json.loads(out)["rows"]}
        assert set(rows) == {"al", "au", "na"}
        assert rows["na"][1] == 2.65e22
        code, _, err = run_cli(capsys, ["crossover", "--Omega", "1e-2", "--material", "cs"])
        assert code == 1
        assert "unknown material 'cs'" in err

    def test_non_finite_value_reads_null_in_json(self, capsys):
        # JSON has no NaN or inf: a non-finite cell goes out as null
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        rows = [[0.08, math.nan], [0.09, math.inf], ["na", 1.5]]
        cli._emit(argparse.Namespace(format="json", output=None), "kohn-scan", {},
                  ["q", "abs_d_eps_dq"], rows)
        doc = json.loads(capsys.readouterr().out, parse_constant=no_constants)
        assert doc["rows"] == [[0.08, None], [0.09, None], ["na", 1.5]]

    def test_mesh_failure_exits_1(self, capsys, monkeypatch):
        # every depth shares one mesh: a mesh past its panel budget fails the
        # whole profile with the quadrature's message, and no rows are written
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 10)
        argv = ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-6:3e-5:2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("panel budget 10 exhausted at error ")
        assert err.count("\n") == 1
        assert out == ""

    def test_output_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "eps.csv"
        code, out, err = run_cli(
            capsys,
            ["epsilon", "--Omega", "0.1", "--q", "0.3", "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# generated: ")

    def test_figures_default_filename(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, ["figures", "--fig", "1"])
        assert code == 0
        assert Path("fig1.csv").exists()

    def test_console_script(self, tmp_path):
        # the declared entry point, run the way the wrapper that an
        # install generates runs it, without needing an install
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: the test extra brings tomli
            import tomli as tomllib
        scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
        assert "fermiskin" in scripts, "no fermiskin console script declared"
        ep = EntryPoint("fermiskin", scripts["fermiskin"], "console_scripts")
        assert ep.load() is cli.main
        wrapper = tmp_path / "fermiskin"
        wrapper.write_text(
            f"import sys\nfrom {ep.module} import {ep.attr}\n"
            f"if __name__ == '__main__':\n    sys.exit({ep.attr}())\n",
            encoding="utf-8",
        )
        assert "na" in run_fresh(str(wrapper), "materials", cwd=tmp_path)

    def test_runtime_imports_no_scipy(self):
        # numpy is the only runtime dependency: importing the package,
        # running a command and taking a skin-layer field point, an ibp
        # point and a far-zone point at eps = 0 (the Bessel table and the
        # Lorentzian's exponential among them) must not load scipy, nor
        # numpy.polynomial (1 MB and 5 ms of start-up for Gauss nodes)
        script = (
            "import contextlib, io, json, sys\n"
            "import fermiskin\n"
            "from fermiskin import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(['materials'])\n"
            "assert code == 0 and 'na' in out.getvalue()\n"
            "na = fermiskin.get_material('na')\n"
            "p = fermiskin.params_for(na, 1e-2, 1e-4)\n"
            "x = 0.05 * na.v_F / (1e-2 * na.omega_p)\n"
            "_, info = fermiskin.field_ratio_rescaled(x, p, full_output=True)\n"
            "fermiskin.field_ratio_ibp(x, p)\n"
            "al = fermiskin.params_for(fermiskin.get_material('al'), 1e-2, 0.0)\n"
            "fermiskin.field_ratio_rescaled(1.6e-3, al)\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'scipy'\n"
            "                        or m.startswith('numpy.polynomial'))))\n"
        )
        assert json.loads(run_fresh("-c", script).splitlines()[-1]) == []

    def test_start_up_footprint(self, tmp_path):
        # a fresh process that takes a rescaled and an ibp point loads neither
        # numpy.ma (np.unique imports it on first call), json, dataclasses,
        # nor the submodules the points do not run; a field command loads no
        # numpy.ma either; every export resolves on first access, star import
        # included
        script = (
            "import contextlib, io, sys\n"
            "import fermiskin\n"
            "p = fermiskin.params_for(fermiskin.get_material('na'), 1e-2, 1e-4)\n"
            "fermiskin.field_ratio_rescaled(1e-5, p)\n"
            "fermiskin.field_ratio_ibp(1e-5, p)\n"
            "unwanted = ['numpy.ma', 'json', 'dataclasses', 'fermiskin.analysis',\n"
            "            'fermiskin.asymptotic', 'fermiskin.permittivity', 'fermiskin.cli']\n"
            "print(sorted(set(unwanted) & set(sys.modules)))\n"
            "from fermiskin import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['field', '--Omega', '1e-2', '--eps', '1e-4',\n"
            "                     '--grid', '1e-6:1e-5:4']) == 0\n"
            "print(sorted({'numpy.ma'} & set(sys.modules)))\n"
            "names = {}\n"
            "exec('from fermiskin import *', names)\n"
            "print(sorted(set(fermiskin.__all__) - set(names)))\n"
            "print(sorted(set(fermiskin.__all__) - set(dir(fermiskin))))\n"
        )
        assert run_fresh("-c", script, cwd=tmp_path).splitlines() == ["[]"] * 4

    # the fermiskin modules a subcommand loads besides cli, constants and
    # materials
    SUBCOMMAND_MODULES = {
        "materials": [],
        "epsilon": ["_kernels", "permittivity"],
        "kohn-scan": ["_kernels", "permittivity"],
        "figures --fig 1": ["_kernels", "permittivity"],
        "asymptotic": ["asymptotic"],
        **{f"figures --fig {n}": ["asymptotic"] for n in (2, 3, 4)},
        "crossover": ["asymptotic"],
        **{f"figures --fig {n}": ["asymptotic"] for n in (5, 6)},
        "field": ["_kernels", "field", "quadrature"],
    }
    # the subcommands that run without numpy: the material table and the
    # closed forms
    NUMPY_FREE = {"materials", "asymptotic", "crossover",
                  *(f"figures --fig {n}" for n in range(2, 7))}
    GOLDEN_COMMANDS = [argv for _, argv in STDOUT_CASES + FIELD_CASES] + [
        ["figures", "--fig", str(n)] for n in range(1, 7)
    ]

    @pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=" ".join)
    def test_subcommand_footprint(self, tmp_path, argv):
        # each golden command, in a fresh interpreter, loads only the modules
        # it runs, and never dataclasses
        script = (
            "import contextlib, io, json, sys\n"
            "from fermiskin import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m[10:] for m in sys.modules\n"
            "                               if m.startswith('fermiskin.')),\n"
            "                  'numpy' in sys.modules, 'dataclasses' in sys.modules]))\n"
        )
        out = run_fresh("-c", script, *argv, cwd=tmp_path)
        key = " ".join(argv[:3]) if argv[0] == "figures" else argv[0]
        expected = sorted(["cli", "constants", "materials", *self.SUBCOMMAND_MODULES[key]])
        assert json.loads(out) == [0, expected, key not in self.NUMPY_FREE, False]

    def test_closed_forms_run_with_numpy_blocked(self, tmp_path):
        # the nine closed-form golden commands, in one fresh interpreter in
        # which importing numpy raises, write their golden payloads; there
        # the Python API's closed-form values and crossover are plain floats
        cases = [(name, argv) for name, argv in STDOUT_CASES
                 if argv[0] in ("asymptotic", "crossover")]
        cases += [(f"fig{n}.csv", ["figures", "--fig", str(n), "--output",
                                   str(tmp_path / f"fig{n}.csv")]) for n in range(2, 7)]
        assert len(cases) == 9
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "import fermiskin\n"
            "from fermiskin import cli\n"
            "outs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    outs.append(out.getvalue())\n"
            "na = fermiskin.get_material('na')\n"
            "ys = fermiskin.asymptotic_values([1e-4, 2e-4], 1e-2, na)\n"
            "x_star = fermiskin.crossover(1e-2, na).x_star\n"
            "assert all(type(v) is float for v in [*ys, x_star]), (ys, x_star)\n"
            "print(json.dumps([outs, ys, x_star]))\n"
        )
        argv_list = json.dumps([argv for _, argv in cases])
        outs, ys, x_star = json.loads(run_fresh("-c", script, argv_list, cwd=tmp_path))
        na = cli.get_material("na")
        assert ys == asymptotic.asymptotic_values([1e-4, 2e-4], 1e-2, na)
        assert x_star == asymptotic.crossover(1e-2, na).x_star
        payloads = {}
        for (name, argv), out in zip(cases, outs):
            if argv[0] == "figures":
                payloads[name] = strip_csv_stamp((tmp_path / name).read_text(encoding="utf-8"))
                if name in ("fig5.csv", "fig6.csv"):
                    meta = name.replace(".csv", "_meta.json")
                    sidecar = tmp_path / name.replace(".csv", ".json")
                    payloads[meta] = strip_json_stamp(sidecar.read_text(encoding="utf-8"))
            else:
                strip = strip_json_stamp if name.endswith(".json") else strip_csv_stamp
                payloads[name] = strip(out)
        assert len(payloads) == 11
        for name, text in payloads.items():
            assert text == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name

    def test_method_choices_are_the_profile_methods(self):
        # spelled out in cli, so that parsing does not import field
        from fermiskin.field import PROFILE_METHODS

        parser = cli.build_parser()
        for method in PROFILE_METHODS:
            args = parser.parse_args(["field", "--Omega", "0.01", "--grid", "1e-5:3e-5:3",
                                      "--method", method])
            assert args.method == method

    def test_exports(self):
        import fermiskin

        assert len(fermiskin.__all__) == 35
        for name in fermiskin.__all__:
            assert getattr(fermiskin, name) is not None, name
        with pytest.raises(AttributeError, match="no attribute 'field_ratio_direct'"):
            fermiskin.field_ratio_direct

    # the field lists of the result records, as they were as dataclasses
    RECORD_FIELDS = {
        "materials.Material": ["name", "n_e"],
        "materials.PlasmaParams": ["material", "Omega", "eps"],
        "quadrature.QuadratureResult": ["value", "error", "tail_bound", "s_max", "q_max",
                                        "n_panels", "n_evals", "n_tail_terms", "branch"],
        "field.FieldPointInfo": ["value", "abs_err_est", "phase", "quad"],
        "field.FieldProfile": ["xs", "values", "abs_err", "params", "method", "diagnostics"],
        "analysis.FitResult": ["slope", "intercept", "r_squared", "window", "n_points"],
        "analysis.WavelengthEstimate": ["wavelength", "std", "n_crossings", "crossings"],
        "asymptotic.CrossoverResult": ["x_star", "g_residual", "iterations"],
        "permittivity.KohnScanResult": ["q_star", "max_abs_derivative", "grid", "values"],
    }

    @pytest.mark.parametrize("path", sorted(RECORD_FIELDS))
    def test_record_fields(self, path):
        module, name = path.split(".")
        record = getattr(importlib.import_module(f"fermiskin.{module}"), name)
        assert list(record._fields) == self.RECORD_FIELDS[path]

    @pytest.mark.skipif(
        shutil.which("fermiskin") is None,
        reason="fermiskin console script is not installed on PATH",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("fermiskin"), "materials"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "na" in proc.stdout


class TestPlainFloatGrids:
    """The closed-form commands build their grids in plain floats; numpy's
    linspace and geomspace are the oracles."""

    def test_linspace_is_numpy_bit_for_bit(self):
        import numpy as np

        grids = [cli._parse_grid(a[a.index("--grid") + 1])
                 for _, a in STDOUT_CASES + FIELD_CASES if "--grid" in a]
        grids += [(lo, hi, n) for lo, hi, n, _, _ in cli._FIG_PROFILE.values()]
        # a span of two subnormals, where numpy's step rounds to 0
        grids.append((0.0, 1e-323, 6))
        rng = np.random.default_rng(25)
        for _ in range(500):
            lo, hi = sorted(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-300, 300, 2))
            grids.append((float(lo), float(hi), int(rng.integers(2, 300))))
        for lo, hi, n in grids:
            assert cli._linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)

    def test_geomspace_and_exponential_match_numpy(self):
        # figures 5-6 plot B/x^2 and exp(-k x) on a 300-point geometric grid;
        # math and numpy may differ in the last bit of log10, 10**v and exp,
        # so exp is compared at the same depths
        import numpy as np

        na = cli.get_material("na")
        k = na.omega_p / cli.SPEED_OF_LIGHT
        ranges = []
        for Om in cli._FIG_CROSSOVER.values():
            x_star = asymptotic.crossover(Om, na).x_star
            ranges.append((x_star / 20.0, x_star * 4.0))
        rng = np.random.default_rng(25)
        ranges += [tuple(sorted(10.0 ** rng.uniform(-9.0, -3.0, 2))) for _ in range(20)]
        for lo, hi in ranges:
            xs = cli._geomspace(lo, hi, 300)
            ref = np.geomspace(lo, hi, 300)
            assert xs[0] == lo and xs[-1] == hi
            np.testing.assert_allclose(xs, ref, rtol=1e-15, atol=0)
            np.testing.assert_allclose([math.exp(-k * x) for x in xs],
                                       np.exp(-k * np.array(xs)), rtol=1e-15, atol=0)


class TestReadme:
    def test_command_block_is_found(self):
        assert README_COMMANDS

    @pytest.mark.parametrize("line", README_COMMANDS)
    def test_command_runs(self, capsys, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, shlex.split(line)[1:])
        assert code == 0, err
        assert err == ""

    def test_python_api_block_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = "\n".join(readme_block("Python API", "python"))
        assert "profile(" in source
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
        capsys.readouterr()


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["materials", "--bogus"],
            ["epsilon"],
            ["figures", "--fig", "9"],
            # the figure payloads are CSV with a JSON sidecar by design;
            # there is no --format switch to misuse
            ["figures", "--fig", "1", "--format", "json"],
            # the closed form is the asymptotic subcommand, not a method
            ["field", "--Omega", "0.01", "--grid", "1e-5:3e-5:3",
             "--method", "asymptotic"],
            # the direct axis is a cross-check in the tests, not a method
            ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-5:3e-5:3",
             "--method", "direct"],
            # the mesh has one tolerance, the kernel's rounding floor
            ["field", "--Omega", "0.01", "--grid", "1e-5:3e-5:3", "--tol-rel", "1e-8"],
            # B is the closed form's; no surface-field scale multiplies it
            ["crossover", "--Omega", "1e-2", "--E0", "1"],
            ["figures", "--fig", "5", "--E0", "1"],
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("fig,option,value", [
        # each figure is the paper's: eps = 1e-4 for figure 1, na for
        # figures 5-6 and the built-in table are fixed, so the fixed values
        # themselves are refused too
        (1, "--eps", "1e-4"),
        (5, "--material", "na"),
        (1, "--material", "au"),
        (2, "--material", "au"),
        (4, "--material", "au"),
        (2, "--eps", "1e-3"),
        (6, "--eps", "1e-3"),
        (1, "--config", "mats.json"),
        (5, "--config", "mats.json"),
    ])
    def test_figure_option_refused(self, capsys, tmp_path, fig, option, value):
        out_path = tmp_path / "fig.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["figures", "--fig", str(fig), option, value, "--output", str(out_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("normalization", ["per_E0", "per_Eprime0"])
    def test_normalization_needs_grid(self, capsys, normalization):
        # the coefficient row gives both A and B, so a normalization without
        # --grid would be ignored; its meta names none
        with pytest.raises(SystemExit) as exc:
            cli.main(["asymptotic", "--Omega", "1e-2", "--normalization", normalization])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "asymptotic --normalization needs --grid" in err
        code, out, _ = run_cli(capsys, ["asymptotic", "--Omega", "1e-2", "--format", "json"])
        assert code == 0
        assert "normalization" not in json.loads(out)["meta"]

    def test_figures_help_lists_only_fig_and_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["figures", "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {
            "--help", "--fig", "--output"}

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["epsilon", "--Omega", "0.1", "--q", "0.05", "--grid", "0.1:0.2:5"],
             "argument --grid: not allowed with argument --q"),
            (["epsilon", "--Omega", "0.1"],
             "one of the arguments --q --grid is required"),
            (["kohn-scan", "--Omega", "0.08", "--eps", "1e-4", "--grid", "0.2:0.1:50"],
             "--grid needs min < max"),
            (["field", "--Omega", "0.01", "--grid", "1e-5:3e-5:x"],
             "--grid must be min:max:n with numeric parts, got '1e-5:3e-5:x'"),
            (["asymptotic", "--Omega", "0.01", "--grid", "a:3e-5:3"],
             "--grid must be min:max:n with numeric parts, got 'a:3e-5:3'"),
            (["field", "--Omega", "0.01", "--grid", "1e-5:3e-5"],
             "--grid must be min:max:n, got '1e-5:3e-5'"),
            (["asymptotic", "--Omega", "0.01", "--grid", "1e-5:3e-5:3:4"],
             "--grid must be min:max:n, got '1e-5:3e-5:3:4'"),
            (["kohn-scan", "--Omega", "0.08", "--eps", "1e-4", "--grid", "0.02:0.2:1"],
             "--grid needs n >= 2, got 1"),
            (["field", "--Omega", "0.01", "--grid", "1e-5:inf:3"],
             "--grid needs finite min and max"),
        ],
    )
    def test_grid_usage_errors_exit_2_verbatim(self, capsys, argv, fragment):
        # argparse refuses the grid and the --q/--grid choice before any
        # module runs
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert fragment in err

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["field", "--Omega", "0.01", "--grid", "1e-5:3e-5:3",
              "--material", "unobtainium"],
             "unknown material"),
            # dense.json stands for a file holding a metal at n_e = 5e28 cm^-3
            (["crossover", "--Omega", "1e-2", "--material", "dense", "--config", "dense.json"],
             "no crossover: Friedel tail dominates everywhere"),
            (["field", "--Omega", "1", "--grid", "1e-6:2e-6:2"],
             "dispersion root on contour"),
            (["field", "--Omega", "1.02", "--grid", "1e-6:2e-6:2"],
             "dispersion root on contour"),
            (["asymptotic", "--Omega", "1e-2", "--grid", "1e300:1e301:2"],
             "the closed form overflows a float at x = 1e+300 cm"),
            # d2 eps/dq2 for the ibp kernel takes |Omega + i eps|^3
            (["field", "--Omega", "0.01", "--eps", "1e200", "--grid", "1e-5:3e-5:2",
              "--method", "ibp"],
             "x = 1e-05 cm: eps = 1e+200 is too large for d2 eps/dq2: its series takes "
             "|Omega + i eps|^3, which overflows past |Omega + i eps| = 5.644e+102"),
        ],
    )
    def test_module_errors_exit_1_verbatim(self, capsys, tmp_path, argv, fragment):
        cfg = tmp_path / "dense.json"
        cfg.write_text('[{"name": "dense", "n_e_cm3": 5e28}]')
        code, out, err = run_cli(capsys, [str(cfg) if a == cfg.name else a for a in argv])
        assert code == 1
        assert fragment in err
        # the message alone, on one line, and no rows
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["epsilon", "--Omega", "nan", "--q", "0.05"],
             "Omega must be finite and > 0, got nan"),
            (["epsilon", "--Omega", "0.1", "--eps", "nan", "--q", "0.05"],
             "eps must be finite and >= 0, got nan"),
            (["asymptotic", "--Omega", "nan"],
             "Omega must be finite and > 0, got nan"),
            (["crossover", "--Omega", "nan"],
             "Omega must be finite and > 0, got nan"),
            (["kohn-scan", "--Omega", "0.08", "--eps", "inf", "--grid", "0.02:0.2:50"],
             "eps must be finite and >= 0, got inf"),
            # finite depths whose phase overflows
            (["field", "--Omega", "1e-2", "--grid", "1e299:1e300:2"],
             "x = 1e+299 cm: phase 8.60079e+306 times the mesh end S = "),
            (["crossover", "--Omega", "inf"],
             "Omega must be finite and > 0, got inf"),
            (["epsilon", "--Omega", "0.1", "--q", "nan"],
             "q must be finite, got nan"),
            # finite inputs whose values overflow a float
            (["field", "--Omega", "1e-160", "--grid", "1e-6:1e-5:2"],
             "Omega = 1e-160 is too small for material 'na'"),
            (["epsilon", "--Omega", "1e-320", "--q", "1"],
             "value overflows at q = 1, Omega = 9.99989e-321, eps = 0"),
            (["field", "--Omega", "1e-148", "--grid", "1e-6:1e-5:2"],
             "Omega = 1e-148 is too small for material 'na': the field prefactor overflows"),
            (["field", "--Omega", "1e-150", "--grid", "1e-6:1e-5:2"],
             "Omega = 1e-150 is too small for material 'na': the field prefactor overflows"),
            (["asymptotic", "--Omega", "1e160"],
             "Omega = 1e+160 is too large for material 'na': the closed form overflows"),
            (["crossover", "--Omega", "1e160"],
             "Omega = 1e+160 is too large for material 'na': the closed form overflows"),
            # A = 0 where a denominator product overflows under float *
            (["asymptotic", "--Omega", "1e70"],
             "Omega = 1e+70 is too large for material 'na': the closed form overflows"),
            (["asymptotic", "--Omega", "1e70", "--grid", "1e-4:3e-4:3"],
             "Omega = 1e+70 is too large for material 'na': the closed form overflows"),
            (["crossover", "--Omega", "1e70"],
             "Omega = 1e+70 is too large for material 'na': the closed form overflows"),
        ],
    )
    def test_non_finite_inputs_rejected(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert fragment in err
        assert out == ""

    def test_epsilon_takes_no_cube_of_eps(self, capsys):
        # eps_tr needs no |Omega + i eps|^3, so an eps past d2's bound prints
        code, out, err = run_cli(capsys, ["epsilon", "--Omega", "0.05", "--eps", "1e200",
                                          "--q", "0.05"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "0.05,1,2e-199"

    def test_closed_pipe_exits_0(self):
        # a reader that stops after the first line closes the pipe while the
        # command still writes 1.3 MB, 20 times the 64 KiB pipe buffer: the
        # command stops there and exits 0, with nothing on stderr. Unbuffered,
        # sys.stdout drops what the pipe did not take without an error, so
        # the command would never see the closed pipe
        argv = [sys.executable, "-m", "fermiskin", "epsilon", "--Omega", "0.1",
                "--eps", "0.01", "--grid", "0.03:0.2:30000"]
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"# generated: ")
            proc.stdout.close()
            assert proc.wait(timeout=120) == 0
            assert proc.stderr.read() == b""

    def test_nan_materials_file_rejected(self, capsys, tmp_path):
        # NaN is valid JSON to Python's reader; it must not load as a metal
        cfg = tmp_path / "mats.json"
        cfg.write_text('[{"name": "x", "n_e_cm3": NaN}]')
        argv = ["asymptotic", "--Omega", "1e-2", "--material", "x", "--config", str(cfg)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert "material 'x': n_e must be finite and > 0, got nan" in err
        assert out == ""

    def test_materials_file_malformed_entry_rejected(self, capsys, tmp_path):
        # JSON true is no density, though bool is an int to Python
        cfg = tmp_path / "mats.json"
        cfg.write_text('[{"name": "k", "n_e_cm3": 1.4e22}, {"name": "x", "n_e_cm3": true}]')
        code, out, err = run_cli(capsys, ["materials", "--config", str(cfg)])
        assert code == 1
        assert f"{cfg}: entry 1 needs a string 'name' and a number 'n_e_cm3', " \
            "got \"x\" and true" in err
        assert out == ""

    @pytest.mark.parametrize("key", ["omega_p", "v_F"])
    def test_materials_file_plasma_key_rejected(self, capsys, tmp_path, key):
        # omega_p and v_F follow from n_e; an entry cannot set either
        cfg = tmp_path / "mats.json"
        cfg.write_text(f'[{{"name": "x", "n_e_cm3": 2.65e22, "{key}": 1e8}}]')
        code, out, err = run_cli(capsys, ["materials", "--config", str(cfg)])
        assert code == 1
        assert f"unknown keys ['{key}']" in err
        assert out == ""
