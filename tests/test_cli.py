import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from fermiskin import cli, field, quadrature

GOLDEN_DIR = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


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
        code, out, err = run_cli(
            capsys, ["epsilon", "--Omega", "0.1", "--eps", "0", "--q", "0.05"]
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "q,re_eps_tr,im_eps_tr"
        q, re, im = rows[1].split(",")
        assert q == "0.05"
        assert im == "0"

    def test_kohn_scan_meta(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["kohn-scan", "--Omega", "0.08", "--eps", "1e-4",
             "--grid", "0.02:0.2:500", "--format", "json"],
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["q_star"] == pytest.approx(0.08004064128256513, rel=1e-12)
        assert meta["refined_step"] == pytest.approx(3.6072144288577153e-7, rel=1e-12)
        assert meta["n_skipped"] == 0

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

    def test_environment_extends_table(self, capsys, tmp_path, monkeypatch):
        # FERMISKIN_MATERIALS alone, no --config: the listing extends and
        # shadows the built-ins the same way a material lookup does
        cfg = tmp_path / "mats.json"
        cfg.write_text(json.dumps([
            {"name": "cs", "n_e_cm3": 0.91e22},
            {"name": "na", "n_e_cm3": 2.60e22},
        ]))
        monkeypatch.setenv("FERMISKIN_MATERIALS", str(cfg))
        code, out, _ = run_cli(capsys, ["materials", "--format", "json"])
        assert code == 0
        rows = {row[0]: row for row in json.loads(out)["rows"]}
        assert set(rows) == {"al", "au", "cs", "na"}
        assert rows["cs"][1] == 0.91e22
        assert rows["na"][1] == 2.60e22

    def test_failed_point_reads_nan_in_every_column(self, capsys, monkeypatch):
        # the transform fails at 3e-5 cm (phase 2580) and returns at 1e-6 cm
        # (phase 86): one mesh serves both depths, so the failure is made in
        # the per-depth step. The CSV prints nan in all three value columns,
        # and the JSON, which has no NaN, null
        real = field.oscillatory_halfline

        def flaky(phase, *args, **kwargs):
            if phase > 1e3:
                raise quadrature.QuadratureError("panel budget 20000 exhausted at error 1e-9")
            return real(phase, *args, **kwargs)

        monkeypatch.setattr(field, "oscillatory_halfline", flaky)
        argv = ["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-6:3e-5:2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert "point 1 (x = 3e-05 cm) failed: QuadratureError: panel budget 20000" in err
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[1].count("nan") == 0
        assert rows[2] == "3e-05,nan,nan,nan"

        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        ok, failed = json.loads(out, parse_constant=no_constants)["rows"]
        assert None not in ok
        assert failed == [3e-5, None, None, None]

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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(wrapper), "materials"],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "na" in proc.stdout

    def test_runtime_imports_no_scipy(self):
        # numpy is the only runtime dependency: importing the package,
        # running a command and taking a skin-layer field point, an ibp
        # point and a far-zone point at eps = 0 (the Bessel table and the
        # sine integral among them) must not load scipy
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
            "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

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
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["epsilon", "--Omega", "0.1", "--q", "0.05", "--grid", "0.1:0.2:5"],
             "epsilon needs exactly one of --q or --grid"),
            (["epsilon", "--Omega", "0.1"],
             "epsilon needs exactly one of --q or --grid"),
            (["kohn-scan", "--Omega", "0.08", "--eps", "1e-4", "--grid", "0.2:0.1:50"],
             "--grid needs min < max"),
            (["field", "--Omega", "0.01", "--grid", "1e-5:3e-5:3",
              "--material", "unobtainium"],
             "unknown material"),
            (["crossover", "--Omega", "1e-2", "--E0", "1e5"],
             "no crossover: Friedel tail dominates everywhere"),
            (["field", "--Omega", "1", "--grid", "1e-6:2e-6:2"],
             "dispersion root on contour"),
            (["field", "--Omega", "1.02", "--grid", "1e-6:2e-6:2"],
             "dispersion root on contour"),
        ],
    )
    def test_module_errors_exit_1_verbatim(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert fragment in err

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
            (["field", "--Omega", "0.01", "--grid", "1e-5:inf:3"],
             "--grid needs finite min and max"),
            (["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-5:3e-5:2",
              "--tol-rel", "nan"],
             "tol_rel must be finite and in (0, 1), got nan"),
            (["field", "--Omega", "0.01", "--eps", "1e-4", "--grid", "1e-5:3e-5:2",
              "--tol-rel", "-1"],
             "tol_rel must be finite and in (0, 1), got -1.0"),
            (["crossover", "--Omega", "1e-2", "--E0", "nan"],
             "E0 must be finite and > 0, got nan"),
            (["epsilon", "--Omega", "0.1", "--q", "nan"],
             "q must be finite, got nan"),
        ],
    )
    def test_non_finite_inputs_rejected(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert fragment in err
        assert out == ""

    def test_nan_materials_file_rejected(self, capsys, tmp_path):
        # NaN is valid JSON to Python's reader; it must not load as a metal
        cfg = tmp_path / "mats.json"
        cfg.write_text('[{"name": "x", "n_e_cm3": 2.65e22, "omega_p": NaN, "v_F": NaN}]')
        argv = ["asymptotic", "--Omega", "1e-2", "--material", "x", "--config", str(cfg)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert "material 'x': omega_p must be finite and > 0, got nan" in err
        assert out == ""
