import contextlib
import glob
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io

import smfpca
from smfpca import TriangleMesh, cli, load_mesh, save_mesh, selection
from smfpca.serialize import load_json, read_data_csv, write_data_csv


def run(argv):
    return cli.main([str(a) for a in argv])


def simulate_sphere(outdir, n=12, noise=0.1, seed=7, extra=()):
    code = run(
        ["simulate", "--generator", "sphere", "--sphere", 1,
         "--outdir", outdir, "--n", n, "--noise", noise, "--seed", seed]
        + list(extra)
    )
    assert code == 0
    return outdir


# -- simulate ---------------------------------------------------------


def test_simulate_writes_expected_files(tmp_path):
    simulate_sphere(tmp_path)
    for name in ("mesh.off", "data.csv", "truth.json", "manifest.json"):
        assert (tmp_path / name).exists()
    data = read_data_csv(tmp_path / "data.csv")
    mesh = load_mesh(tmp_path / "mesh.off")
    assert data.shape == (12, mesh.K)
    truth = load_json(tmp_path / "truth.json")
    assert truth["generator"] == "sphere"
    assert truth["noiseSigma"] == 0.1


def test_simulate_reruns_byte_identical(tmp_path):
    a = simulate_sphere(tmp_path / "a")
    b = simulate_sphere(tmp_path / "b")
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()


def test_simulate_rejects_mesh_and_sphere_together(tmp_path, sphere1):
    mesh_path = tmp_path / "m.off"
    save_mesh(sphere1, mesh_path)
    code = run(
        ["simulate", "--generator", "sphere", "--mesh", mesh_path,
         "--sphere", 1, "--outdir", tmp_path]
    )
    assert code == 2


def test_simulate_misaligned_needs_sphere(tmp_path, tetra, capsys):
    mesh_path = tmp_path / "tetra.off"
    save_mesh(tetra, mesh_path)
    code = run(
        ["simulate", "--generator", "misaligned", "--mesh", mesh_path,
         "--outdir", tmp_path]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_simulate_eigen_open_mesh_warns(tmp_path, right_triangle):
    mesh_path = tmp_path / "tri.off"
    save_mesh(right_triangle, mesh_path)
    with pytest.warns(UserWarning, match="natural boundary"):
        code = run(
            ["simulate", "--generator", "eigen", "--mesh", mesh_path,
             "--outdir", tmp_path, "--eigen-indices", "1",
             "--sigmas", "2.0", "--n", 5]
        )
    assert code == 0


# -- fit --------------------------------------------------------------


def fit_args(src, outdir, extra=()):
    return (
        ["fit", "--mesh", src / "mesh.off", "--data", src / "data.csv",
         "--outdir", outdir, "--n-components", 2]
        + list(extra)
    )


def test_fit_produces_result_bundle(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    out = tmp_path / "fit"
    code = run(fit_args(src, out, ["--selection", "fixed",
                                   "--fixed-lambda", "1e-5"]))
    assert code == 0
    result = load_json(out / "result.json")
    assert len(result["components"]) == 2
    assert result["components"][0]["lambda"] == 1e-5
    assert result["meanField"] is not None
    scores = np.genfromtxt(out / "scores.csv", delimiter=",", skip_header=1)
    assert scores.shape == (12, 2)
    mesh = load_mesh(src / "mesh.off")
    vertex_values = np.genfromtxt(
        out / "vertex_values.csv", delimiter=",", skip_header=1
    )
    assert vertex_values.shape == (mesh.K, 2)
    assert (out / "scores.csv").read_text().splitlines()[0] == "pc_1,pc_2"
    manifest = load_json(out / "manifest.json")
    assert manifest["command"] == "fit"
    # a fixed fit searches no grid, so its manifest names none
    assert manifest["config"]["lambda_grid"] is None
    assert "numpy" in manifest["versions"]


def test_fit_records_convergence(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    fixed = ["--selection", "fixed", "--fixed-lambda", "1e-5"]
    assert run(fit_args(src, tmp_path / "fit", fixed)) == 0
    result = load_json(tmp_path / "fit" / "result.json")
    assert [c["converged"] for c in result["components"]] == [True, True]
    with pytest.warns(UserWarning, match="cap of 1 iterations") as records:
        assert run(fit_args(src, tmp_path / "capped",
                            fixed + ["--max-iterations", 1])) == 0
    assert len(records) == 2
    capped = load_json(tmp_path / "capped" / "result.json")
    assert [c["converged"] for c in capped["components"]] == [False, False]


def test_fit_manifest_rerun_byte_identical(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    out1 = tmp_path / "f1"
    out2 = tmp_path / "f2"
    assert run(fit_args(src, out1)) == 0
    code = run(
        ["fit", "--config", out1 / "manifest.json", "--outdir", out2]
    )
    assert code == 0
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()


def test_fit_gcv_writes_history(tmp_path, monkeypatch):
    # every location count is above this limit, so traces come from probes
    monkeypatch.setattr(selection, "EXACT_TRACE_LIMIT", 1)
    src = tmp_path / "sim"
    assert run(["simulate", "--generator", "sphere", "--sphere", 2,
                "--n", 20, "--seed", 3, "--outdir", src]) == 0
    out = tmp_path / "fit"
    assert run(fit_args(src, out, ["--selection", "gcv"])) == 0
    for comp in load_json(out / "result.json")["components"]:
        trace = comp["selection"]
        assert trace["method"] == "gcv"
        assert trace["history"]
        assert set(trace["history"]) <= set(trace["lambdaGrid"])
        assert trace["history"][-1] == trace["chosenLambda"] == comp["lambda"]


def test_fit_missing_mesh_exit_2(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    code = run(
        ["fit", "--mesh", tmp_path / "nope.off", "--data", src / "data.csv",
         "--outdir", tmp_path]
    )
    assert code == 2
    assert "nope.off" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--selection", "fixed", "--fixed-lambda", "inf"],
    ["--lambda-grid", "1e-3,inf"],
])
def test_fit_non_finite_lambda_exit_2(tmp_path, capsys, extra):
    src = simulate_sphere(tmp_path / "sim")
    assert run(fit_args(src, tmp_path / "fit", extra)) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config", [
    (["--fixed-lambda", "1e-3"], {}),
    (["--selection", "kfold", "--fixed-lambda", "1e-3"], {}),
    (["--selection", "gcv", "--fixed-lambda", "1e-3"], {}),
    (["--selection", "fixed", "--fixed-lambda", "1e-3", "--lambda-grid", "1,2"], {}),
    (["--fixed-lambda", "1e-3"], {"selection": "kfold"}),
    (["--selection", "fixed"], {"fixed_lambda": 1e-3, "lambda_grid": [1.0, 2.0]}),
    (["--fixed-lambda", "1e-3"], {"selection": "fixed", "lambda_grid": [1.0]}),
], ids=["default-kfold", "kfold", "gcv", "fixed-with-grid", "config-kfold",
        "config-grid", "flag-over-config-grid"])
def test_fit_fixed_lambda_beside_a_search_exit_2(tmp_path, capsys, flags, config):
    # a fixed lambda is neither dropped by a search nor recorded beside
    # a grid it did not search
    src = simulate_sphere(tmp_path / "sim")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(fit_args(src, tmp_path / "fit", ["--config", cfg, *flags])) == 2
    assert "--fixed-lambda needs --selection fixed and no --lambda-grid" in (
        capsys.readouterr().err)
    assert not (tmp_path / "fit" / "manifest.json").exists()


@pytest.mark.parametrize("extra", [
    ["--n-components", "0"], ["--seed", "-2"], ["--max-iterations", "-3"],
    ["--tolerance", "nan"], ["--tolerance", "-1"],
])
def test_fit_invalid_numeric_option_exit_2(tmp_path, capsys, extra):
    src = simulate_sphere(tmp_path / "sim")
    assert run(fit_args(src, tmp_path / "fit", extra)) == 2
    assert extra[0][2:].replace("-", "_") in capsys.readouterr().err


def test_negative_seed_exit_2(tmp_path, capsys):
    sim = ["simulate", "--generator", "sphere", "--sphere", 1, "--n", 12,
           "--outdir", tmp_path / "neg"]
    assert run(sim + ["--seed", -3]) == 2
    assert "seed must be non-negative, got -3" in capsys.readouterr().err
    src = simulate_sphere(tmp_path / "sim")
    assert run(fit_args(src, tmp_path / "fit", ["--seed", "-1"])) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    assert run(sim + ["--config", config]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists() and not (tmp_path / "fit").exists()


@pytest.mark.parametrize("generator", [
    ["--generator", "sphere"], ["--generator", "eigen"],
])
def test_negative_noise_exit_2(tmp_path, capsys, generator):
    sim = ["simulate", *generator, "--sphere", 1, "--n", 12]
    assert run(sim + ["--noise", -1, "--outdir", tmp_path / "flag"]) == 2
    assert "noise" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise": -0.5}))
    assert run(sim + ["--config", config, "--outdir", tmp_path / "config"]) == 2
    assert "noise" in capsys.readouterr().err


@pytest.mark.parametrize("extra, name", [
    (["--noise", "inf"], "noise"),
    (["--sigmas", "nan,1"], "sigmas"),
    (["--generator", "misaligned", "--sigmas", "inf"], "sigmas"),
])
def test_non_finite_generator_sigma_exit_2(tmp_path, capsys, extra, name):
    sim = ["simulate", "--sphere", 1, "--n", 6, "--outdir", tmp_path]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(sim + extra) == 2
    assert name in capsys.readouterr().err


SIM = ["simulate", "--sphere", 1, "--n", 6]
FIT = ["fit", "--mesh", "mesh.off", "--n-components", 2]

# Each case: arguments (run in a level-1 simulation's directory), exit
# code and the message that names the fault.
FAILING = {
    "sphere": (["simulate", "--sphere", -1], 2, "subdivisions must be nonnegative"),
    "eigen-indices": (SIM + ["--generator", "eigen", "--eigen-indices", ""],
                      2, "eigen_selection is empty"),
    "shift-set-empty": (SIM + ["--generator", "misaligned", "--shift-set", ""],
                        2, "shift_set must be a nonempty sequence"),
    "shift-set-inf": (SIM + ["--generator", "misaligned", "--shift-set", "inf"],
                      2, "shift_set must be finite"),
    "fixed-no-lambda": (FIT + ["--data", "data.csv", "--selection", "fixed"],
                        2, "fixed selection needs a one-point lambda grid"),
    "missing-files": (["fit", "--mesh", "nope.off", "--data", "nope.csv"],
                      2, "file not found: nope.off"),
    "noise-inf": (SIM + ["--noise", "inf"], 2, "noise sigma must be finite"),
    "constant-data": (FIT + ["--data", "constant.csv"],
                      3, "data matrix is identically zero"),
    "sigmas-empty": (SIM + ["--sigmas", ""], 2, "expected two sigmas, got (0,)"),
    "eigen-sigmas-empty": (SIM + ["--generator", "eigen", "--sigmas", ""],
                           2, "need one sigma per eigenfunction, got (0,)"),
    "misaligned-sigmas-2": (SIM + ["--generator", "misaligned", "--sigmas", "4,2"],
                            2, "--sigmas: misaligned takes one sigma, got 2"),
    "misaligned-sigmas-0": (SIM + ["--generator", "misaligned", "--sigmas", ""],
                            2, "--sigmas: misaligned takes one sigma, got 0"),
    "unreferenced-vertex": (["fit", "--mesh", "orphan.off", "--data", "orphan.csv"],
                            2, "vertex not referenced by any triangle (element 42)"),
    "masked-zero-data": (FIT + ["--data", "zero-gappy.csv"],
                         3, "observations accumulate to zero everywhere"),
    "result-no-components": (["evaluate", "--result", "empty-result.json",
                              "--truth", "truth.json"],
                             2, "result document holds no components"),
}

# the one warning each of these cases gives before it fails
FAILING_WARNINGS = {
    "unreferenced-vertex": "mesh has vertices not referenced by any triangle",
    "masked-zero-data": "data has missing entries",
}


@pytest.fixture(scope="module")
def sim_inputs(tmp_path_factory):
    """A level-1 simulation, plus on its mesh a constant data matrix and
    all-zero data with 20% blank cells; the mesh with one more vertex,
    which no triangle references, and data for it; and a result document
    without components."""
    src = simulate_sphere(tmp_path_factory.mktemp("sim"))
    mesh = load_mesh(src / "mesh.off")
    write_data_csv(src / "constant.csv", np.ones((5, mesh.K)))
    zero = np.zeros((5, mesh.K))
    zero[np.random.default_rng(0).random(zero.shape) < 0.2] = np.nan
    write_data_csv(src / "zero-gappy.csv", zero)
    with pytest.warns(UserWarning, match="not referenced"):
        orphan = TriangleMesh(np.vstack([mesh.vertices, [2.0, 0.0, 0.0]]),
                              mesh.triangles)
    save_mesh(orphan, src / "orphan.off")
    write_data_csv(src / "orphan.csv", np.ones((5, orphan.K)))
    (src / "empty-result.json").write_text('{"components": []}\n')
    return src


@pytest.mark.parametrize("case", FAILING)
def test_failing_command_writes_nothing(tmp_path, capsys, monkeypatch,
                                        sim_inputs, case):
    argv, code, message = FAILING[case]
    monkeypatch.chdir(sim_inputs)
    outdir = tmp_path / "out"
    warned = FAILING_WARNINGS.get(case)
    with (pytest.warns(UserWarning, match=warned) if warned
          else contextlib.nullcontext()):
        assert run(argv + ["--outdir", outdir]) == code
    assert message in capsys.readouterr().err
    assert not outdir.exists()


def test_failing_command_leaves_existing_outdir_as_it_was(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("kept\n")
    assert run(SIM + ["--noise", "inf", "--outdir", tmp_path]) == 2
    assert "noise" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    assert (tmp_path / "notes.txt").read_text() == "kept\n"


def test_fit_components_past_the_data_exit_3(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    extra = ["--selection", "fixed", "--fixed-lambda", "1e-3",
             "--n-components", "100"]
    # components 3 to 10 stop at the iteration cap before the data run out
    with pytest.warns(UserWarning, match="the alternation stopped at its cap") as caught:
        assert run(fit_args(src, tmp_path / "fit", extra)) == 3
    assert len(caught) == 8
    assert "component 12: the data are exhausted" in capsys.readouterr().err


def test_fit_data_not_utf8_exit_2(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    bad = tmp_path / "latin1.csv"
    bad.write_bytes((src / "data.csv").read_bytes() + b"\xe9\n")
    code = run(["fit", "--mesh", src / "mesh.off", "--data", bad,
                "--outdir", tmp_path])
    assert code == 2
    assert "UTF-8" in capsys.readouterr().err


def python(*args, env=(), **kwargs):
    """Run a fresh interpreter with this package's source on its path and
    the variables ``env`` added to its environment."""
    paths = [str(Path(smfpca.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **dict(env),
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, **kwargs)


# Loaded by the CLI only where a command uses them: importing them is a
# large share of a process's start-up.
_HEAVY_MODULES = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph",
                  "scipy.spatial")


def test_cli_import_leaves_out_scipy_spatial():
    code = ("import sys, smfpca.cli; "
            f"print([m for m in {_HEAVY_MODULES!r} if m in sys.modules])")
    out = python("-c", code, check=True).stdout
    assert out.strip() == "[]"


# Runs a command in a fresh process, then prints its exit code, whether
# the LAPACK wrappers and SuperLU were loaded when the fit began (None
# without a fit), and whether SuperLU and the sparse graph module were
# loaded at the end.
_LOADED_AT_FIT = """
import sys
import smfpca.cli
from smfpca import estimator

seen = [None, None]

def probe(fit):
    def probed(*args, **kwargs):
        seen[:] = [m in sys.modules for m in ("scipy.linalg", "scipy.sparse.linalg")]
        return fit(*args, **kwargs)
    return probed

estimator.fit = probe(estimator.fit)
estimator.fit_missing = probe(estimator.fit_missing)
code = smfpca.cli.main(sys.argv[1:])
print(code, *seen, "scipy.sparse.linalg" in sys.modules,
      "scipy.sparse.csgraph" in sys.modules)
"""


def test_only_fit_loads_the_sparse_solver(tmp_path):
    # A dense fit factors only through the band routines of scipy.linalg;
    # SuperLU loads during a fit whose system needs the saddle form, as a
    # masked fit with a never-observed vertex does.
    sim, fit, ev = tmp_path / "sim", tmp_path / "fit", tmp_path / "ev"
    simulate_sphere(sim)
    blank = read_data_csv(sim / "data.csv")
    blank[:, 3] = np.nan
    write_data_csv(tmp_path / "blank.csv", blank)
    fit_common = ["--mesh", sim / "mesh.off", "--n-components", "2",
                  "--selection", "fixed", "--fixed-lambda", "1e-4"]
    commands = {
        "simulate": ["simulate", "--generator", "sphere", "--sphere", "1",
                     "--n", "12", "--outdir", tmp_path / "sim2"],
        "fit": ["fit", "--data", sim / "data.csv", "--outdir", fit, *fit_common],
        "masked fit": ["fit", "--data", tmp_path / "blank.csv",
                       "--outdir", tmp_path / "masked", *fit_common],
        "evaluate": ["evaluate", "--result", fit / "result.json",
                     "--truth", sim / "truth.json", "--mesh", sim / "mesh.off",
                     "--data", sim / "data.csv", "--outdir", ev],
        "mesh-info": ["mesh-info", "--mesh", sim / "mesh.off"],
    }
    loaded = {}
    for name, argv in commands.items():
        out = python("-c", _LOADED_AT_FIT, *map(str, argv), check=True).stdout
        loaded[name] = out.splitlines()[-1]
    assert loaded == {"simulate": "0 None None False False",
                      "fit": "0 True False False False",
                      "masked fit": "0 True False True False",
                      "evaluate": "0 None None False False",
                      "mesh-info": "0 None None False False"}


def test_fit_blas_thread_count_keeps_choices(tmp_path):
    # Two BLAS threads would round the level-4 banded factorization
    # differently (about 2e-16 relative); the command pins the bundled
    # BLAS copies to one thread, so the outputs keep every byte.
    sim = tmp_path / "sim"
    assert run(["simulate", "--generator", "sphere", "--sphere", 4,
                "--n", 50, "--seed", 5, "--outdir", sim]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = {name: threads for name in ("OPENBLAS_NUM_THREADS",
                                          "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        argv = fit_args(sim, out, ["--selection", "gcv"])
        python("-m", "smfpca.cli", *map(str, argv), env=env, check=True)
        outputs.append({name: (out / name).read_bytes() for name in
                        ("result.json", "scores.csv", "vertex_values.csv")})
    assert outputs[0] == outputs[1]


_BLAS_THREADS = """
import ctypes, glob, os, sys
import smfpca.cli as cli

def counts():
    found = {}
    for package, (pattern, suffix) in cli._BLAS_COPIES.items():
        for path in glob.glob(pattern):
            try:
                blas = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            found[package] = blas[f"scipy_openblas_get_num_threads{suffix}"]()
    return found

inside = {}

def probe(command):
    def probed(config):
        outputs = command(config)
        inside.update(counts())
        return outputs
    return probed

for name in ("cmd_fit", "cmd_simulate", "cmd_evaluate", "cmd_mesh_info"):
    setattr(cli, name, probe(getattr(cli, name)))
before = counts()
code = cli.main(sys.argv[1:])
print(code, before, inside, counts())
"""


def test_commands_pin_the_blas_they_load_and_restore_it(tmp_path):
    # Under two BLAS threads, each loaded bundled copy reads one thread
    # once the command's computation has run (the eigen generator's
    # ARPACK and a fit's band factorization included), and its old count
    # after. mesh-info computes nothing with BLAS and pins nothing.
    sim = simulate_sphere(tmp_path / "sim")
    assert run(fit_args(sim, tmp_path / "fit", ["--selection", "fixed",
                                                "--fixed-lambda", "1e-3"])) == 0
    commands = {
        "fit": fit_args(sim, tmp_path / "fit2", ["--selection", "fixed",
                                                 "--fixed-lambda", "1e-3"]),
        "eigen": ["simulate", "--generator", "eigen", "--sphere", 2,
                  "--n", 12, "--outdir", tmp_path / "eigen"],
        "sphere": ["simulate", "--generator", "sphere", "--sphere", 1,
                   "--n", 12, "--outdir", tmp_path / "sphere"],
        "evaluate": ["evaluate", "--result", tmp_path / "fit" / "result.json",
                     "--truth", sim / "truth.json", "--mesh", sim / "mesh.off",
                     "--data", sim / "data.csv", "--outdir", tmp_path / "ev"],
        "mesh-info": ["mesh-info", "--mesh", sim / "mesh.off"],
    }
    env = {name: "2" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}
    seen = {}
    for name, argv in commands.items():
        out = python("-c", _BLAS_THREADS, *map(str, argv), env=env, check=True)
        assert "cannot pin" not in out.stderr
        seen[name] = out.stdout.splitlines()[-1]
    both = "0 {'numpy': 2} {'numpy': 1, 'scipy': 1} {'numpy': 2, 'scipy': 2}"
    numpy_only = "0 {'numpy': 2} {'numpy': 1} {'numpy': 2}"
    assert seen == {"fit": both, "eigen": both, "sphere": numpy_only,
                    "evaluate": numpy_only,
                    "mesh-info": "0 {'numpy': 2} {'numpy': 2} {'numpy': 2}"}


def test_blas_pin_tries_every_matching_file(tmp_path, monkeypatch):
    # a stale file sorted before the loaded copy does not hide it
    pattern, suffix = cli._BLAS_COPIES["numpy"]
    loaded = cli.ctypes.CDLL(glob.glob(pattern)[0], mode=os.RTLD_NOLOAD)
    get = loaded[f"scipy_openblas_get_num_threads{suffix}"]
    set_ = loaded[f"scipy_openblas_set_num_threads{suffix}"]
    (tmp_path / "libblas-a.so").write_bytes(b"")
    (tmp_path / "libblas-b.so").symlink_to(glob.glob(pattern)[0])
    monkeypatch.setitem(cli._BLAS_COPIES, "numpy",
                        (str(tmp_path / "libblas-*.so"), suffix))
    inside = []
    simulate = cli.cmd_simulate

    def probed(config):
        inside.append(get())
        return simulate(config)

    monkeypatch.setattr(cli, "cmd_simulate", probed)
    original = get()
    set_(2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_sphere(tmp_path / "sim")
        assert inside == [1] and get() == 2
    finally:
        set_(original)


def test_missing_blas_setter_warns_once(tmp_path, monkeypatch):
    src = simulate_sphere(tmp_path / "sim")
    monkeypatch.setattr(cli, "_BLAS_COPIES", {
        "numpy": (cli._BLAS_COPIES["numpy"][0], "_absent"),
        "scipy": (str(tmp_path / "no_such_blas-*.so"), ""),
    })
    with pytest.warns(UserWarning, match="cannot pin the BLAS") as records:
        assert run(fit_args(src, tmp_path / "fit", ["--selection", "fixed",
                                                    "--fixed-lambda", "1e-3"])) == 0
    assert len(records) == 1
    assert "of numpy and scipy to" in str(records[0].message)
    # a command that computes nothing with BLAS does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["mesh-info", "--mesh", src / "mesh.off"]) == 0


def test_console_entry_point(tmp_path):
    version = python("-m", "smfpca.cli", "--version")
    assert version.returncode == 0
    assert version.stdout.strip() == smfpca.__version__
    missing = tmp_path / "nope.off"
    fit = python("-m", "smfpca.cli", "fit", "--mesh", str(missing), "--data",
                 str(missing), "--outdir", str(tmp_path / "out"))
    assert fit.returncode == 2
    assert fit.stderr == f"smfpca: error: file not found: {missing}\n"
    assert not (tmp_path / "out").exists()


def test_console_warning_reads_like_an_error(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    values = read_data_csv(src / "data.csv")
    values[::3, ::4] = np.nan
    gappy = tmp_path / "gappy.csv"
    write_data_csv(gappy, values)
    fit = python("-m", "smfpca.cli", "fit", "--mesh", str(src / "mesh.off"),
                 "--data", str(gappy), "--outdir", str(tmp_path / "fit"),
                 "--selection", "fixed", "--fixed-lambda", "1e-3")
    assert fit.returncode == 0
    assert fit.stderr == ("smfpca: warning: data has missing entries: fitting "
                          "per-function observations, centering skipped\n")


def test_fit_bad_data_cell_exit_2(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    bad = tmp_path / "bad.csv"
    lines = (src / "data.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "oops"
    lines[2] = ",".join(cells)
    bad.write_text("\n".join(lines) + "\n")
    code = run(
        ["fit", "--mesh", src / "mesh.off", "--data", bad,
         "--outdir", tmp_path]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "column 2" in err


def test_fit_missing_entries_warns_and_fits(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    values = read_data_csv(src / "data.csv")
    values[0, 3] = np.nan
    write_data_csv(src / "data.csv", values)
    out = tmp_path / "fit"
    with pytest.warns(UserWarning, match="missing entries"):
        code = run(fit_args(src, out, ["--selection", "fixed",
                                       "--fixed-lambda", "1e-4",
                                       "--n-components", 1]))
    assert code == 0
    result = load_json(out / "result.json")
    assert result["meanField"] is None


def test_fit_gcv_rejects_missing_data(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    values = read_data_csv(src / "data.csv")
    values[1, 1] = np.nan
    write_data_csv(src / "data.csv", values)
    with pytest.warns(UserWarning, match="missing entries"):
        code = run(fit_args(src, tmp_path, ["--selection", "gcv"]))
    assert code == 2
    assert "kfold" in capsys.readouterr().err


def test_fit_config_not_an_object_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["fit", "--config", cfg, "--outdir", tmp_path]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_fit_without_mesh_exit_2(tmp_path, capsys):
    assert run(["fit", "--data", tmp_path / "data.csv", "--outdir", tmp_path]) == 2
    assert "missing required parameter: --mesh" in capsys.readouterr().err


def test_fit_data_file_not_found_exit_2(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    missing = tmp_path / "nope.csv"
    code = run(["fit", "--mesh", src / "mesh.off", "--data", missing,
                "--outdir", tmp_path])
    assert code == 2
    assert f"file not found: {missing}" in capsys.readouterr().err


def test_fit_data_width_differs_from_mesh_exit_2(tmp_path, capsys, sphere2):
    src = simulate_sphere(tmp_path / "sim")
    mesh_path = tmp_path / "level2.off"
    save_mesh(sphere2, mesh_path)
    code = run(["fit", "--mesh", mesh_path, "--data", src / "data.csv",
                "--outdir", tmp_path])
    assert code == 2
    err = capsys.readouterr().err
    assert "42 data columns" in err and "162 vertices" in err


def test_fit_export_matrices(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    out = tmp_path / "fit"
    code = run(fit_args(src, out, ["--selection", "fixed",
                                   "--fixed-lambda", "1e-4",
                                   "--export-matrices"]))
    assert code == 0
    mesh = load_mesh(src / "mesh.off")
    for name in ("mass.mtx", "stiffness.mtx", "psi.mtx"):
        m = scipy.io.mmread(out / name)
        assert m.shape == (mesh.K, mesh.K)


def test_fit_reads_data_with_byte_order_mark(tmp_path):
    # spreadsheet exports often start UTF-8 text with a byte-order mark
    src = simulate_sphere(tmp_path / "sim")
    marked = tmp_path / "marked"
    marked.mkdir()
    (marked / "mesh.off").write_bytes((src / "mesh.off").read_bytes())
    (marked / "data.csv").write_bytes(
        b"\xef\xbb\xbf" + (src / "data.csv").read_bytes())
    extra = ["--selection", "fixed", "--fixed-lambda", "1e-4"]
    assert run(fit_args(src, tmp_path / "plain", extra)) == 0
    assert run(fit_args(marked, tmp_path / "bom", extra)) == 0
    assert (tmp_path / "bom" / "result.json").read_bytes() == (
        tmp_path / "plain" / "result.json").read_bytes()


def test_config_with_byte_order_mark_is_read(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"sphere": 1, "n": 12}).encode())
    assert run(["simulate", "--config", cfg, "--outdir", tmp_path / "a"]) == 0
    simulate_sphere(tmp_path / "b", seed=0)
    assert (tmp_path / "a" / "data.csv").read_bytes() == (
        tmp_path / "b" / "data.csv").read_bytes()


def test_fit_unknown_config_key_exit_2(tmp_path, capsys):
    src = simulate_sphere(tmp_path / "sim")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": str(src / "mesh.off"),
                               "data": str(src / "data.csv"),
                               "lambda_gird": [1e-4]}))
    code = run(["fit", "--config", cfg, "--outdir", tmp_path])
    assert code == 2
    assert "lambda_gird" in capsys.readouterr().err


def test_fit_thread_option_is_refused(tmp_path, capsys):
    # fits run on one thread; a manifest that still records the retired
    # thread count is refused like any unknown key, and writes nothing
    src = simulate_sphere(tmp_path / "sim")
    old = tmp_path / "old"
    assert run(fit_args(src, old, ["--selection", "fixed",
                                   "--fixed-lambda", "1e-4"])) == 0
    manifest = load_json(old / "manifest.json")
    assert "threads" not in manifest["config"]
    cfg = tmp_path / "old_manifest.json"
    cfg.write_text(json.dumps(dict(manifest["config"], threads=1)))
    capsys.readouterr()
    out = tmp_path / "rerun"
    assert run(["fit", "--config", cfg, "--outdir", out]) == 2
    assert "unknown config keys: threads" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        run(fit_args(src, tmp_path / "flag", ["--threads", 2]))
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists()


@pytest.mark.parametrize("command", ["fit", "simulate", "evaluate", "mesh-info"])
def test_config_keys_are_the_flag_destinations(command):
    # the config check looks each key's flag up here, and a flag left
    # out must parse to None for the config file to show through
    args = cli.build_parser().parse_args([command])
    assert set(args.defaults) == set(args.flags)
    assert all(getattr(args, dest) is None for dest in args.flags)


PARSED_DEFAULTS = {
    "fit": {
        "mesh": None, "data": None, "outdir": ".", "n_components": 3,
        "lambda_grid": None, "selection": "kfold", "folds": 5,
        "fixed_lambda": None, "center": True, "max_iterations": 15,
        "tolerance": 1e-6, "seed": 0, "export_matrices": False,
    },
    "simulate": {
        "generator": "sphere", "mesh": None, "sphere": None, "outdir": ".",
        "n": 50, "noise": 0.1, "seed": 0, "sigmas": None,
        "eigen_indices": [1, 2, 3], "shift_set": [0.0, 0.4],
    },
    "evaluate": {
        "result": None, "truth": None, "outdir": ".", "mesh": None,
        "data": None, "replicate": 0, "method_label": "smfpca",
        "append": False,
    },
    "mesh-info": {"mesh": None},
}


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_bare_command_resolves_to_pinned_defaults(command):
    args = cli.build_parser().parse_args([command])
    config = cli._resolve(args, args.defaults)
    # compared as JSON text too, which tells 0 from 0.0 and 1 from True
    assert config == PARSED_DEFAULTS[command]
    assert (json.dumps(config, sort_keys=True)
            == json.dumps(PARSED_DEFAULTS[command], sort_keys=True))


@pytest.mark.parametrize("config, flags, centered", [
    ({}, ["--no-center"], False),
    ({"center": False}, ["--center"], True),
    ({}, ["--no-center", "--center"], True),
    ({}, ["--center", "--no-center"], False),
], ids=["no-center", "flag-over-config", "last-wins-center",
        "last-wins-no-center"])
def test_fit_centering_flags(tmp_path, config, flags, centered):
    src = simulate_sphere(tmp_path / "sim")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "fit"
    extra = ["--config", cfg, "--selection", "fixed", "--fixed-lambda", "1e-5"]
    assert run(fit_args(src, out, extra + flags)) == 0
    assert (load_json(out / "result.json")["meanField"] is not None) is centered
    assert load_json(out / "manifest.json")["config"]["center"] is centered


@pytest.mark.parametrize("bad", [
    {"n_components": "2"}, {"tolerance": "x"}, {"max_iterations": None},
    {"selection": "fixed", "fixed_lambda": "1"}, {"folds": 2.5},
    {"center": "no"}, {"export_matrices": 1}, {"selection": "loo"},
    {"lambda_grid": 1e-3}, {"lambda_grid": [1e-3, "1"]}, {"seed": True},
])
def test_fit_config_value_of_wrong_type_exit_2(tmp_path, capsys, bad):
    src = simulate_sphere(tmp_path / "sim")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mesh": str(src / "mesh.off"),
                               "data": str(src / "data.csv"), **bad}))
    assert run(["fit", "--config", cfg, "--outdir", tmp_path / "fit"]) == 2
    assert repr(list(bad)[-1]) in capsys.readouterr().err
    assert not (tmp_path / "fit" / "manifest.json").exists()


@pytest.mark.parametrize("bad", [
    {"n": "5"}, {"noise": "0.1"}, {"sphere": 1.7}, {"outdir": 3},
    {"eigen_indices": [1.0]}, {"generator": "torus"},
])
def test_simulate_config_value_of_wrong_type_exit_2(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sphere": 1, **bad}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--outdir", out]) == 2
    assert repr(list(bad)[-1]) in capsys.readouterr().err
    assert not out.exists()


def test_config_numbers_and_nulls_accepted(tmp_path):
    # JSON integers stand for floats, and null for a null default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sphere": 1, "n": 12, "noise": 0, "seed": 7,
                               "sigmas": [4, 2], "mesh": None}))
    assert run(["simulate", "--config", cfg, "--outdir", tmp_path / "a"]) == 0
    simulate_sphere(tmp_path / "b", noise=0.0)
    for name in ("data.csv", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name).read_bytes()
    rerun = ["simulate", "--config", tmp_path / "a" / "manifest.json",
             "--outdir", tmp_path / "c"]
    assert run(rerun) == 0
    assert (tmp_path / "a" / "data.csv").read_bytes() == (
        tmp_path / "c" / "data.csv").read_bytes()


# -- evaluate ---------------------------------------------------------


def fitted_bundle(tmp_path):
    src = simulate_sphere(tmp_path / "sim")
    out = tmp_path / "fit"
    assert run(fit_args(src, out, ["--selection", "fixed",
                                   "--fixed-lambda", "1e-5"])) == 0
    return src, out


def test_evaluate_writes_report_and_rows(tmp_path):
    src, out = fitted_bundle(tmp_path)
    ev = tmp_path / "ev"
    code = run(
        ["evaluate", "--result", out / "result.json",
         "--truth", src / "truth.json", "--outdir", ev]
    )
    assert code == 0
    report = load_json(ev / "evaluation.json")
    assert len(report["pcFunctionMse"]) == 2
    assert report["principalAngle"] >= 0.0
    lines = (ev / "metrics.csv").read_text().splitlines()
    assert lines[0] == "replicate,method,metric,component,value"
    # 2 per-component metrics x 2 components + 2 aggregates
    assert len(lines) == 1 + 6
    assert all(",smfpca," in line for line in lines[1:])


def test_evaluate_with_baseline_rows(tmp_path):
    src, out = fitted_bundle(tmp_path)
    ev = tmp_path / "ev"
    code = run(
        ["evaluate", "--result", out / "result.json",
         "--truth", src / "truth.json", "--outdir", ev,
         "--mesh", src / "mesh.off", "--data", src / "data.csv",
         "--replicate", 3]
    )
    assert code == 0
    lines = (ev / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 12
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"smfpca", "mv-pca"}
    assert all(line.split(",")[0] == "3" for line in lines[1:])


def test_evaluate_baseline_needs_full_data_exit_2(tmp_path, capsys):
    src, out = fitted_bundle(tmp_path)
    values = read_data_csv(src / "data.csv")
    values[2, 5] = np.nan
    gappy = tmp_path / "gappy.csv"
    write_data_csv(gappy, values)
    code = run(["evaluate", "--result", out / "result.json",
                "--truth", src / "truth.json", "--outdir", tmp_path / "ev",
                "--mesh", src / "mesh.off", "--data", gappy])
    assert code == 2
    assert "needs fully observed data" in capsys.readouterr().err


def test_evaluate_append_mode(tmp_path):
    src, out = fitted_bundle(tmp_path)
    ev = tmp_path / "ev"
    args = ["evaluate", "--result", out / "result.json",
            "--truth", src / "truth.json", "--outdir", ev]
    # appending to a fresh directory starts the file a plain run writes
    assert run(args[:-1] + [tmp_path / "plain"]) == 0
    assert run(args + ["--append"]) == 0
    metrics = (ev / "metrics.csv").read_bytes()
    assert metrics == (tmp_path / "plain" / "metrics.csv").read_bytes()
    assert run(args + ["--replicate", 1, "--append"]) == 0
    lines = (ev / "metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 12
    assert sum(line.startswith("replicate") for line in lines) == 1


# -- mesh-info --------------------------------------------------------


def test_mesh_info_reports_census(tmp_path, sphere1, capsys):
    mesh_path = tmp_path / "m.off"
    save_mesh(sphere1, mesh_path)
    assert run(["mesh-info", "--mesh", mesh_path]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["vertices"] == 42
    assert info["triangles"] == 80
    assert info["components"] == 1
    assert info["closed"] is True
    assert info["boundaryEdges"] == 0
    # inscribed polyhedron at the coarsest level sits 7% under 4 pi
    assert info["totalArea"] == pytest.approx(4 * np.pi, rel=0.1)


def test_mesh_info_open_mesh(tmp_path, right_triangle, capsys):
    mesh_path = tmp_path / "tri.off"
    save_mesh(right_triangle, mesh_path)
    assert run(["mesh-info", "--mesh", mesh_path]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["closed"] is False
    assert info["boundaryEdges"] == 3
    assert info["totalArea"] == pytest.approx(0.5, rel=1e-12)


def test_fit_unobserved_mesh_component_exit_3(tmp_path, two_spheres, capsys):
    mesh_path = tmp_path / "two.off"
    save_mesh(two_spheres, mesh_path)
    values = np.random.default_rng(3).standard_normal((8, two_spheres.K))
    values[:, two_spheres.K // 2:] = np.nan
    write_data_csv(tmp_path / "data.csv", values)
    with pytest.warns(UserWarning, match="missing entries"):
        code = run(["fit", "--mesh", mesh_path, "--data", tmp_path / "data.csv",
                    "--n-components", 1, "--selection", "fixed",
                    "--fixed-lambda", "1e-3", "--outdir", tmp_path / "fit"])
    assert code == 3
    assert "mesh component 2 of 2" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()
    assert run(["mesh-info", "--mesh", mesh_path]) == 0
    assert json.loads(capsys.readouterr().out)["components"] == 2


def test_mesh_info_counts_past_the_file_exit_2(tmp_path, capsys, monkeypatch):
    # a counts line claiming 1e11 vertices must not allocate for them
    (tmp_path / "huge.off").write_text("OFF\n100000000000 1 0\n0 0 0\n")
    monkeypatch.chdir(tmp_path)
    assert run(["mesh-info", "--mesh", "huge.off"]) == 2
    captured = capsys.readouterr()
    assert "line 3: unexpected end of file, expected vertex line 1" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["huge.off"]


def test_evaluate_result_missing_field_exit_2(tmp_path, capsys):
    src, out = fitted_bundle(tmp_path)
    doc = load_json(out / "result.json")
    del doc["components"][1]["vertexValues"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run(["evaluate", "--result", bad, "--truth", src / "truth.json",
                "--outdir", tmp_path / "ev"])
    assert code == 2
    assert "component 2 lacks 'vertexValues'" in capsys.readouterr().err


def test_evaluate_result_not_utf8_exit_2(tmp_path, capsys):
    src, out = fitted_bundle(tmp_path)
    bad = tmp_path / "latin1.json"
    bad.write_bytes((out / "result.json").read_bytes().replace(b"{", b"{\xe9", 1))
    code = run(["evaluate", "--result", bad, "--truth", src / "truth.json",
                "--outdir", tmp_path / "ev"])
    assert code == 2
    assert "UTF-8" in capsys.readouterr().err


def test_evaluate_result_directory_exit_2(tmp_path, capsys):
    src, out = fitted_bundle(tmp_path)
    code = run(["evaluate", "--result", out, "--truth", src / "truth.json",
                "--outdir", tmp_path / "ev"])
    assert code == 2
    assert str(out) in capsys.readouterr().err
