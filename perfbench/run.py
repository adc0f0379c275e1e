"""End-to-end and per-layer benchmark of the ``smfpca`` command line.

    python3 perfbench/run.py --workload kfold-dense-L4 --seed 1 \
        --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` directory. One closed-loop client runs one
repetition at a time, each CLI command in a fresh process with the
default ``--threads 1`` and BLAS pinned to one thread. Inputs are made
from ``--seed`` before timing starts; the program sees only the files.
Untraced timings are scaled to reference seconds by ``calibrate.py``, a
fixed job run between repetitions (see README.md).

``--trace 0`` times untraced repetitions and prints the end-to-end
metrics. ``--trace 1`` adds spans around every layer function (see
``spans.py``) and prints the per-layer metrics. ``--smoke`` shrinks every
workload to a level-1 icosphere. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it, starting with ``#``, record the environment and the
sample counts.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import spans  # noqa: E402  (lives beside this file)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
KFOLD = ("--selection", "kfold", "--folds", "5")
WORKLOADS = {
    "kfold-dense-L4": dict(level=4, n=50, fit=KFOLD, mask=0.0),
    "gcv-dense-L4": dict(level=4, n=50, fit=("--selection", "gcv"), mask=0.0),
    "kfold-masked-L3": dict(level=3, n=50, fit=KFOLD, mask=0.2),
    "study-L4": dict(level=4, n=200,
                     fit=("--selection", "fixed", "--fixed-lambda", "1e-4"),
                     mask=0.0),
}
STUDY = "study-L4"
SMOKE_LEVEL = 1
N_COMPONENTS = 2
NOISE = 0.1
SIGMAS = (4.0, 2.0)
# Accuracy gate: subspace angle between fitted and true components.
ANGLE_BOUND_RAD = {"kfold-masked-L3": 0.1}
DEFAULT_ANGLE_BOUND_RAD = 0.05
# Untraced timings are reported in reference seconds: seconds measured,
# times this nominal duration of calibrate.py over its measured duration.
CALIBRATION_NOMINAL_S = 0.5
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 9
# Stop starting work once this much of the 180 s allowance is used.
WALL_LIMIT_S = 150.0

EXACT_COUNTS = ("solver.factor_count", "solver.solve_count",
                "solver.block_rhs_cols", "estimator.init_count",
                "estimator.component_fits")

# metric -> the spans whose inclusive times (or, below, calls) it sums
SPAN_TIMES = {
    "estimator.init_s": ("estimator.initialize",),
    "estimator.deflate_s": ("estimator.deflate",
                            "estimator._MissingState.deflated"),
    "estimator.weighted_gram_s": ("estimator._MissingState.weighted_gram",),
    "solver.solve_s": ("solver.SaddleSystem.solve",),
    "solver.factor_s": ("solver.SaddleSystem.__init__",),
    "solver.block_solve_s": ("solver.SaddleSystem.solve_many",),
    "selection.grid_s": ("selection.default_lambda_grid",),
    "serialize.read_csv_s": ("serialize.read_data_csv",),
    "serialize.write_csv_s": ("serialize.write_data_csv",
                              "serialize.write_matrix_csv",
                              "serialize.write_metric_rows"),
    "serialize.write_json_s": ("serialize.write_json",),
    "mesh.load_s": ("mesh.load_mesh",),
    "mesh.locations_s": ("mesh.vertex_locations",),
    "mesh.generate_s": ("mesh.unit_sphere_mesh",),
    "fem.assemble_s": ("fem.assemble",),
    "synth.generate_s": ("synth.generate_sphere_dataset",
                         "synth.generate_eigen_dataset",
                         "synth.generate_misaligned_dataset"),
    "metrics.mv_pca_s": ("metrics.mv_pca",),
    "metrics.evaluate_s": ("metrics.evaluate_arrays",),
}
COMPONENT_FITS = ("estimator.fit_component",
                  "estimator._fit_component_missing",
                  "estimator._fit_component_gcv")
SPAN_COUNTS = {
    "estimator.init_count": ("estimator.initialize",),
    "estimator.component_fits": COMPONENT_FITS,
    "solver.solve_count": ("solver.SaddleSystem.solve",),
    "solver.factor_count": ("solver.SaddleSystem.__init__",),
}


# -- processes ---------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def launch(mode, argv, report, log, timeout):
    """Run one CLI command under launch.py; return its timings and report."""
    cmd = [sys.executable, str(HERE / "launch.py"), mode, str(report), *argv]
    with open(log, "ab") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, cwd=str(WORK))
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        end = time.monotonic()
    document = None
    if report.exists():
        with open(report, encoding="utf-8") as handle:
            document = json.load(handle)
        report.unlink()
    return {"start": start, "end": end, "code": code, "report": document}


def simulate_args(level, n, seed, outdir):
    return ["simulate", "--generator", "sphere", "--sphere", str(level),
            "--n", str(n), "--noise", str(NOISE), "--seed", str(seed),
            "--outdir", str(outdir)]


def fit_args(spec, mesh, data, outdir):
    return ["fit", "--mesh", str(mesh), "--data", str(data),
            "--n-components", str(N_COMPONENTS), *spec["fit"],
            "--outdir", str(outdir)]


def evaluate_args(sim, fit, outdir):
    return ["evaluate", "--result", str(fit / "result.json"),
            "--truth", str(sim / "truth.json"), "--mesh", str(sim / "mesh.off"),
            "--data", str(sim / "data.csv"), "--outdir", str(outdir)]


# -- inputs ------------------------------------------------------------------


def make_inputs(spec, level, seed, outdir):
    """Mesh and data files of one workload; returns them and the true fields.

    The data follow the ``sphere`` generator (its two harmonics, noise
    0.1), except that the scores are whitened to the exact sample
    covariance diag(SIGMAS**2). Every seed then has the same eigengap,
    so the alternating fits take a similar number of iterations, and
    the seed moves the score directions, the noise and the mask.
    """
    from smfpca.mesh import save_mesh, unit_sphere_mesh
    from smfpca.synth import sphere_pc_functions

    outdir.mkdir()
    surface = unit_sphere_mesh(level)
    save_mesh(surface, outdir / "mesh.off")
    fields = np.stack(sphere_pc_functions(surface), axis=1)
    rng = np.random.default_rng(seed)
    n = spec["n"]
    raw = rng.standard_normal((n, N_COMPONENTS))
    frame, tri = np.linalg.qr(raw - raw.mean(axis=0))
    scores = frame * np.sign(np.diag(tri)) * SIGMAS * np.sqrt(n)
    values = scores @ fields.T + NOISE * rng.standard_normal((n, surface.K))
    if spec["mask"] > 0:
        values[rng.random(values.shape) < spec["mask"]] = np.nan
    lines = [",".join(str(j) for j in range(surface.K))]
    lines += [",".join(repr(x) if x == x else "" for x in row.tolist())
              for row in values]
    data = outdir / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="ascii")
    return outdir / "mesh.off", data, fields


# -- correctness -------------------------------------------------------------


def _numeric_csv(path, rows, cols):
    body = path.read_text(encoding="ascii").splitlines()[1:]
    if len(body) != rows:
        raise ValueError(f"{path.name}: {len(body)} rows, expected {rows}")
    for line in body:
        cells = line.split(",")
        if len(cells) != cols:
            raise ValueError(f"{path.name}: {len(cells)} cells, expected {cols}")
        for cell in cells:
            if cell:
                float(cell)


def _metric_rows(path, rows):
    lines = path.read_text(encoding="ascii").splitlines()
    if lines[0] != "replicate,method,metric,component,value" or len(lines) != rows + 1:
        raise ValueError(f"{path.name}: unexpected header or row count")
    for line in lines[1:]:
        replicate, method, metric, component, value = line.split(",")
        int(replicate)
        float(value)


def _data_csv(path, rows, cols):
    # Full parse of the first and last rows; cell counts for the rest
    # (the fit and evaluate processes parse every cell).
    raw = path.read_bytes().splitlines()
    if len(raw) != rows + 1:
        raise ValueError(f"{path.name}: {len(raw) - 1} rows, expected {rows}")
    for line in raw:
        if line.count(b",") != cols - 1:
            raise ValueError(f"{path.name}: row width is not {cols}")
    for line in (raw[1], raw[-1]):
        [float(c) for c in line.split(b",") if c]


def _off(path, vertices):
    with open(path, encoding="ascii") as handle:
        if handle.readline().strip() != "OFF":
            raise ValueError("mesh.off: missing OFF header")
        counts = [int(t) for t in handle.readline().split()]
        rest = handle.read().split("\n")
    if counts[0] != vertices or len([r for r in rest if r.strip()]) != counts[0] + counts[1]:
        raise ValueError("mesh.off: element counts do not match")


def check_fit(outdir, n, k):
    """Every fit output parses with the expected shape; returns the
    bytes and the document of result.json."""
    raw = (outdir / "result.json").read_bytes()
    doc = json.loads(raw)
    comps = doc["components"]
    if len(comps) != N_COMPONENTS or any(len(c["vertexValues"]) != k for c in comps):
        raise ValueError("result.json: wrong component count or length")
    json.loads((outdir / "manifest.json").read_bytes())
    _numeric_csv(outdir / "scores.csv", n, N_COMPONENTS)
    _numeric_csv(outdir / "vertex_values.csv", k, N_COMPONENTS)
    return raw, doc


def subspace_angle(truth, result_doc):
    from smfpca.metrics import principal_angle

    est = np.array([c["vertexValues"] for c in result_doc["components"]],
                   dtype=np.float64).T
    return principal_angle(truth, est)


# -- repetitions -------------------------------------------------------------


class Bench:
    """One benchmark run: its inputs, repetitions, probes and failures."""

    def __init__(self, workload, seed, seconds, smoke, workdir):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.level = SMOKE_LEVEL if smoke else self.spec["level"]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.started = time.monotonic()
        self.hard_deadline = self.started + WALL_LIMIT_S
        self.angle_bound = ANGLE_BOUND_RAD.get(workload, DEFAULT_ANGLE_BOUND_RAD)
        self.k = 10 * 4 ** self.level + 2  # icosphere vertex count
        self.result_digest = None
        self.inputs = None
        self.kept = None  # the study's first good repetition, for probes
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def prepare(self):
        if self.name != STUDY:
            self.inputs = make_inputs(self.spec, self.level, self.seed,
                                      self.workdir / "inputs")

    def commands(self, outdir, inputs=None):
        """Arguments of each CLI process in one repetition; the study's
        fit and evaluate read ``inputs`` (a finished repetition) if given."""
        if self.name != STUDY:
            mesh, data, _ = self.inputs
            return [fit_args(self.spec, mesh, data, outdir / "fit")]
        sim = (inputs or outdir) / "sim"
        fit = (inputs or outdir) / "fit"
        return [
            simulate_args(self.level, self.spec["n"], self.seed, outdir / "sim"),
            fit_args(self.spec, sim / "mesh.off", sim / "data.csv", outdir / "fit"),
            evaluate_args(sim, fit, outdir / "eval"),
        ]

    def repetition(self, mode, index):
        """One full repetition; returns its sample or None if it failed."""
        repdir = self.workdir / f"rep{index}"
        log = self.workdir / f"rep{index}.log"
        self.attempted += 1
        runs = []
        try:
            for argv in self.commands(repdir):
                run = launch(mode, argv, self.workdir / "report.json", log,
                             self.hard_deadline + 25.0 - time.monotonic())
                runs.append(run)
                if run["code"] != 0 or run["report"] is None:
                    return self._fail(index, f"{argv[0]} exited {run['code']}", log)
            try:
                angle = self._check_outputs(repdir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return self._fail(index, f"output check: {exc}", log)
            if not angle <= self.angle_bound:
                return self._fail(index, f"principal angle {angle:.4g} rad "
                                  f"exceeds {self.angle_bound} rad", log)
            if self.name == STUDY and self.kept is None:
                self.kept = repdir
        finally:
            if repdir != self.kept:
                shutil.rmtree(repdir, ignore_errors=True)
        sample = {
            "run_s": runs[-1]["end"] - runs[0]["start"],
            "setup_s": sum(r["report"]["first_numeric"] - r["start"] for r in runs),
            "fit_s": sum(r["report"]["fit_s"] for r in runs),
            "peak_rss_mb": max(r["report"]["maxrss_kb"] for r in runs) / 1024.0,
            "principal_angle_rad": angle,
        }
        if mode == "traced":
            sample["layers"] = layer_metrics(runs, sample["run_s"])
        return sample

    def _check_outputs(self, repdir):
        if self.name != STUDY:
            raw, doc = check_fit(repdir / "fit", self.spec["n"], self.k)
            angle = subspace_angle(self.inputs[2], doc)
        else:
            sim = repdir / "sim"
            _off(sim / "mesh.off", self.k)
            _data_csv(sim / "data.csv", self.spec["n"], self.k)
            truth = json.loads((sim / "truth.json").read_bytes())["trueComponents"]
            json.loads((sim / "manifest.json").read_bytes())
            raw, doc = check_fit(repdir / "fit", self.spec["n"], self.k)
            angle = subspace_angle(np.transpose(truth), doc)
            evaluation = json.loads((repdir / "eval" / "evaluation.json").read_bytes())
            json.loads((repdir / "eval" / "manifest.json").read_bytes())
            _metric_rows(repdir / "eval" / "metrics.csv", 2 * (2 * N_COMPONENTS + 2))
            if abs(evaluation["principalAngle"] - angle) > 1e-9:
                raise ValueError("evaluation.json disagrees on the principal angle")
        digest = hashlib.sha256(raw).hexdigest()
        if self.result_digest is None:
            self.result_digest = digest
        elif digest != self.result_digest:
            raise ValueError("result.json differs from the first repetition")
        return angle

    def _fail(self, index, reason, log):
        self.failed += 1
        tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        self.problems.append(f"repetition {index}: {reason}")
        print(f"perfbench: repetition {index} failed: {reason}\n{tail}",
              file=sys.stderr)
        return None

    def setup_probe(self, index):
        """Set-up time only: each process exits at its first numerical call.

        The study's fit and evaluate probes read the outputs kept from the
        first successful repetition.
        """
        probe = self.workdir / f"probe{index}"
        log = self.workdir / f"probe{index}.log"
        self.attempted += 1
        total = 0.0
        for argv in self.commands(probe, inputs=self.kept):
            run = launch("setup", argv, self.workdir / "report.json", log,
                         self.hard_deadline + 25.0 - time.monotonic())
            if run["code"] != 0 or run["report"] is None \
                    or run["report"]["first_numeric"] is None:
                return self._fail(f"probe{index}", f"{argv[0]} set-up probe "
                                  f"exited {run['code']}", log)
            total += run["report"]["first_numeric"] - run["start"]
        shutil.rmtree(probe, ignore_errors=True)
        return total

    def fits(self, estimate):
        """Whether another step of this length ends inside the window."""
        now = time.monotonic()
        return (now - self.measure_start + estimate <= self.seconds
                and now + estimate <= self.hard_deadline)

    def calibrate(self):
        """Wall time of the host-speed reference job (calibrate.py)."""
        start = time.monotonic()
        code = subprocess.run(
            [sys.executable, str(HERE / "calibrate.py")], env=child_env(),
            cwd=str(WORK), stdout=subprocess.DEVNULL, timeout=60).returncode
        if code != 0:
            raise RuntimeError(f"calibrate.py exited {code}")
        return time.monotonic() - start

    def scale(self):
        """Factor for the step just finished: the nominal calibration time
        over the mean of the calibrations run before and after it."""
        before = self.calibrations[-1]
        self.calibrations.append(self.calibrate())
        return CALIBRATION_NOMINAL_S / ((before + self.calibrations[-1]) / 2)

    def measure(self, traced):
        """Repetitions, then set-up probes, while they fit in the window.

        Untraced steps are separated by calibration runs, and each
        sample carries its `scale` factor; traced runs are not scaled.
        """
        self.measure_start = time.monotonic()
        self.calibrations = [] if traced else [self.calibrate()]
        plain, layered, setups = [], [], []
        schedule = ["plain", "traced", "traced"] if traced else ["plain"]
        index = 0
        durations = []
        while index < len(schedule) or self.fits(statistics.median(durations)):
            mode = schedule[index] if index < len(schedule) else \
                ("traced" if traced and len(layered) <= len(plain) else "plain")
            t0 = time.monotonic()
            sample = self.repetition(mode, index)
            if sample is not None and not traced:
                sample["scale"] = self.scale()
            durations.append(time.monotonic() - t0)
            index += 1
            if sample is None:
                if self.failed >= 2:
                    break
                continue
            (layered if mode == "traced" else plain).append(sample)
            if mode == "plain" and not traced:
                setups.append((sample["setup_s"], sample["scale"]))
        probe = 0
        probe_time = None
        while not traced and plain and len(setups) < MAX_SETUP_SAMPLES \
                and (self.name != STUDY or self.kept is not None):
            if probe_time is not None and len(setups) >= MIN_SETUP_SAMPLES \
                    and not self.fits(probe_time):
                break
            if time.monotonic() > self.hard_deadline:
                break
            t0 = time.monotonic()
            value = self.setup_probe(probe)
            if value is None:
                break
            setups.append((value, self.scale()))
            probe_time = time.monotonic() - t0
            probe += 1
        return plain, layered, setups


# -- per-layer accounting ----------------------------------------------------


def layer_metrics(runs, run_s):
    """Per-layer times and counts of one traced repetition."""
    self_by_layer = dict.fromkeys(spans.LAYERS, 0.0)
    inclusive = {}
    counts = {}
    candidate_fits = 0
    startup = 0.0
    counters = {}
    for run in runs:
        report = run["report"]
        startup += report["main_start"] - run["start"]
        for key, value in report["counters"].items():
            counters[key] = counters.get(key, 0) + value
        span_list = report["spans"]
        for name, value in spans.self_times(span_list):
            self_by_layer[spans.layer_of(name)] += value
        for name, start, end, parent in span_list:
            if end is None:
                continue
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            counts[name] = counts.get(name, 0) + 1
            if name in COMPONENT_FITS:
                p = parent
                while p >= 0 and spans.layer_of(span_list[p][0]) != "selection":
                    p = span_list[p][3]
                candidate_fits += p >= 0
    out = {f"{layer}.self_s": value for layer, value in self_by_layer.items()}
    for metric, names in SPAN_TIMES.items():
        out[metric] = sum(inclusive.get(n, 0.0) for n in names)
    for metric, names in SPAN_COUNTS.items():
        out[metric] = sum(counts.get(n, 0) for n in names)
    out["selection.candidate_fits"] = candidate_fits
    out["solver.block_rhs_cols"] = counters["block_rhs_cols"]
    out["solver.system_nnz"] = counters["system_nnz"]
    out["serialize.read_csv_mb"] = counters["read_bytes"] / 1e6
    out["serialize.written_mb"] = counters["written_bytes"] / 1e6
    out["cli.startup_s"] = startup
    covered = sum(self_by_layer.values())
    out["trace.unattributed_s"] = run_s - covered
    out["trace.coverage"] = covered / run_s
    out["run_s"] = run_s
    return out


# -- environment -------------------------------------------------------------


def environment(args):
    import scipy

    blas = {}
    try:
        info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "smfpca").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = child_env()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: env[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
    }


# -- reporting ---------------------------------------------------------------


def spread(values):
    """Median, extremes and count; from 11 samples on also the highest
    percentile that has at least ten samples above it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = values[n - 11]
    return out


END_TO_END = {"run_s": "s", "setup_s": "s", "fit_s": "s",
              "peak_rss_mb": "MB", "principal_angle_rad": "rad"}
SCALED = ("run_s", "setup_s", "fit_s")


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.coverage":
        return "fraction"
    return "count"


def summarize(bench, plain, layered, setups, traced):
    info = {}
    metrics = {}
    if not traced:
        if not plain or not setups:
            return info, None
        for name, unit in END_TO_END.items():
            pairs = setups if name == "setup_s" else \
                [(s[name], s["scale"]) for s in plain]
            raw = [value for value, _ in pairs]
            if name in SCALED:
                info["raw_" + name] = spread(raw)
                values = [value * factor for value, factor in pairs]
            else:
                values = raw
            info[name] = spread(values)
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        info["calibration_s"] = spread(bench.calibrations)
        return info, metrics
    if not plain or not layered:
        return info, None
    layers = [s["layers"] for s in layered]
    names = sorted(layers[0])
    for name in names:
        if name == "run_s":
            continue
        metrics[name] = {"value": statistics.median(l[name] for l in layers),
                         "unit": per_layer_units(name)}
    if any(l["trace.unattributed_s"] < 0 for l in layers):
        print("perfbench: layer self times exceed run_s", file=sys.stderr)
    drift = [c for c in EXACT_COUNTS if len({l[c] for l in layers}) > 1]
    if drift:
        print("perfbench: exact counts drifted between traced repetitions: "
              + ", ".join(f"{c}={[l[c] for l in layers]}" for c in drift),
              file=sys.stderr)
    traced_run = statistics.median(l["run_s"] for l in layers)
    plain_run = statistics.median(s["run_s"] for s in plain)
    metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}
    metrics["trace.count_drift"] = {"value": len(drift), "unit": "count"}
    info["traced_run_s"] = spread([l["run_s"] for l in layers])
    info["plain_run_s"] = spread([s["run_s"] for s in plain])
    info["exact_counts"] = {c: layers[0][c] for c in EXACT_COUNTS}
    return info, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="level-1 meshes: a quick check that the harness works")
    args = parser.parse_args(argv)

    if not (SRC / "smfpca" / "cli.py").is_file():
        print(f"perfbench: no smfpca source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed % 2**32, args.seconds, args.smoke,
                      workdir)
        env = environment(args)
        bench.prepare()
        plain, layered, setups = bench.measure(bool(args.trace))
        info, metrics = summarize(bench, plain, layered, setups, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(info, sort_keys=True))
    if bench.problems:
        print("# problems " + json.dumps(bench.problems))
    if metrics is None:
        print("perfbench: no repetition succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
