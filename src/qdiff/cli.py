"""Command-line pipeline: ingest, densities, regimes, collapse, equation checks.

Subcommands: pipeline, synth, verify-pme, fit, collapse, d2-grid. All
tabular outputs are CSV, metadata is JSON, and numbers are written with
17 significant digits so reruns with the same configuration and seed are
byte-identical. Exit codes: 0 success, 1 validation error, 2 computation
error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import json
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from qdiff import collapse as clp
from qdiff import density as dns
from qdiff import ingest as ing
from qdiff import pme
from qdiff import regimes as reg
from qdiff.io import write_json, write_table
from qdiff.qgauss import ScalingLaw, selfsim_sample

__all__ = ["RunConfig", "cmd_pipeline", "cmd_synth", "cmd_verify_pme", "main"]


class ValidationError(ValueError):
    """Bad configuration or arguments; maps to exit code 1."""


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    """Pipeline settings; defaults follow the reference market analysis."""

    input: str = ""                   # index series CSV (one of input/ensembles)
    ensembles: str = ""               # directory of per-lag sample files
    out: str = "qdiff-out"
    seed: int = 1
    # lag ladder (minutes of active market time)
    min_lag: float = 1.0
    max_lag: float = 3000.0
    points_per_decade: int = 4
    # ingestion
    detrend_window: float = float(ing.DEFAULT_DETREND_WINDOW)  # one month active time
    origin_policy: str = "overlapping"
    delimiter: str = ","
    # density estimation
    bandwidth: float = 0.0            # 0 = adaptive: bandwidth_scale * q25(|x|)
    bandwidth_scale: float = 0.05
    grid_points: int = dns.DEFAULT_GRID_POINTS
    core_span_quantiles: float = 250.0  # core grid half-width in units of q25
    # zone geometry (crossover readings differ between 35 and 38 in the
    # source analysis; the figure value is the default)
    t_cross_start: float = reg.DEFAULT_T_CROSS_START
    t_bump_end: float = reg.DEFAULT_T_BUMP_END
    boundary_a: float = 0.0339
    boundary_nu: float = 0.62
    boundary_t0: float = 1.0
    # height-law fit ranges (minutes)
    strong_fit_min: float = 1.0
    strong_fit_max: float = 35.0
    weak_fit_min: float = 78.0
    weak_fit_max: float = 3000.0
    # moments
    moment_window_quantiles: float = 4000.0  # window in units of q25
    # fitting
    fit_floor_counts: float = 50.0    # kernel-count reliability floor

    def validate(self) -> None:
        if self.input and self.ensembles:
            raise ValidationError("give either an input series or an ensembles directory, not both")
        if not self.input and not self.ensembles:
            raise ValidationError("an input series or an ensembles directory is required")
        src = Path(self.input or self.ensembles)
        if not src.exists():
            raise ValidationError(f"input path does not exist: {src}")
        if not (0 < self.min_lag < self.max_lag):
            raise ValidationError(f"need 0 < min_lag < max_lag, got ({self.min_lag}, {self.max_lag})")
        if self.points_per_decade < 1:
            raise ValidationError("points_per_decade must be >= 1")
        if self.bandwidth < 0 or self.bandwidth_scale <= 0:
            raise ValidationError("bandwidth must be >= 0 and bandwidth_scale > 0")
        if not (self.t_cross_start < self.t_bump_end):
            raise ValidationError("t_cross_start must precede t_bump_end")
        if self.origin_policy not in ("overlapping", "non-overlapping"):
            raise ValidationError(f"unknown origin policy {self.origin_policy!r}")


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Flat key = value file (hash comments allowed) plus overrides."""
    values: dict = {}
    if path:
        text = Path(path).read_text()
        known = {f.name: f.type for f in fields(RunConfig)}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{line_no}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ValidationError(f"{path}:{line_no}: unknown setting {key!r}")
            values[key] = _coerce(key, val.strip())
    if overrides:
        values.update(overrides)
    return RunConfig(**values)


def _coerce(key: str, val: str):
    default = getattr(RunConfig, key)
    if isinstance(default, bool):
        return val.lower() in ("1", "true", "yes")
    if isinstance(default, int):
        return int(val)
    if isinstance(default, float):
        return float(val)
    return val


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _samples_path(directory: Path, lag: float) -> Path:
    return directory / f"lag_{int(round(lag)):06d}.csv"


def _write_samples_csv(path: Path, lag: float, samples: np.ndarray, meta: dict) -> None:
    # repr round-trips doubles exactly and is much faster than csv.writer
    # at the millions-of-rows scale of the synthetic ensembles
    body = "\n".join(map(repr, np.asarray(samples, dtype=float).tolist()))
    path.write_text("return\n" + body + "\n")
    write_json(path.with_suffix(".json"), {"lag": lag, "n": int(samples.size), **meta})


def _copy_samples_csv(out_dir: Path, csv_path: Path) -> ing.ReturnEnsemble:
    """Parse one per-lag sample file and write its canonical copy."""
    meta = json.loads(csv_path.with_suffix(".json").read_text())
    samples = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    ens = ing.ReturnEnsemble(lag=float(meta["lag"]), returns=np.atleast_1d(samples))
    _write_samples_csv(_samples_path(out_dir, ens.lag), ens.lag, ens.returns,
                       {"origin_policy": ens.origin_policy})
    return ens


@contextlib.contextmanager
def _sample_pool(n_files: int):
    """Fork pool for per-lag sample files, one worker per usable CPU.

    Yields ``(pool, submit)``. ``submit(fn, *args)`` runs fn in a worker
    and keeps at most two files per worker in flight, so the caller never
    holds every ensemble at once. Each file is written whole by one
    worker, so the bytes do not depend on the worker count. The pool is
    closed (on error, terminated) and joined on every path.

    Workers are forked: they run only repr, json and np.loadtxt, and a
    spawned worker would re-import numpy and scipy, which costs more than
    the I/O it takes over (starting a pool of two took about 1.1 s spawned
    against 0.02 s forked on a 2-CPU Linux machine).
    """
    workers = max(1, min(len(os.sched_getaffinity(0)), n_files))
    pool = multiprocessing.get_context("fork").Pool(workers)
    pending: collections.deque = collections.deque()

    def submit(fn, *args) -> None:
        pending.append(pool.apply_async(fn, args))
        if len(pending) > 2 * workers:
            pending.popleft().get()

    try:
        yield pool, submit
        while pending:
            pending.popleft().get()
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


# --- pipeline stages -----------------------------------------------------

def _adaptive_bandwidth(cfg: RunConfig, x: np.ndarray, q25: float) -> float:
    """Kernel bandwidth; ``q25`` is the 25% quantile of |x|."""
    if cfg.bandwidth > 0.0:
        return cfg.bandwidth
    if q25 <= 0.0:
        q25 = float(np.std(x)) or 1.0
    return cfg.bandwidth_scale * q25


def cmd_pipeline(cfg: RunConfig) -> Path:
    """Run all stages in order and write a manifest; returns the out dir.

    Stage artifacts: ensembles, pdfs, height and moment series, regime
    partition, per-lag fits, collapse results, governing-equation
    parameters, and a diffusion-coefficient grid. A failing stage leaves
    the completed artifacts in place plus a FAILED marker naming it.
    """
    cfg.validate()
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"config": cfg.__dict__, "inputs": {}, "artifacts": [], "failed_stage": None}
    src = Path(cfg.input or cfg.ensembles)
    if src.is_file():
        manifest["inputs"][str(src)] = _sha256(src)

    def record(stage: str, path: Path) -> None:
        manifest["artifacts"].append(
            {"stage": stage, "path": str(path.relative_to(out)), "sha256": _sha256(path)}
        )

    state: dict = {}
    stages = [
        ("ensembles", _stage_ensembles),
        ("pdfs", _stage_pdfs),
        ("series", _stage_series),
        ("regimes", _stage_regimes),
        ("lag_fits", _stage_lag_fits),
        ("collapse", _stage_collapse),
        ("governing", _stage_governing),
        ("d2_grid", _stage_d2_grid),
    ]
    for name, stage in stages:
        try:
            stage(cfg, out, state, record)
        except Exception as exc:
            manifest["failed_stage"] = name
            (out / "FAILED").write_text(f"{name}: {exc}\n")
            write_json(out / "manifest.json", manifest)
            raise StageError(name, exc) from exc
    write_json(out / "manifest.json", manifest)
    return out


def _stage_ensembles(cfg, out, state, record):
    lags = ing.lag_ladder(cfg.min_lag, cfg.max_lag, cfg.points_per_decade)
    ens_dir = out / "ensembles"
    ens_dir.mkdir(exist_ok=True)
    ensembles = []
    if cfg.input:
        series = ing.load_series(cfg.input, delimiter=cfg.delimiter)
        ing.write_gap_report(series, out / "gap_report.json")
        record("ensembles", out / "gap_report.json")
        detrended = ing.detrend(series, cfg.detrend_window)
        with _sample_pool(len(lags)) as (_, submit):
            for lag in lags:
                if lag > detrended.span:
                    continue
                ens = ing.returns_at_lag(detrended, float(lag), cfg.origin_policy)
                ensembles.append(ens)
                submit(_write_samples_csv, _samples_path(ens_dir, ens.lag), ens.lag,
                       ens.returns, {"origin_policy": ens.origin_policy})
    else:
        paths = sorted(Path(cfg.ensembles).glob("lag_*.csv"))
        if not paths:
            raise ValidationError(f"no lag_*.csv sample files under {cfg.ensembles}")
        with _sample_pool(len(paths)) as (pool, _):
            ensembles = pool.map(functools.partial(_copy_samples_csv, ens_dir), paths,
                                 chunksize=1)
    for ens in ensembles:
        record("ensembles", _samples_path(ens_dir, ens.lag))
    state["ensembles"] = ensembles


def _stage_pdfs(cfg, out, state, record):
    pdf_dir = out / "pdfs"
    pdf_dir.mkdir(exist_ok=True)
    core_pdfs, wide_pdfs, q25s = [], [], []
    for ens in state["ensembles"]:
        x = ens.returns
        q25 = float(np.quantile(np.abs(x), 0.25))
        q25s.append(q25)
        h = _adaptive_bandwidth(cfg, x, q25)
        span = cfg.core_span_quantiles * (q25 or float(np.std(x)) or 1.0)
        core = dns.kde(ens, bandwidth=h, grid=(-span, span, cfg.grid_points))
        wide = dns.kde(ens, bandwidth=h, grid=cfg.grid_points)
        core_pdfs.append(core)
        wide_pdfs.append(wide)
        path = pdf_dir / f"pdf_{int(round(ens.lag)):06d}.csv"
        dns.write_pdf_csv(core, path)
        record("pdfs", path)
    state["core_pdfs"] = core_pdfs
    state["wide_pdfs"] = wide_pdfs
    state["q25"] = q25s


def _stage_series(cfg, out, state, record):
    heights = []
    for p in state["core_pdfs"]:
        x_peak, height = dns.pdf_height(p)
        heights.append((p.lag, x_peak, height))
    hpath = out / "heights.csv"
    write_table(hpath, ["lag", "x_peak", "height"], heights)
    record("series", hpath)
    state["heights"] = heights

    lags, moments, windows = [], [], []
    for p, q25 in zip(state["wide_pdfs"], state["q25"]):
        window = min(cfg.moment_window_quantiles * (q25 or 1.0),
                     0.999 * min(-p.grid[0], p.grid[-1]))
        lags.append(p.lag)
        moments.append(dns.second_moment(p, window))
        windows.append(window)
    series = dns.MomentSeries(lags=np.array(lags), second_moment=np.array(moments),
                              window=np.array(windows))
    mpath = out / "moments.csv"
    dns.write_moment_csv(series, mpath)
    record("series", mpath)
    state["moments"] = series


def _stage_regimes(cfg, out, state, record):
    rows = []
    for p in state["core_pdfs"]:
        rows.append((p.lag, reg.bump_boundary(p)))
    bpath = out / "boundaries.csv"
    reg.write_boundary_csv(rows, bpath)
    record("regimes", bpath)

    detected = [(t, b) for t, b in rows if b is not None]
    boundary_fit = None
    if len({t for t, _ in detected}) >= 3:
        boundary_fit = reg.fit_boundary_curve(
            [(t, b[0], b[1]) for t, b in detected], t0=cfg.boundary_t0
        )
        a, nu = boundary_fit.a, boundary_fit.nu
    else:
        a, nu = cfg.boundary_a, cfg.boundary_nu
    t_bump_end = reg.detect_bump_end([t for t, _ in rows], [b for _, b in rows])
    # a bump that dissolves before the crossover starts cannot end zone B;
    # keep the configured end and record the rejected detection
    rejected = None
    if t_bump_end is not None and t_bump_end <= cfg.t_cross_start:
        rejected, t_bump_end = t_bump_end, None
    partition = reg.RegimePartition(
        a=a, nu=min(max(nu, 1e-3), 1.0 - 1e-3), t0=cfg.boundary_t0,
        t_cross_start=cfg.t_cross_start,
        t_bump_end=t_bump_end if t_bump_end is not None else cfg.t_bump_end,
    )
    ppath = out / "partition.json"
    payload = json.loads(partition.to_json())
    payload["boundary_fitted"] = boundary_fit is not None
    payload["n_lags_with_bump"] = len(detected)
    if rejected is not None:
        payload["bump_end_rejected"] = rejected
    write_json(ppath, payload)
    record("regimes", ppath)
    state["partition"] = partition
    state["has_bumps"] = len(detected) >= 3

    heights = np.array([(t, h) for t, _, h in state["heights"]])
    height_fits = {}
    for name, lo, hi in (
        ("strong", cfg.strong_fit_min, cfg.strong_fit_max),
        ("weak", cfg.weak_fit_min, cfg.weak_fit_max),
    ):
        try:
            fit = reg.fit_height_law(heights, (lo, hi))
            height_fits[name] = {
                "exponent": fit.exponent,
                "alpha": reg.height_alpha(fit),
                "prefactor": fit.prefactor,
                "range": [lo, hi],
                "residual": fit.residual,
            }
        except (reg.FitError, ValueError) as exc:
            height_fits[name] = {"error": str(exc), "range": [lo, hi]}
    hpath = out / "height_fits.json"
    write_json(hpath, height_fits)
    record("regimes", hpath)


def _stage_lag_fits(cfg, out, state, record):
    fits = []
    for p, ens in zip(state["core_pdfs"], state["ensembles"]):
        floor = max(
            clp.DENSITY_FLOOR,
            cfg.fit_floor_counts
            / (len(ens.returns) * p.bandwidth * math.sqrt(2.0 * math.pi))
            / float(np.max(p.density)),
        )
        fits.append(clp.fit_qgauss(p, density_floor=floor))
    path = out / "lag_fits.json"
    clp.write_lag_fits_json(fits, path)
    record("lag_fits", path)
    state["lag_fits"] = fits


def _stage_collapse(cfg, out, state, record):
    fits = state["lag_fits"]
    partition: reg.RegimePartition = state["partition"]
    scaling = clp.fit_beta_law(fits)
    masses = {f.lag: f.grid_mass for f in fits}

    def weak_mask(t, xs):
        return state["partition"].classify(xs, t) == "C"

    results = {}
    pts_weak = clp.collapse_pdfs(
        state["core_pdfs"], scaling,
        restriction=weak_mask if state["has_bumps"] else None,
        grid_masses=masses,
    )
    results["weak"] = clp.fit_collapsed(pts_weak, scaling, zone="C")
    clp.write_collapsed_csv(pts_weak, out / "collapsed_weak.csv")
    record("collapse", out / "collapsed_weak.csv")

    if state["has_bumps"]:
        strong_pdfs = [
            p for p in state["core_pdfs"] if p.lag < partition.t_cross_start
        ]
        strong_fits = [f for f in fits if f.lag < partition.t_cross_start]
        if len(strong_fits) >= 3:
            strong_scaling = clp.fit_beta_law(strong_fits)

            def bump_mask(t, xs):
                return np.abs(xs) < partition.boundary(t)

            pts_strong = clp.collapse_pdfs(
                strong_pdfs, strong_scaling, restriction=bump_mask, grid_masses=masses
            )
            try:
                results["strong"] = clp.fit_collapsed(pts_strong, strong_scaling, zone="A")
                clp.write_collapsed_csv(pts_strong, out / "collapsed_strong.csv")
                record("collapse", out / "collapsed_strong.csv")
            except clp.FitError:
                pass

    payload = {name: clp.collapse_payload(res) for name, res in results.items()}
    cpath = out / "collapse.json"
    write_json(cpath, payload)
    record("collapse", cpath)
    state["collapse"] = results


def _stage_governing(cfg, out, state, record):
    res = state["collapse"]["weak"]
    payload: dict = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = pme.map_constants(res.q, res.scaling.alpha, res.scaling.d_coef)
        payload = {
            "q": gp.q, "alpha": gp.alpha, "d_coef": gp.d_coef, "xi": gp.xi,
            "b_coef": gp.b_coef, "c_int": gp.c_int, "c_q": gp.c_q_val,
            "m": gp.m,
        }
        state["governing"] = gp
    except (ValueError, ArithmeticError) as exc:
        payload = {"error": str(exc)}
        state["governing"] = None
    gpath = out / "governing.json"
    write_json(gpath, payload)
    record("governing", gpath)


def _stage_d2_grid(cfg, out, state, record):
    gp = state.get("governing")
    path = out / "d2_grid.csv"
    rows = []
    if gp is not None:
        lags = [p.lag for p in state["core_pdfs"]]
        t_ref = float(np.median(lags))
        width = (gp.d_coef * t_ref) ** (1.0 / gp.alpha)
        xs = np.geomspace(0.01 * width, 100.0 * width, 101)
        rows = [(t_ref, x, float(pme.black_scholes_d2(x, t_ref, gp))) for x in xs]
    write_table(path, ["t", "x", "d2"], rows)
    record("d2_grid", path)


# --- synth ----------------------------------------------------------------

def cmd_synth(
    out_dir,
    q: float,
    alpha: float,
    d_coef: float,
    lags,
    n_per_lag: int,
    seed: int,
    mode: str = "selfsim",
    bump_q: float = 2.73,
    bump_alpha: float = 1.26,
    bump_d: float = 4.8e-3,
    bump_weight: float = 0.5,
    bump_t_end: float = 78.0,
    bump_sharpness: float = 1.0,
) -> Path:
    """Generate per-lag sample files from the self-similar family.

    ``selfsim`` mode draws every lag from one (q, alpha, D) family.
    ``mixture`` mode overlays a dissolving narrow component with weight
    bump_weight * (1 - (t/bump_t_end)^bump_sharpness), providing
    two-regime fixtures for the boundary detectors; the sharpness sets
    how abruptly the component dies as t approaches bump_t_end.
    """
    if n_per_lag < 1:
        raise ValidationError(f"n_per_lag must be >= 1, got {n_per_lag}")
    if mode not in ("selfsim", "mixture"):
        raise ValidationError(f"unknown synth mode {mode!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    law = ScalingLaw(alpha=alpha, d_coef=d_coef)
    bump_law = ScalingLaw(alpha=bump_alpha, d_coef=bump_d)
    meta = {
        "mode": mode, "q": q, "alpha": alpha, "d_coef": d_coef, "seed": seed,
    }
    if mode == "mixture":
        meta.update({"bump_q": bump_q, "bump_alpha": bump_alpha, "bump_d": bump_d,
                     "bump_weight": bump_weight, "bump_t_end": bump_t_end,
                     "bump_sharpness": bump_sharpness})
    with _sample_pool(len(lags)) as (_, submit):
        for i, t in enumerate(lags):
            t = float(t)
            if mode == "selfsim":
                samples = selfsim_sample(q, law, t, n_per_lag, seed=seed + i)
            else:
                rng = np.random.default_rng(seed + i)
                w_t = bump_weight * max(0.0, 1.0 - (t / bump_t_end) ** bump_sharpness)
                n_bump = int(round(w_t * n_per_lag))
                parts = []
                if n_bump > 0:
                    parts.append(selfsim_sample(bump_q, bump_law, t, n_bump,
                                                seed=rng.integers(2**63)))
                parts.append(selfsim_sample(q, law, t, n_per_lag - n_bump,
                                            seed=rng.integers(2**63)))
                samples = rng.permutation(np.concatenate(parts))
            submit(_write_samples_csv, _samples_path(out, t), t, samples, meta)
    write_json(out / "synth.json",
               {**meta, "lags": [float(t) for t in lags], "n_per_lag": n_per_lag})
    return out


# --- verify-pme -------------------------------------------------------------

def cmd_verify_pme(
    m: float,
    *,
    grid_points: int = 1025,
    half_width: float = 0.0,
    t1: float = 1.0,
    t2: float = 4.0,
    c_int: float = 1.0,
    refinements: int = 3,
) -> dict:
    """Verify the analytic solution and the solver for one exponent.

    Reports the equation residual of the closed-form solution, the
    sup-error of the evolved field against it, the mass drift, and a
    spatial convergence order from grid refinements. For m <= 0 the
    evolution is ill-posed (negative diffusivity) and only the residual
    is reported.
    """
    if not (-1.0 < m < 2.0) or m == 0.0:
        raise ValidationError(f"m={m!r} outside (-1, 2) or degenerate at 0")
    report: dict = {"m": m, "c_int": c_int, "t1": t1, "t2": t2}

    b = (1.0 - m) / (2.0 * m * (m + 1.0)) if m != 1.0 else 0.0
    if m == 1.0:
        probe_x = np.linspace(0.1, 3.0, 13) * math.sqrt(t1)
    elif b > 0:
        probe_x = np.linspace(0.1, 3.0, 13) * t1 ** (1.0 / (m + 1.0))
    else:
        edge = math.sqrt(c_int / abs(b)) * t1 ** (1.0 / (m + 1.0))
        probe_x = np.linspace(0.05, 0.6, 13) * edge
    resid = pme.barenblatt_residual(probe_x, t1, m, c_int)
    peak = float(np.max(np.abs(np.asarray(pme.barenblatt(probe_x, t1, m, c_int)))))
    report["residual_max"] = float(np.max(resid))
    report["residual_rel_peak"] = float(np.max(resid) / peak)

    if m <= 0.0:
        report["evolution"] = "skipped: m <= 0 is anti-diffusive in this form"
        return report

    if half_width <= 0.0:
        if m < 1.0:
            half_width = 15.0 * t2 ** (1.0 / (m + 1.0))
        elif m == 1.0:
            half_width = 12.0 * math.sqrt(2.0 * t2)
        else:
            half_width = 1.5 * math.sqrt(c_int / abs(b)) * t2 ** (1.0 / (m + 1.0))

    errors = []
    for level in range(refinements):
        n = (grid_points - 1) * 2**level + 1
        grid = np.linspace(-half_width, half_width, n)
        u0 = np.asarray(pme.barenblatt(grid, t1, m, c_int))
        field = pme.PmeField(grid=grid, u=u0, time=t1, m=m)
        if m < 1.0:
            bv = lambda t, ends=grid[[0, -1]]: tuple(pme.barenblatt(ends, t, m, c_int))
            log_step = 2e-4 / 4**level
            res = pme.solve_pme(field, t2, scheme="implicit", bc="dirichlet",
                                boundary_values=bv, log_step=log_step)
        else:
            res = pme.solve_pme(field, t2, scheme="explicit", bc="zero-flux")
        exact = np.asarray(pme.barenblatt(grid, t2, m, c_int))
        err = float(np.max(np.abs(res.field.u - exact)))
        errors.append(err)
        if level == 0:
            report["mass_drift"] = res.mass_drift
            report["n_steps"] = res.n_steps
            report["scheme"] = res.scheme
            report["sup_error_rel_peak"] = err / float(np.max(exact))
            if m > 1.0:
                # Compact support: compare the numeric front position
                # against the analytic support edge.
                dx = grid[1] - grid[0]
                front_exact = math.sqrt(c_int / abs(b)) * t2 ** (1.0 / (m + 1.0))
                occupied = res.field.u > 1e-8 * float(np.max(res.field.u))
                front_num = float(np.max(np.abs(grid[occupied])))
                report["front_exact"] = front_exact
                report["front_numeric"] = front_num
                report["front_error_cells"] = abs(front_num - front_exact) / dx
    report["sup_errors"] = errors
    if len(errors) >= 2:
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        report["convergence_orders"] = orders
        report["convergence_order"] = float(np.mean(orders))
    return report


# --- argument parsing -------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the full analysis pipeline")
    p.add_argument("--config", default="", help="flat key = value settings file")
    p.add_argument("--input", default="", help="index series CSV")
    p.add_argument("--ensembles", default="", help="directory of per-lag sample files")
    p.add_argument("--out", default="", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key")

    p = sub.add_parser("synth", help="generate synthetic per-lag ensembles")
    p.add_argument("--out", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d-coef", type=float, required=True)
    p.add_argument("--min-lag", type=float, default=1.0)
    p.add_argument("--max-lag", type=float, default=3000.0)
    p.add_argument("--points-per-decade", type=int, default=4)
    p.add_argument("--n-per-lag", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", choices=("selfsim", "mixture"), default="selfsim")
    p.add_argument("--bump-q", type=float, default=2.73)
    p.add_argument("--bump-alpha", type=float, default=1.26)
    p.add_argument("--bump-d", type=float, default=4.8e-3)
    p.add_argument("--bump-weight", type=float, default=0.5)
    p.add_argument("--bump-t-end", type=float, default=78.0)
    p.add_argument("--bump-sharpness", type=float, default=1.0)

    p = sub.add_parser("verify-pme", help="verify the diffusion solver against the analytic solution")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=1025)
    p.add_argument("--half-width", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--t2", type=float, default=4.0)
    p.add_argument("--c-int", type=float, default=1.0)
    p.add_argument("--refinements", type=int, default=3)
    p.add_argument("--out", default="", help="write the JSON report here")

    p = sub.add_parser("fit", help="fit a q-Gaussian to one pdf CSV")
    p.add_argument("--pdf", required=True, help="pdf CSV written by the pipeline")
    p.add_argument("--window", type=float, nargs=2, default=None)
    p.add_argument("--out", default="")

    p = sub.add_parser("collapse", help="collapse stored pdfs under a scaling law")
    p.add_argument("--pdfs", required=True, help="directory of pdf_*.csv files")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d-coef", type=float, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("d2-grid", help="evaluate the diffusion coefficient on a grid")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--d-coef", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--out", required=True)
    return parser


def _run(args) -> int:
    if args.command == "pipeline":
        overrides: dict = {}
        for item in args.set:
            if "=" not in item:
                raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, val = item.partition("=")
            key = key.strip().replace("-", "_")
            if key not in {f.name for f in fields(RunConfig)}:
                raise ValidationError(f"unknown setting {key!r}")
            overrides[key] = _coerce(key, val.strip())
        if args.input:
            overrides["input"] = args.input
        if args.ensembles:
            overrides["ensembles"] = args.ensembles
        if args.out:
            overrides["out"] = args.out
        cfg = load_config(args.config, overrides)
        out = cmd_pipeline(cfg)
        print(f"pipeline complete: {out / 'manifest.json'}")
        return 0

    if args.command == "synth":
        lags = ing.lag_ladder(args.min_lag, args.max_lag, args.points_per_decade)
        out = cmd_synth(
            args.out, args.q, args.alpha, args.d_coef, lags, args.n_per_lag,
            args.seed, mode=args.mode, bump_q=args.bump_q,
            bump_alpha=args.bump_alpha, bump_d=args.bump_d,
            bump_weight=args.bump_weight, bump_t_end=args.bump_t_end,
            bump_sharpness=args.bump_sharpness,
        )
        print(f"synthetic ensembles written to {out}")
        return 0

    if args.command == "verify-pme":
        report = cmd_verify_pme(
            args.m, grid_points=args.grid_points, half_width=args.half_width,
            t1=args.t1, t2=args.t2, c_int=args.c_int, refinements=args.refinements,
        )
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0

    if args.command == "fit":
        pdf = dns.read_pdf_csv(args.pdf)
        window = tuple(args.window) if args.window else None
        fit = clp.fit_qgauss(pdf, restriction=window)
        payload = {
            "lag": fit.lag, "q": fit.params.q, "beta": fit.params.beta,
            "q_err": fit.q_err, "beta_err": fit.beta_err,
            "fit_residual": fit.fit_residual, "at_boundary": fit.at_boundary,
            "grid_mass": fit.grid_mass,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0

    if args.command == "collapse":
        pdf_dir = Path(args.pdfs)
        pdfs = [dns.read_pdf_csv(p) for p in sorted(pdf_dir.glob("pdf_*.csv"))]
        if len(pdfs) < 2:
            raise ValidationError(f"need >= 2 pdf_*.csv files under {pdf_dir}")
        scaling = ScalingLaw(alpha=args.alpha, d_coef=args.d_coef)
        pts = clp.collapse_pdfs(pdfs, scaling)
        res = clp.fit_collapsed(pts, scaling)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        clp.write_collapsed_csv(pts, out / "collapsed.csv")
        clp.write_collapse_json(res, out / "collapse.json")
        print(f"collapse q={res.q:.6g} residual={res.collapse_residual:.6g}")
        return 0

    if args.command == "d2-grid":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = pme.map_constants(args.q, args.alpha, args.d_coef)
        xs = np.linspace(args.x_min, args.x_max, args.n).tolist()
        write_table(args.out, ["t", "x", "d2"],
                    [(args.t, x, float(pme.black_scholes_d2(x, args.t, gp))) for x in xs])
        print(f"diffusion-coefficient grid written to {args.out}")
        return 0

    raise ValidationError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (ValidationError, ing.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:  # a stage's bad input is still a validation error
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc.cause, (ValidationError, ing.SchemaError)) else 2
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
