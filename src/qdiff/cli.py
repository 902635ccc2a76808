"""Command-line pipeline: ingest, densities, regimes, collapse, equation checks.

Subcommands: pipeline, synth, verify-pme, d2-grid. Per-lag samples,
density grids and collapse clouds are numpy .npy arrays, the smaller
tables are CSV with numbers written to 17 significant digits, and metadata
is JSON, so reruns with the same configuration are byte-identical. Exit
codes: 0 success, 1 validation error, 2 computation error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from qdiff import collapse as clp
from qdiff import density as dns
from qdiff import ingest as ing
from qdiff import pme
from qdiff import regimes as reg
from qdiff.io import json_text, read_array, read_sidecar, write_array, write_json, write_table
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
    # lag ladder (minutes of active market time); also the outer ends of
    # the strong and weak height-law fit ranges
    min_lag: float = 1.0
    max_lag: float = 3000.0
    points_per_decade: int = 4
    # ingestion
    detrend_window: float = float(ing.DEFAULT_DETREND_WINDOW)  # one month active time
    origin_policy: str = "overlapping"
    delimiter: str = ","
    # density estimation
    bandwidth: float = 0.0            # 0 = adaptive: BANDWIDTH_SCALE * lag scale
    grid_points: int = dns.DEFAULT_GRID_POINTS
    # zone geometry (crossover readings differ between 35 and 38 in the
    # source analysis; the figure value is the default); the height laws
    # are fitted over [min_lag, t_cross_start] and [t_bump_end, max_lag]
    t_cross_start: float = reg.DEFAULT_T_CROSS_START
    t_bump_end: float = reg.DEFAULT_T_BUMP_END

    def validate(self) -> None:
        if self.input and self.ensembles:
            raise ValidationError("give either an input series or an ensembles directory, not both")
        if not self.input and not self.ensembles:
            raise ValidationError("an input series or an ensembles directory is required")
        src = Path(self.input or self.ensembles)
        if not src.exists():
            raise ValidationError(f"input path does not exist: {src}")
        try:
            ing.check_lag_ladder(self.min_lag, self.max_lag, self.points_per_decade)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        if self.grid_points < 3:
            raise ValidationError(f"grid_points must be >= 3, got {self.grid_points}")
        if not 0 <= self.bandwidth < math.inf:
            raise ValidationError(f"bandwidth must be finite and >= 0, got {self.bandwidth!r}")
        if not 0 < self.detrend_window < math.inf:
            raise ValidationError(f"detrend_window must be finite and positive, "
                                  f"got {self.detrend_window!r}")
        if not (self.t_cross_start < self.t_bump_end):
            raise ValidationError("t_cross_start must precede t_bump_end")
        if self.origin_policy not in ("overlapping", "non-overlapping"):
            raise ValidationError(f"unknown origin policy {self.origin_policy!r}")
        if len(self.delimiter) != 1 or self.delimiter in '"\r\n':
            raise ValidationError(f"delimiter must be one character other than a quote "
                                  f"or a line break, got {self.delimiter!r}")


# Tuning factors, in units of a lag's scale (``_lag_scale``).
BANDWIDTH_SCALE = 0.05         # adaptive kernel bandwidth
CORE_SPAN_SCALES = 250.0       # half-width of the core density grid
MOMENT_WINDOW_SCALES = 4000.0  # half-width of the second-moment window
# a run is two-regime, with the weak zone past the bump's end, once this many
# lags show a bump
MIN_BUMP_LAGS = 3


def _parse_setting(text: str, where: str) -> tuple[str, object]:
    """One ``key = value`` setting, as a config-file line or ``--set`` holds it.

    ``-`` in the key reads as ``_``. Only spaces around the value are
    trimmed, so a tab or ``;`` is a value like any other (``delimiter=;``).
    ``where`` prefixes every error, which is a ValidationError.
    """
    key, sep, val = text.partition("=")
    if not sep:
        raise ValidationError(f"{where}expected 'key = value', got {text!r}")
    key = key.strip().replace("-", "_")
    if key not in {f.name for f in fields(RunConfig)}:
        raise ValidationError(f"{where}unknown setting {key!r}")
    val = val.strip(" ")
    kind = type(getattr(RunConfig, key))
    try:
        return key, kind(val)
    except ValueError as exc:
        raise ValidationError(f"{where}{key}: expected {kind.__name__}, got {val!r}") from exc


def _strip_comment(line: str) -> str:
    """A config-file line without its comment.

    ``#`` starts a comment, except as the first character of a value, which
    a comment there would leave empty: ``delimiter = #`` sets ``#``, and so
    does ``delimiter = #  # hash-separated``.
    """
    key, _, val = line.partition("=")
    if "#" in key:
        return line.split("#", 1)[0]
    value_at = len(line) - len(val.lstrip(" "))
    cut = line.find("#", value_at + 1)
    return line if cut < 0 else line[:cut]


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Flat key = value file (comments as ``_strip_comment`` reads them) plus overrides."""
    values: dict = {}
    if path:
        for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = _strip_comment(raw)
            if line.strip():
                key, val = _parse_setting(line, f"{path}:{line_no}: ")
                values[key] = val
    if overrides:
        values.update(overrides)
    return RunConfig(**values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _samples_path(directory: Path, lag: float) -> Path:
    return directory / f"lag_{int(round(lag)):06d}.npy"


def _read_samples(path: Path) -> ing.ReturnEnsemble:
    """Load one per-lag sample file and the lag from its JSON sidecar.

    The file must hold a 1-D float64 array of finite samples. Pickled
    content is never loaded. Every defect raises ValidationError naming
    the file.
    """
    try:
        samples = read_array(path)
        if samples.ndim != 1 or samples.dtype != np.float64:
            raise ValueError(f"{path}: expected a 1-D float64 array, "
                             f"got {samples.dtype!r} of shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise ValueError(f"{path}: holds non-finite samples")
        lag = float(read_sidecar(path)["lag"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    try:
        return ing.ReturnEnsemble(lag=lag, returns=samples)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# --- pipeline stages -----------------------------------------------------

def _lag_scale(x: np.ndarray) -> float:
    """A lag's one length scale: the 25% quantile of |x|, else the
    standard deviation, else 1.0. The adaptive bandwidth, the core grid
    span and the moment window are multiples of it. The core grid is the
    lag's one KDE grid; the second moment is sum(x^2) / n over the samples
    with |x| <= 4000 scales, with no grid clip.

    The quantile is np.quantile's default (linear, type 7), bit for bit:
    the value at virtual index (n - 1) / 4, interpolated as numpy's
    ``_lerp`` does between the order statistics of ranks
    k = floor((n - 1) / 4) and k + 1. np.quantile partitions at four
    ranks; one partition at rank k, whose upper part's minimum is rank
    k + 1, takes numpy's single-rank selection. That is several times
    faster on returns, and slower only where one value fills much of |x|
    around rank k."""
    a = np.abs(x)
    k, r = divmod(a.size - 1, 4)
    a.partition(k)
    lo = float(a[k])
    hi = float(a[k + 1:].min()) if k + 1 < a.size else lo
    g, d = r / 4, hi - lo
    q25 = lo + d * g if g < 0.5 else hi - d * (1.0 - g)
    return q25 or float(np.std(x)) or 1.0


def cmd_pipeline(cfg: RunConfig) -> Path:
    """Run all stages in order and write a manifest; returns the out dir.

    Stage artifacts: an input series' gap report and per-lag returns (a
    sample directory is read in place), pdfs, height and moment series,
    regime partition, per-lag fits, collapse results, governing-equation
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

    # stages hash each input they read; "report" gets what no artifact holds
    state: dict = {"inputs": manifest["inputs"], "report": {}}
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
    stage_s: dict = {}
    failure = None
    for name, stage in stages:
        t0 = time.perf_counter()
        try:
            stage(cfg, out, state, record)
        except Exception as exc:
            failure = StageError(name, exc)
            manifest["failed_stage"] = name
            (out / "FAILED").write_text(f"{name}: {exc}\n")
        stage_s[name] = time.perf_counter() - t0
        if failure is not None:
            break
    write_json(out / "manifest.json", manifest)
    # seconds per stage run; they vary between runs, so not an artifact
    write_json(out / "run_report.json", {"stage_s": stage_s, **state["report"]})
    if failure is not None:
        raise failure from failure.cause
    return out


def _stage_ensembles(cfg, out, state, record):
    if cfg.ensembles:
        # read in place: the manifest's inputs hold each file's sha256
        src = Path(cfg.ensembles)
        paths = sorted(src.glob("lag_*.npy"))
        if not paths:
            hint = ""
            if any(src.glob("lag_*.csv")):
                hint = ("; text sample files (lag_*.csv) are no longer read, convert each "
                        "with np.save(path.with_suffix('.npy'), np.loadtxt(path, skiprows=1))")
            raise ValidationError(f"no lag_*.npy sample files under {src}{hint}")
        ensembles = [_read_samples(p) for p in paths]
        # the rounded lag names the lag's pdf file, so no two may share it
        seen: dict = {}
        for path, ens in zip(paths, ensembles):
            key = int(round(ens.lag))
            if key in seen:
                raise ValidationError(f"{seen[key]} and {path} both hold lag {key} "
                                      f"(rounded), which names one pdf file")
            seen[key] = path
        state["ensembles"] = ensembles
        state["inputs"].update((str(p), _sha256(p)) for p in paths)
        return
    series = ing.load_series(cfg.input, delimiter=cfg.delimiter)
    ing.write_gap_report(series, out / "gap_report.json")
    record("ensembles", out / "gap_report.json")
    detrended = ing.detrend(series, cfg.detrend_window)
    lags = ing.lag_ladder(cfg.min_lag, cfg.max_lag, cfg.points_per_decade)
    ensembles = [ing.returns_at_lag(detrended, float(lag), cfg.origin_policy)
                 for lag in lags if lag <= detrended.span]
    # the computed returns are derived data, so they are written out
    ens_dir = out / "ensembles"
    ens_dir.mkdir(exist_ok=True)
    for ens in ensembles:
        path = _samples_path(ens_dir, ens.lag)
        write_array(path, ens.returns, {"lag": ens.lag, "n": ens.returns.size,
                                        "origin_policy": ens.origin_policy})
        record("ensembles", path)
    state["ensembles"] = ensembles


def _stage_pdfs(cfg, out, state, record):
    pdf_dir = out / "pdfs"
    pdf_dir.mkdir(exist_ok=True)
    core_pdfs, scales = [], []
    for ens in state["ensembles"]:
        scale = _lag_scale(ens.returns)
        scales.append(scale)
        h = cfg.bandwidth or BANDWIDTH_SCALE * scale
        span = CORE_SPAN_SCALES * scale
        core = dns.kde(ens, bandwidth=h, grid=(-span, span, cfg.grid_points))
        core_pdfs.append(core)
        path = pdf_dir / f"pdf_{int(round(ens.lag)):06d}.npy"
        dns.write_pdf_csv(core, path)
        record("pdfs", path)
    state["core_pdfs"] = core_pdfs
    state["scales"] = scales


def _stage_series(cfg, out, state, record):
    heights = []
    for p in state["core_pdfs"]:
        x_peak, height = dns.pdf_height(p)
        heights.append((p.lag, x_peak, height))
    hpath = out / "heights.csv"
    write_table(hpath, ["lag", "x_peak", "height"], heights)
    record("series", hpath)
    state["heights"] = heights

    moments = []
    for ens, scale in zip(state["ensembles"], state["scales"]):
        window = MOMENT_WINDOW_SCALES * scale
        moments.append((ens.lag, dns.second_moment(ens.returns, window), window))
    mpath = out / "moments.csv"
    dns.write_moment_csv(moments, mpath)
    record("series", mpath)


def _stage_regimes(cfg, out, state, record):
    rows = []
    for p in state["core_pdfs"]:
        rows.append((p.lag, reg.bump_boundary(p)))
    bpath = out / "boundaries.csv"
    reg.write_boundary_csv(rows, bpath)
    record("regimes", bpath)

    detected = [(t, b) for t, b in rows if b is not None]
    has_bumps = len(detected) >= MIN_BUMP_LAGS
    boundary_fit = None
    if has_bumps:
        boundary_fit = reg.fit_boundary_curve([(t, b[0], b[1]) for t, b in detected])
        a, nu = boundary_fit.a, boundary_fit.nu
    else:
        a, nu = reg.DEFAULT_BOUNDARY_A, reg.DEFAULT_BOUNDARY_NU
    t_bump_end = reg.detect_bump_end([t for t, _ in rows], [b for _, b in rows])
    # a bump that dissolves before the crossover starts cannot end it;
    # keep the configured end and record the rejected detection
    rejected = None
    if t_bump_end is not None and t_bump_end <= cfg.t_cross_start:
        rejected, t_bump_end = t_bump_end, None
    partition = reg.RegimePartition(
        a=a, nu=min(max(nu, 1e-3), 1.0 - 1e-3),
        t_cross_start=cfg.t_cross_start,
        t_bump_end=t_bump_end if t_bump_end is not None else cfg.t_bump_end,
    )
    ppath = out / "partition.json"
    payload = asdict(partition)
    payload["boundary_fitted"] = boundary_fit is not None
    payload["n_lags_with_bump"] = len(detected)
    if rejected is not None:
        payload["bump_end_rejected"] = rejected
    write_json(ppath, payload)
    record("regimes", ppath)
    state["partition"] = partition
    state["has_bumps"] = has_bumps
    # the partition keeps nu inside (0, 1); the report keeps what was fitted
    state["report"]["regimes"] = {
        "n_lags_with_bump": len(detected),
        "nu_fitted": boundary_fit.nu if boundary_fit is not None else None,
        "nu_clamped": partition.nu,
    }

    heights = np.array([(t, h) for t, _, h in state["heights"]])
    height_fits = {}
    for name, lo, hi in (
        ("strong", cfg.min_lag, cfg.t_cross_start),
        ("weak", cfg.t_bump_end, cfg.max_lag),
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
    # each lag's |x| is counted once; a zone-A lag (two regimes, before the
    # crossover) gets its window b(t) as one more edge, for the strong fit
    partition: reg.RegimePartition = state["partition"]

    def cut(t):
        strong = state["has_bumps"] and t < partition.t_cross_start
        return partition.boundary(t) if strong else None

    bins = [clp.bin_samples(ens.returns, ens.lag, scale, cut=cut(ens.lag))
            for ens, scale in zip(state["ensembles"], state["scales"])]
    fits = [clp.fit_qgauss(b, span=(p.grid[0], p.grid[-1]))
            for b, p in zip(bins, state["core_pdfs"])]
    path = out / "lag_fits.json"
    clp.write_lag_fits_json(fits, path)
    record("lag_fits", path)
    state["bins"] = bins
    state["lag_fits"] = fits
    # how each solve went; not in lag_fits.json, whose sha256 the manifest holds
    state["report"]["lag_fits"] = [
        {"lag": f.lag, "nfev": f.nfev, "status": f.status, "at_boundary": f.at_boundary,
         "grid_mass": f.grid_mass, "deviance": f.deviance, "n_bins": f.n_bins}
        for f in fits
    ]


def _stage_collapse(cfg, out, state, record):
    partition: reg.RegimePartition = state["partition"]
    regimes = state["report"]["regimes"]

    def zone(keep):
        """The pdfs, bins and lag fits of the lags whose lag ``keep`` accepts."""
        idx = [i for i, f in enumerate(state["lag_fits"]) if keep(f.lag)]
        return tuple([state[key][i] for i in idx] for key in ("core_pdfs", "bins", "lag_fits"))

    # the bump's narrow component widens every lag it is part of, so with a
    # bump the weak law and master curve come from the lags past its end
    t_weak = partition.t_bump_end if state["has_bumps"] else -math.inf
    pdfs, bins, fits = zone(lambda t: t >= t_weak)
    if state["has_bumps"] and len(fits) < 3:
        raise clp.FitError(f"the weak regime needs >= 3 lags at or past t_bump_end "
                           f"{t_weak:g}, got {len(fits)}")
    pts_weak, weak = clp.collapse_zone(pdfs, bins, fits, "C")
    results = {"weak": weak}
    clp.write_collapsed_csv(pts_weak, out / "collapsed_weak.npy")
    record("collapse", out / "collapsed_weak.npy")

    pdfs, bins, fits = zone(lambda t: t < partition.t_cross_start)
    if not state["has_bumps"]:
        regimes["strong"] = f"fewer than 3 lags with a bump ({regimes['n_lags_with_bump']})"
    elif len(fits) < 3:
        regimes["strong"] = (f"fewer than 3 lags below t_cross_start "
                             f"{partition.t_cross_start:g} ({len(fits)})")
    else:
        try:
            pts_strong, results["strong"] = clp.collapse_zone(
                pdfs, [b.below(partition.boundary(b.lag)) for b in bins], fits, "A",
                restriction=lambda t, xs: np.abs(xs) < partition.boundary(t),
            )
        except clp.FitError as exc:
            regimes["strong"] = str(exc)
        else:
            clp.write_collapsed_csv(pts_strong, out / "collapsed_strong.npy")
            record("collapse", out / "collapsed_strong.npy")
            regimes["strong"] = "fitted"

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
        rows = _d2_rows(gp, t_ref, np.geomspace(0.01 * width, 100.0 * width, 101))
    write_table(path, ["t", "x", "d2"], rows)
    record("d2_grid", path)


def _d2_rows(gp: pme.GoverningParams, t: float, xs) -> list:
    """(t, x, D2(x, t)) rows, one x at a time: D2 of an array of x differs
    in the last bits."""
    return [(t, x, float(pme.black_scholes_d2(x, t, gp))) for x in xs]


# --- synth ----------------------------------------------------------------

# ``synth --mode mixture``'s narrow component: the strong regime's q, alpha
# and D, its weight as t -> 0, and the lag where that weight reaches 0
MIXTURE_BUMP = {"bump_q": 2.73, "bump_alpha": 1.26, "bump_d": 4.8e-3,
                "bump_weight": 0.5, "bump_t_end": 78.0, "bump_sharpness": 1.0}


def cmd_synth(
    out_dir,
    q: float,
    alpha: float,
    d_coef: float,
    lags,
    n_per_lag: int,
    seed: int,
    mode: str = "selfsim",
) -> Path:
    """Generate per-lag sample files from the self-similar family.

    ``selfsim`` mode draws every lag from one (q, alpha, D) family.
    ``mixture`` mode overlays the narrow component ``MIXTURE_BUMP`` with
    weight bump_weight * max(0, 1 - t/bump_t_end), providing two-regime
    fixtures for the boundary detectors. Sidecars and ``synth.json``
    record its six values.
    """
    if n_per_lag < 1:
        raise ValidationError(f"n_per_lag must be >= 1, got {n_per_lag}")
    if mode not in ("selfsim", "mixture"):
        raise ValidationError(f"unknown synth mode {mode!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    law = ScalingLaw(alpha=alpha, d_coef=d_coef)
    bump = MIXTURE_BUMP
    meta = {
        "mode": mode, "q": q, "alpha": alpha, "d_coef": d_coef, "seed": seed,
    }
    if mode == "mixture":
        meta.update(bump)
        bump_law = ScalingLaw(alpha=bump["bump_alpha"], d_coef=bump["bump_d"])
    for i, t in enumerate(lags):
        t = float(t)
        if mode == "selfsim":
            samples = selfsim_sample(q, law, t, n_per_lag, seed=seed + i)
        else:
            rng = np.random.default_rng(seed + i)
            w_t = bump["bump_weight"] * max(0.0, 1.0 - t / bump["bump_t_end"])
            n_bump = int(round(w_t * n_per_lag))
            parts = []
            if n_bump > 0:
                parts.append(selfsim_sample(bump["bump_q"], bump_law, t, n_bump,
                                            seed=rng.integers(2**63)))
            parts.append(selfsim_sample(q, law, t, n_per_lag - n_bump,
                                        seed=rng.integers(2**63)))
            samples = rng.permutation(np.concatenate(parts))
        write_array(_samples_path(out, t), samples, {"lag": t, "n": samples.size, **meta})
    write_json(out / "synth.json",
               {**meta, "lags": [float(t) for t in lags], "n_per_lag": n_per_lag})
    return out


# --- verify-pme -------------------------------------------------------------

PME_T1, PME_C_INT = 1.0, 1.0  # start time and integration constant of verify-pme's field


def cmd_verify_pme(
    m: float,
    *,
    grid_points: int = 1025,
    t2: float = 4.0,
    refinements: int = 3,
) -> dict:
    """Verify the analytic solution and the solver for one exponent.

    Reports the equation residual of the closed-form solution, the
    sup-error against it of the field evolved from ``PME_T1`` to ``t2`` on
    a grid whose half-width follows from m, the mass drift, a spatial
    convergence order from grid refinements, each level's step count,
    floor hits and mass drift, and for m > 1 the front error. For m <= 0
    the evolution is ill-posed (negative diffusivity) and only the
    residual is reported.
    """
    if not (-1.0 < m < 2.0) or m == 0.0:
        raise ValidationError(f"m={m!r} outside (-1, 2) or degenerate at 0")
    report: dict = {"m": m, "c_int": PME_C_INT, "t1": PME_T1, "t2": t2}

    b = pme.profile_coef(m)
    if m == 1.0 or b > 0:
        probe_x = np.linspace(0.1, 3.0, 13)
    else:
        edge = math.sqrt(PME_C_INT / abs(b))  # the support edge at t1 = 1
        probe_x = np.linspace(0.05, 0.6, 13) * edge
    resid = pme.barenblatt_residual(probe_x, PME_T1, m, PME_C_INT)
    peak = float(np.max(np.abs(np.asarray(pme.barenblatt(probe_x, PME_T1, m, PME_C_INT)))))
    report["residual_max"] = float(np.max(resid))
    report["residual_rel_peak"] = float(np.max(resid) / peak)

    if m <= 0.0:
        report["evolution"] = "skipped: m <= 0 is anti-diffusive in this form"
        return report

    if m < 1.0:
        half_width = 15.0 * t2 ** (1.0 / (m + 1.0))
    elif m == 1.0:
        half_width = 12.0 * math.sqrt(2.0 * t2)
    else:
        half_width = 1.5 * edge * t2 ** (1.0 / (m + 1.0))

    errors = []
    by_level: dict = {"n_steps": [], "floor_hits": [], "mass_drift": []}
    for level in range(refinements):
        n = (grid_points - 1) * 2**level + 1
        grid = np.linspace(-half_width, half_width, n)
        u0 = np.asarray(pme.barenblatt(grid, PME_T1, m, PME_C_INT))
        field = pme.PmeField(grid=grid, u=u0, time=PME_T1, m=m)
        # Power tails reach the edges for m < 1; for m >= 1 the field there is ~0.
        closure = {"bc": "zero-flux"}
        if m < 1.0:
            bv = lambda times, ends=grid[[0, -1]]: pme.barenblatt(ends, times, m, PME_C_INT)
            closure = {"bc": "dirichlet", "boundary_values": bv}
        # TR-BDF2 is second order in time, like the grid in space
        res = pme.solve_pme(field, t2, log_step=2e-3 / 2**level, **closure)
        exact = np.asarray(pme.barenblatt(grid, t2, m, PME_C_INT))
        err = float(np.max(np.abs(res.field.u - exact)))
        errors.append(err)
        for key, values in by_level.items():
            values.append(getattr(res, key))
        if level == 0:
            report["mass_drift"] = res.mass_drift
            report["n_steps"] = res.n_steps
            report["scheme"] = res.scheme
            report["sup_error_rel_peak"] = err / float(np.max(exact))
            if m > 1.0:
                # Compact support: compare the numeric front position
                # against the analytic support edge.
                front_exact = edge * t2 ** (1.0 / (m + 1.0))
                front_num = _pressure_front(grid, res.field.u, m)
                report["front_exact"] = front_exact
                report["front_numeric"] = front_num
                report["front_error_cells"] = abs(front_num - front_exact) / (grid[1] - grid[0])
    report["sup_errors"] = errors
    report.update({f"{key}_by_level": values for key, values in by_level.items()})
    if len(errors) >= 2:
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        report["convergence_orders"] = orders
        report["convergence_order"] = float(np.mean(orders))
    return report


def _pressure_front(grid: np.ndarray, u: np.ndarray, m: float) -> float:
    """The support edge |x| of a field with m > 1: on each side, where the
    pressure u^(m-1), linear in x^2 for the exact field, extrapolates to
    zero through the outermost two points with u > 1e-8 max u; the farther
    side's edge. The outermost such point alone lies cells inside the edge
    when m is near 1."""
    occupied = np.flatnonzero(u > 1e-8 * np.max(u))
    edges = []
    for outer, inner in ((occupied[0], occupied[0] + 1), (occupied[-1], occupied[-1] - 1)):
        s_out, s_in = grid[outer] ** 2, grid[inner] ** 2
        p_out, p_in = u[outer] ** (m - 1.0), u[inner] ** (m - 1.0)
        edges.append(math.sqrt(s_out + p_out * (s_out - s_in) / (p_in - p_out)))
    return max(edges)


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

    p = sub.add_parser("verify-pme", help="verify the diffusion solver against the analytic solution")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=1025)
    p.add_argument("--t2", type=float, default=4.0)
    p.add_argument("--refinements", type=int, default=3)
    p.add_argument("--out", default="", help="write the JSON report here")

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


def _emit_json(obj, out: str) -> None:
    """Print ``obj`` as JSON and, given ``out``, write the same text there."""
    if out:
        write_json(out, obj)
    print(json_text(obj))


def _run(args) -> int:
    if args.command == "pipeline":
        overrides = dict(_parse_setting(item, "--set: ") for item in args.set)
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
        try:
            lags = ing.lag_ladder(args.min_lag, args.max_lag, args.points_per_decade)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        out = cmd_synth(
            args.out, args.q, args.alpha, args.d_coef, lags, args.n_per_lag,
            args.seed, mode=args.mode,
        )
        print(f"synthetic ensembles written to {out}")
        return 0

    if args.command == "verify-pme":
        report = cmd_verify_pme(args.m, grid_points=args.grid_points, t2=args.t2,
                                refinements=args.refinements)
        _emit_json(report, args.out)
        return 0

    if args.command == "d2-grid":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gp = pme.map_constants(args.q, args.alpha, args.d_coef)
        write_table(args.out, ["t", "x", "d2"],
                    _d2_rows(gp, args.t, np.linspace(args.x_min, args.x_max, args.n)))
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
