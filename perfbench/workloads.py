"""The benchmark's workloads: inputs made from a seed, one op, and its check.

Every op calls the public CLI entry points through the ``cli`` module
attributes, so a traced op sees the same calls as an untraced one. Each
workload puts a different layer at most of the work:

* ``weak-ensembles``: synth plus pipeline on 8 lags of 10^5 samples;
  per-sample text I/O in the cli layer dominates.
* ``dense-ladder``: the same family on 15 lags of 10^4 samples; the
  per-lag fits and writers dominate.
* ``index-series``: pipeline on a 2x10^5-row 1-minute index CSV; the only
  workload that runs ingest.
* ``pme-verify``: the two verify-pme runs of acceptance criterion 5, to
  t2 = 1.25 on 513 points; the only workload in the solver.

Sizes keep one op at roughly 1-4 s on two cores, so a run holds several
ops and reports their median. ``prepare`` makes ``VARIANTS`` inputs from
the seed and the run cycles through them, so the median stands for the
workload rather than for one draw of its data. On the index series, for
example, op time differs by up to 1.5x between draws, and an occasional
lag sends bump detection into a second of fitting; one such draw would
otherwise set the time of every op in the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qdiff import cli
from qdiff import ingest as ing

STAGES = ("ensembles", "pdfs", "series", "regimes", "lag_fits", "collapse", "governing", "d2_grid")
# The synthetic truth of the self-similar workloads: q, alpha and D.
TRUTH = {"q": 1.71, "alpha": 1.79, "d_coef": 0.1118}
# Share of minutes missing from the index series, so gaps are recorded.
MISSING_FRAC = 0.001
# Inputs made from one seed.
VARIANTS = 6


def _variant_seeds(seed: int) -> list[int]:
    """One generator seed per variant, hashed from the benchmark seed.

    ``cmd_synth`` seeds lag i with seed + i, so variant seeds must lie far
    apart for the variants, and the seeds of different runs, not to share
    sample streams.
    """
    return np.random.SeedSequence(seed).generate_state(VARIANTS).tolist()


@dataclass(frozen=True)
class Outcome:
    """What one op produced: entry-point seconds and the figures checked."""

    stage_s: dict
    values: dict
    digest: tuple = ()


def _weak_collapse(out: Path) -> dict:
    weak = json.loads((out / "collapse.json").read_text())["weak"]
    return {"q": weak["q"], "alpha": weak["alpha"], "d_coef": weak["d_coef"]}


@dataclass(frozen=True)
class SelfSimilar:
    """``cmd_synth`` in selfsim mode, then ``cmd_pipeline`` on its output.

    Checked against the synthetic truth with the criterion-1 tolerances.
    """

    name: str
    points_per_decade: int
    n_per_lag: int

    def tiny(self) -> "SelfSimilar":
        return dataclasses.replace(self, points_per_decade=1, n_per_lag=30_000)

    def prepare(self, work: Path, seed: int) -> list:
        lags = ing.lag_ladder(1.0, 3000.0, self.points_per_decade)
        return [(lags, s) for s in _variant_seeds(seed)]

    def op(self, inputs, out: Path) -> Outcome:
        lags, seed = inputs
        t = TRUTH
        t0 = time.perf_counter()
        cli.cmd_synth(out / "synth", t["q"], t["alpha"], t["d_coef"], lags, self.n_per_lag, seed)
        t1 = time.perf_counter()
        cli.cmd_pipeline(cli.RunConfig(ensembles=str(out / "synth"), out=str(out / "pipeline")))
        t2 = time.perf_counter()
        return Outcome({"synth_s": t1 - t0, "pipeline_s": t2 - t1}, _weak_collapse(out / "pipeline"))

    def errors(self, outcome: Outcome) -> dict:
        v, t = outcome.values, TRUTH
        return {
            "collapse.q_abs_err": abs(v["q"] - t["q"]),
            "collapse.alpha_abs_err": abs(v["alpha"] - t["alpha"]),
            "collapse.d_rel_err": abs(v["d_coef"] - t["d_coef"]) / t["d_coef"],
        }

    def check(self, outcome: Outcome, reference: Outcome | None) -> list[str]:
        e = self.errors(outcome)
        limits = {"collapse.q_abs_err": 0.05, "collapse.alpha_abs_err": 0.05,
                  "collapse.d_rel_err": 0.10}
        return [f"{k}={e[k]:.4g} > {lim}" for k, lim in limits.items() if not e[k] <= lim]


@dataclass(frozen=True)
class IndexSeries:
    """``cmd_pipeline --input`` with the default config on a synthetic index.

    Numeric minute timestamps with about 0.1% of minutes missing; levels
    are the running sum of q = 1.4 q-Gaussian increments, drawn as
    Student-t with 4 degrees of freedom, which is the same family. There
    is no ground truth, so the check is structural plus rerun identity.
    """

    name: str
    rows: int
    points_per_decade: int

    def tiny(self) -> "IndexSeries":
        return dataclasses.replace(self, rows=60_000, points_per_decade=1)

    def prepare(self, work: Path, seed: int) -> list[Path]:
        work.mkdir(parents=True, exist_ok=True)
        n_minutes = int(round(self.rows / (1.0 - MISSING_FRAC)))
        paths = []
        for s in _variant_seeds(seed):
            rng = np.random.default_rng(s)
            drop = rng.choice(np.arange(1, n_minutes - 1), n_minutes - self.rows, replace=False)
            minutes = np.delete(np.arange(n_minutes), drop)
            levels = 1000.0 + np.cumsum(0.05 * rng.standard_t(4.0, size=minutes.size))
            path = work / f"index-{s}.csv"
            body = "\n".join(f"{m},{v!r}" for m, v in zip(minutes.tolist(), levels.tolist()))
            path.write_text("minute,level\n" + body + "\n")
            paths.append(path)
        return paths

    def op(self, inputs: Path, out: Path) -> Outcome:
        t0 = time.perf_counter()
        cli.cmd_pipeline(cli.RunConfig(input=str(inputs), out=str(out / "pipeline"),
                                       points_per_decade=self.points_per_decade))
        t1 = time.perf_counter()
        manifest = json.loads((out / "pipeline" / "manifest.json").read_text())
        digest = tuple((a["stage"], a["path"], a["sha256"]) for a in manifest["artifacts"])
        return Outcome({"pipeline_s": t1 - t0}, _weak_collapse(out / "pipeline"), digest)

    def errors(self, outcome: Outcome) -> dict:
        return {}

    def check(self, outcome: Outcome, reference: Outcome | None) -> list[str]:
        failures = []
        missing = set(STAGES) - {stage for stage, _, _ in outcome.digest}
        if missing:
            failures.append(f"manifest lacks stages {sorted(missing)}")
        if not all(math.isfinite(outcome.values[k]) for k in ("q", "alpha", "d_coef")):
            failures.append(f"non-finite weak collapse {outcome.values}")
        if reference is not None and outcome.digest != reference.digest:
            failures.append("artifact sha256 values differ from the first op on the same input")
        return failures


@dataclass(frozen=True)
class PmeVerify:
    """``cmd_verify_pme`` for m = 0.29 (implicit, Dirichlet, two levels) and
    m = 1.5 (explicit, zero-flux), checked with the criterion-5 tolerances.

    The solver input is fixed, so there is one variant; the seed does not
    change it.
    """

    name: str
    grid_points: int
    t2: float

    def tiny(self) -> "PmeVerify":
        return dataclasses.replace(self, grid_points=129)

    def prepare(self, work: Path, seed: int) -> list:
        return [None]

    def op(self, inputs, out: Path) -> Outcome:
        t0 = time.perf_counter()
        fast = cli.cmd_verify_pme(0.29, refinements=2, grid_points=self.grid_points, t2=self.t2)
        slow = cli.cmd_verify_pme(1.5, refinements=1, grid_points=self.grid_points, t2=self.t2)
        t1 = time.perf_counter()
        values = {"implicit_sup": fast["sup_error_rel_peak"], "order": fast["convergence_order"],
                  "explicit_sup": slow["sup_error_rel_peak"]}
        return Outcome({"verify_pme_s": t1 - t0}, values)

    def errors(self, outcome: Outcome) -> dict:
        v = outcome.values
        return {"pme.sup_err": v["implicit_sup"], "pme.order_err": abs(v["order"] - 2.0)}

    def check(self, outcome: Outcome, reference: Outcome | None) -> list[str]:
        v = outcome.values
        failures = []
        if not v["implicit_sup"] < 1e-3:
            failures.append(f"m=0.29 sup error {v['implicit_sup']:.3g} >= 1e-3")
        if not abs(v["order"] - 2.0) <= 0.3:
            failures.append(f"m=0.29 convergence order {v['order']:.3f} not within 2 +- 0.3")
        if not v["explicit_sup"] < 1e-3:
            failures.append(f"m=1.5 sup error {v['explicit_sup']:.3g} >= 1e-3")
        return failures


WORKLOADS = {
    w.name: w
    for w in (
        SelfSimilar("weak-ensembles", points_per_decade=2, n_per_lag=100_000),
        SelfSimilar("dense-ladder", points_per_decade=4, n_per_lag=10_000),
        IndexSeries("index-series", rows=200_000, points_per_decade=1),
        PmeVerify("pme-verify", grid_points=513, t2=1.25),
    )
}
