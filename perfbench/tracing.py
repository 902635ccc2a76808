"""Spans recorded from outside qdiff, by wrapping module attributes.

The CLI reaches every layer through module attributes (``ing.load_series``,
``dns.kde``, ``clp.fit_qgauss``, ...), so replacing those attributes with
timing wrappers records one span per call without touching the package.
Spans stay in memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import asdict, dataclass, field

from qdiff import cli
from qdiff import collapse as clp
from qdiff import density as dns
from qdiff import ingest as ing
from qdiff import pme
from qdiff import regimes as reg

MODULES = ("cli", "qgauss", "ingest", "density", "regimes", "collapse", "pme")

# (module object, attribute, span name). The span name's prefix is the
# module that owns the code; cli.selfsim_sample is qgauss code imported
# into the cli namespace.
TARGETS = (
    (cli, "cmd_synth", "cli.synth"),
    (cli, "cmd_pipeline", "cli.pipeline"),
    (cli, "cmd_verify_pme", "cli.verify_pme"),
    (cli, "selfsim_sample", "qgauss.sample"),
    (ing, "load_series", "ingest.load"),
    (ing, "write_gap_report", "ingest.gap_report"),
    (ing, "detrend", "ingest.detrend"),
    (ing, "returns_at_lag", "ingest.returns"),
    (dns, "kde", "density.kde"),
    (dns, "pdf_height", "density.height"),
    (dns, "second_moment", "density.moment"),
    (dns, "write_pdf_csv", "density.write"),
    (dns, "write_moment_csv", "density.write"),
    (reg, "bump_boundary", "regimes.bump"),
    (reg, "fit_boundary_curve", "regimes.fit"),
    (reg, "fit_height_law", "regimes.fit"),
    (reg, "detect_bump_end", "regimes.bump_end"),
    (reg, "write_boundary_csv", "regimes.write"),
    (clp, "fit_qgauss", "collapse.lag_fit"),
    (clp, "write_lag_fits_json", "collapse.write"),
    (clp, "fit_beta_law", "collapse.master_fit"),
    (clp, "collapse_pdfs", "collapse.master_fit"),
    (clp, "fit_collapsed", "collapse.master_fit"),
    (clp, "write_collapsed_csv", "collapse.write"),
    (pme, "solve_pme", "pme.solve"),
    (pme, "barenblatt", "pme.barenblatt"),
    (pme, "barenblatt_residual", "pme.residual"),
    (pme, "map_constants", "pme.map_constants"),
    (pme, "black_scholes_d2", "pme.d2"),
)

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
# Each group notes which end-to-end metric it should move, and where.
LAYER_METRICS = {
    # Entry points, inclusive. "self" is the remainder after all child
    # spans: sample text read/write, sha256 and quantiles. Self times move
    # op_s on weak-ensembles and index-series, barely on dense-ladder.
    "cli.synth_s": "s",
    "cli.pipeline_s": "s",
    "cli.verify_pme_s": "s",
    "cli.synth_self_s": "s",
    "cli.pipeline_self_s": "s",
    # Bytes one op leaves on disk, including the pipeline's self-copy of
    # its input (ROADMAP item 2 removes it).
    "cli.disk_mb": "MB",
    # Sampling: a small share of op_s on weak-ensembles.
    "qgauss.sample_s": "s",
    "qgauss.samples_per_s": "1/s",
    # Ingest: op_s on index-series only; zero elsewhere.
    "ingest.load_s": "s",
    "ingest.rows_per_s": "1/s",
    "ingest.detrend_s": "s",
    "ingest.returns_s": "s",
    # Density: kde_s scales with samples (weak-ensembles, index-series);
    # write_s with lags (dense-ladder).
    "density.kde_s": "s",
    "density.kde_calls": "count",
    "density.write_s": "s",
    # Regimes: bump detection per lag; op_s on index-series and dense-ladder.
    "regimes.bump_s": "s",
    "regimes.bump_calls": "count",
    "regimes.detect_ratio": "1",
    "regimes.fit_s": "s",
    # Collapse: op_s on dense-ladder most, weak-ensembles less. The three
    # errors are the weak-collapse results against the synthetic truth
    # (zero on workloads without one).
    "collapse.lag_fit_s": "s",
    "collapse.lag_fit_calls": "count",
    "collapse.lag_fit_failed": "count",
    "collapse.at_bound": "count",
    "collapse.master_fit_s": "s",
    "collapse.write_s": "s",
    "collapse.q_abs_err": "1",
    "collapse.alpha_abs_err": "1",
    "collapse.d_rel_err": "1",
    # Solver: op_s on pme-verify; zero elsewhere. An implicit-step change
    # must leave the explicit figures unchanged.
    "pme.implicit_s": "s",
    "pme.implicit_steps": "count",
    "pme.implicit_us_per_step": "us",
    "pme.explicit_s": "s",
    "pme.explicit_steps": "count",
    "pme.explicit_us_per_step": "us",
    "pme.boundary_calls": "count",
    "pme.boundary_s": "s",
    "pme.floor_hits": "count",
    "pme.sup_err": "1",
    "pme.order_err": "1",
    # Self time per module: the largest is the layer that dominates op_s.
    **{f"{m}.self_s": "s" for m in MODULES},
    # Median traced op minus median untraced op of the same run.
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int  # which traced op the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``instrument`` installs it on qdiff."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            # About 70k boundary evaluations happen inside one verify op:
            # fold them into a count and a total on the enclosing solve.
            if name == "pme.barenblatt" and parent >= 0 and self.spans[parent].name == "pme.solve":
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    attrs = self.spans[parent].attrs
                    attrs["boundary_s"] = attrs.get("boundary_s", 0.0) + time.perf_counter() - t0
                    attrs["boundary_calls"] = attrs.get("boundary_calls", 0) + 1
            span = Span(name, time.perf_counter(), math.nan, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            _annotate(span, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Replace every target attribute with a traced wrapper, then restore."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))

    def op_metrics(self, op: int) -> dict:
        """Per-layer figures of one traced op, from its spans alone."""
        mine = [i for i, s in enumerate(self.spans) if s.op == op]
        spans = [self.spans[i] for i in mine]
        child_s = dict.fromkeys(mine, 0.0)
        for s in spans:
            if s.parent >= 0:
                child_s[s.parent] += s.duration
        own_s = [(s, s.duration - child_s[i]) for i, s in zip(mine, spans)]

        def total(name):
            return sum(s.duration for s in spans if s.name == name)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def attr(name, key):
            return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

        def own(name):
            return sum(t for s, t in own_s if s.name == name)

        def rate(n, seconds):
            return n / seconds if seconds > 0.0 else 0.0

        solves = {"implicit": [], "explicit": []}
        for s in spans:
            if s.name == "pme.solve" and s.attrs.get("scheme") in solves:
                solves[s.attrs["scheme"]].append(s)
        out = {
            "cli.synth_s": total("cli.synth"),
            "cli.pipeline_s": total("cli.pipeline"),
            "cli.verify_pme_s": total("cli.verify_pme"),
            "cli.synth_self_s": own("cli.synth"),
            "cli.pipeline_self_s": own("cli.pipeline"),
            "qgauss.sample_s": total("qgauss.sample"),
            "qgauss.samples_per_s": rate(attr("qgauss.sample", "n"), total("qgauss.sample")),
            "ingest.load_s": total("ingest.load"),
            "ingest.rows_per_s": rate(attr("ingest.load", "n"), total("ingest.load")),
            "ingest.detrend_s": total("ingest.detrend"),
            "ingest.returns_s": total("ingest.returns"),
            "density.kde_s": total("density.kde"),
            "density.kde_calls": calls("density.kde"),
            "density.write_s": total("density.write"),
            "regimes.bump_s": total("regimes.bump"),
            "regimes.bump_calls": calls("regimes.bump"),
            "regimes.detect_ratio": rate(attr("regimes.bump", "found"), calls("regimes.bump")),
            "regimes.fit_s": total("regimes.fit"),
            "collapse.lag_fit_s": total("collapse.lag_fit"),
            "collapse.lag_fit_calls": calls("collapse.lag_fit"),
            "collapse.lag_fit_failed": attr("collapse.lag_fit", "error"),
            "collapse.at_bound": attr("collapse.lag_fit", "at_boundary"),
            "collapse.master_fit_s": total("collapse.master_fit"),
            "collapse.write_s": total("collapse.write"),
            "pme.boundary_calls": attr("pme.solve", "boundary_calls"),
            "pme.boundary_s": attr("pme.solve", "boundary_s"),
            "pme.floor_hits": attr("pme.solve", "floor_hits"),
        }
        for scheme, group in solves.items():
            seconds = sum(s.duration for s in group)
            steps = sum(s.attrs.get("n_steps", 0) for s in group)
            out[f"pme.{scheme}_s"] = seconds
            out[f"pme.{scheme}_steps"] = steps
            out[f"pme.{scheme}_us_per_step"] = 1e6 * seconds / steps if steps else 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = sum(t for s, t in own_s if s.name.split(".")[0] == module)
        return out


def _annotate(span: Span, result) -> None:
    """Counts read from a call's return value."""
    if span.name == "qgauss.sample":
        span.attrs["n"] = int(result.size)
    elif span.name == "ingest.load":
        span.attrs["n"] = len(result)
    elif span.name == "regimes.bump":
        span.attrs["found"] = int(result is not None)
    elif span.name == "collapse.lag_fit":
        span.attrs["at_boundary"] = int(result.at_boundary)
    elif span.name == "pme.solve":
        span.attrs.update(scheme=result.scheme, n_steps=result.n_steps,
                          floor_hits=result.floor_hits)
