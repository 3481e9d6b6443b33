"""Which csmooth names the traced run wraps, and the per-layer metrics they yield.

Names that the ROADMAP plans to delete or replace (run_method,
smooth_update, AdmmState, Partition.binary_patches, per-patch waterfill)
are deliberately not wrapped; the spans sit on the calls that survive.
Every per-layer figure is per traced rep, except maxima, ratios and means.
"""
from __future__ import annotations

import math
import statistics
import tracemalloc
from contextlib import contextmanager

from tracer import Tracer, written_bytes

ROOT_SPAN = "bench.rep"
CLI_COMMANDS = ("recover", "evaluate", "plot")
METHODS = ("pe", "pe-ssr1", "pe-ssr2", "css", "css-features")


def instrument(tr: Tracer) -> None:
    def mesh(tri, args, kwargs):
        tr.peak("fem.vertices", tri.n_vertices)
        tr.peak("fem.triangles", tri.n_triangles)

    def system(fem, args, kwargs):
        tr.peak("fem.edges", fem.n_edges)
        tr.peak("fem.edge_jump.nnz", fem.edge_jump.nnz)

    @contextmanager
    def allocation_peak():
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tr.peak("partition.build_partition.peak_mb", peak / 2**20)

    def solve_name(args, kwargs):
        covariates = args[2] if len(args) > 2 else kwargs.get("covariates")
        return "smoother.solve" if covariates is None else "smoother.solve_cov"

    def recovered(res, args, kwargs):
        root_n = math.sqrt(res.estimate.domain.n)
        tr.count("admm.sweeps", res.iterations)
        tr.peak("admm.sweeps_max", res.iterations)
        tr.count("admm.converged", bool(res.converged))
        tr.peak("admm.final_primal_max", float(res.primal_residuals[-1]) / root_n)
        tr.peak("admm.final_dual_max", float(res.dual_residuals[-1]) / root_n)

    def counter(name):
        return lambda result, args, kwargs: tr.count(name, written_bytes(args, kwargs))

    tr.wrap("csmooth.fem", "triangulate", "fem.triangulate", after=mesh)
    tr.wrap("csmooth.fem", "assemble", "fem.assemble", after=system)
    tr.wrap("csmooth.partition", "build_partition", "partition.build_partition",
            around=allocation_peak)
    tr.wrap("csmooth.partition", "sample_stations", "partition.sample_stations")
    tr.wrap("csmooth.partition", "aggregate", "partition.aggregate")
    tr.wrap_method("csmooth.smoother", "SsrSolver", "__init__", "smoother.factor")
    tr.wrap_method("csmooth.smoother", "SsrSolver", "solve", solve_name)
    tr.wrap("csmooth.admm", "css_recover", "admm.css_recover", after=recovered)
    tr.wrap("csmooth.admm", "volume_projection", "admm.volume_projection")
    tr.wrap("csmooth.admm", "dual_update", "admm.dual_update")
    tr.wrap("csmooth.methods", "run_method_full",
            lambda args, kwargs: f"methods.{(args[0] if args else kwargs['spec']).method}")
    tr.wrap("csmooth.synth", "generate_field", "synth.generate_field")
    tr.wrap("csmooth.benchmark", "run_seed", "benchmark.run_seed")
    tr.wrap("csmooth.metrics", "relative_errors", "metrics.relative_errors")
    tr.wrap_prefix("csmooth.dataio", "read_", "dataio.read")
    tr.wrap_prefix("csmooth.dataio", "write_", "dataio.write", after=counter("dataio.bytes_written"))
    tr.wrap_prefix("csmooth.svgplot", "render_", "svgplot.render", after=counter("svgplot.bytes"))
    tr.wrap("csmooth.cli", "main",
            lambda args, kwargs: f"cli.{(args[0] if args else kwargs['argv'])[0]}")


def layer_metrics(tr: Tracer, reps: int, mre: dict[str, list[float]],
                  untraced_wall: float, setup: dict[str, float]) -> dict[str, float | None]:
    """Per-layer values by name; None where the layer did no work in this workload."""

    def ran(*spans):
        return [s for s in spans if tr.calls.get(s)]

    def time_in(span):
        return tr.total_s[span] / reps if ran(span) else None

    def self_in(*spans):
        hit = ran(*spans)
        return sum(tr.self_s[s] for s in hit) / reps if hit else None

    def calls(span):
        return tr.calls[span] / reps if ran(span) else None

    def counted(name):
        return tr.counts[name] / reps if name in tr.counts else None

    def peak(name):
        return tr.maxima.get(name)

    css_runs = tr.calls.get("admm.css_recover", 0)
    solves = ran("smoother.solve", "smoother.solve_cov")
    traced_wall = tr.total_s[ROOT_SPAN] / reps
    layer_self = sum(v for k, v in tr.self_s.items() if k != ROOT_SPAN) / reps
    out = {
        "setup.import_s": setup["import_s"],
        "setup.inputs_s": setup["inputs_s"],
        "fem.triangulate.s": time_in("fem.triangulate"),
        "fem.assemble.s": time_in("fem.assemble"),
        "fem.vertices": peak("fem.vertices"),
        "fem.triangles": peak("fem.triangles"),
        "fem.edges": peak("fem.edges"),
        "fem.edge_jump.nnz": peak("fem.edge_jump.nnz"),
        "partition.build_partition.s": time_in("partition.build_partition"),
        "partition.build_partition.peak_mb": peak("partition.build_partition.peak_mb"),
        "partition.sample_stations.s": time_in("partition.sample_stations"),
        "partition.aggregate.s": time_in("partition.aggregate"),
        "smoother.factor.s": time_in("smoother.factor"),
        "smoother.factor.calls": calls("smoother.factor"),
        "smoother.solve.s": time_in("smoother.solve"),
        "smoother.solve.calls": calls("smoother.solve"),
        "smoother.solve.ms_p50": (
            1e3 * statistics.median(tr.durations["smoother.solve"]) if ran("smoother.solve") else None
        ),
        "smoother.solve_cov.s": time_in("smoother.solve_cov"),
        "smoother.solve_cov.calls": calls("smoother.solve_cov"),
        "smoother.solves_per_factor": (
            sum(tr.calls[s] for s in solves) / tr.calls["smoother.factor"]
            if solves and tr.calls.get("smoother.factor") else None
        ),
        "admm.css_recover.s": time_in("admm.css_recover"),
        "admm.css_recover.calls": calls("admm.css_recover"),
        "admm.self_s": self_in("admm.css_recover"),
        "admm.sweeps": counted("admm.sweeps"),
        "admm.sweeps_max": peak("admm.sweeps_max"),
        "admm.converged_frac": tr.counts["admm.converged"] / css_runs if css_runs else None,
        "admm.volume_projection.s": time_in("admm.volume_projection"),
        "admm.volume_projection.calls": calls("admm.volume_projection"),
        "admm.dual_update.s": time_in("admm.dual_update"),
        "admm.final_primal_max": peak("admm.final_primal_max"),
        "admm.final_dual_max": peak("admm.final_dual_max"),
        "synth.generate_field.s": time_in("synth.generate_field"),
        "benchmark.run_seed.s": time_in("benchmark.run_seed"),
        "metrics.relative_errors.s": time_in("metrics.relative_errors"),
        "dataio.read.s": time_in("dataio.read"),
        "dataio.write.s": time_in("dataio.write"),
        "dataio.bytes_written": counted("dataio.bytes_written"),
        "svgplot.render.s": time_in("svgplot.render"),
        "svgplot.bytes": counted("svgplot.bytes"),
        "cli.self_s": self_in(*(f"cli.{c}" for c in CLI_COMMANDS)),
        "bench.self_s": tr.self_s[ROOT_SPAN] / reps,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.layer_self_s": layer_self,
    }
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = time_in(f"cli.{c}")
    for m in METHODS:
        out[f"methods.{m}.s"] = time_in(f"methods.{m}")
        out[f"metrics.{m}.mre"] = statistics.fmean(mre[m]) if mre.get(m) else None
    return out
