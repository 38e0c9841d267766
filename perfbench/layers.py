"""Per-layer metrics and the count consistency check, from traced jobs.

Every traced job is one ``job`` span opened by the benchmark, with a
``cli.main`` span around each CLI call.  Counts and times are per job
(the mean over the run's traced jobs); ratios and shares are taken over
the totals.  A layer that a workload does not use reports 0.
"""

from spans import SpanTree
from workloads import STRAIN_SIGMAS_MHZ, sigma_label

SUMS = (
    ("config.load_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
    ("model.calibrate_s", "s"),
    ("model.calibrate_solves", "count"),
    ("model.hamiltonian_s", "s"),
    ("model.hamiltonian_calls", "count"),
    ("model.collapse_s", "s"),
    ("model.liouvillian_s", "s"),
    ("model.liouvillian_calls", "count"),
    ("model.liouvillian_bytes_computed", "B"),
    ("solver.steady_state_s", "s"),
    ("solver.steady_state_calls", "count"),
    ("solver.errors", "count"),
    ("solver.observables_s", "s"),
    ("sweep.points", "count"),
    ("sweep.point_s", "s"),
    ("sweep.self_s", "s"),
    ("sweep.checkpoint_bytes", "B"),
    ("sweep.strain_nodes", "count"),
    ("sweep.strain_avg_s", "s"),
    ("odmr.fits", "count"),
    ("odmr.fit_s", "s"),
    ("odmr.lm_self_s", "s"),
    ("odmr.lm_iters", "count"),
    ("odmr.model_evals", "count"),
    ("odmr.jac_evals", "count"),
    ("odmr.model_s", "s"),
    ("odmr.lineshape_evals", "count"),
    ("odmr.lineshape_s", "s"),
)
RATIOS = (
    ("model.liouvillian_share", "ratio"),
    ("solver.steady_state_share", "ratio"),
    ("sweep.ok_ratio", "ratio"),
    ("sweep.thread_util", "ratio"),
    ("odmr.converged_ratio", "ratio"),
)
PER_SIGMA = tuple(
    (f"{base}.{sigma_label(s)}", unit)
    for s in STRAIN_SIGMAS_MHZ
    for base, unit in (("odmr.lineshape_evals", "count"), ("odmr.lineshape_s", "s"))
)
TRACE = (
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)
PER_LAYER = SUMS + RATIOS + PER_SIGMA + TRACE

LM_CHILDREN = frozenset({"odmr.model", "odmr.jac", "odmr.lineshape"})


def _job_sums(tree: SpanTree, job) -> tuple:
    """(per-job sums keyed like SUMS, ratio numerators and denominators)."""
    by = {}
    for s in tree.descendants(job):
        by.setdefault(s.name, []).append(s)

    def dur(name, pred=None):
        return sum(s.duration for s in by.get(name, ()) if pred is None or pred(s))

    def count(name, pred=None):
        return sum(1 for s in by.get(name, ()) if pred is None or pred(s))

    def under(name):
        return lambda s: tree.has_ancestor(s, name)

    in_point = under("sweep.point")
    scans = by.get("sweep.scan", ())
    fits = by.get("odmr.fit", ())
    v = {
        "config.load_s": dur("config.load"),
        "cli.self_s": sum(tree.self_time(s) for s in by.get("cli.main", ())),
        "cli.out_bytes": job.attrs.get("out_bytes", 0),
        "model.calibrate_s": dur("model.calibrate"),
        "model.calibrate_solves": count("solver.steady_state", under("model.calibrate")),
        "model.hamiltonian_s": dur("model.hamiltonian"),
        "model.hamiltonian_calls": count("model.hamiltonian"),
        "model.collapse_s": dur("model.collapse"),
        "model.liouvillian_s": dur("model.liouvillian"),
        "model.liouvillian_calls": count("model.liouvillian"),
        "model.liouvillian_bytes_computed": sum(
            s.attrs.get("bytes", 0) for s in by.get("model.liouvillian", ())),
        "solver.steady_state_s": dur("solver.steady_state"),
        "solver.steady_state_calls": count("solver.steady_state"),
        "solver.errors": count("solver.steady_state", lambda s: "error" in s.attrs),
        "solver.observables_s": dur("solver.observable"),
        "sweep.points": count("sweep.point", under("sweep.scan")),
        "sweep.point_s": dur("sweep.point"),
        "sweep.self_s": sum(tree.self_time(s) for s in scans),
        "sweep.checkpoint_bytes": job.attrs.get("checkpoint_bytes", 0),
        "sweep.strain_nodes": count("sweep.point", under("sweep.strain_avg")),
        "sweep.strain_avg_s": dur("sweep.strain_avg"),
        "odmr.fits": len(fits),
        "odmr.fit_s": sum(s.duration for s in fits),
        "odmr.lm_self_s": sum(tree.self_time(s, LM_CHILDREN) for s in fits),
        "odmr.lm_iters": sum(s.attrs.get("n_iter", 0) for s in by.get("odmr.lm", ())),
        "odmr.model_evals": count("odmr.model"),
        "odmr.jac_evals": count("odmr.jac"),
        "odmr.model_s": dur("odmr.model"),
        "odmr.lineshape_evals": count("odmr.lineshape"),
        "odmr.lineshape_s": dur("odmr.lineshape"),
    }
    parts = {
        "liouvillian_in_points": dur("model.liouvillian", in_point),
        "steady_state_in_points": dur("solver.steady_state", in_point),
        "points_ok": job.attrs.get("points_ok", 0),
        "points_total": job.attrs.get("points_total", 0),
        "scan_busy": dur("sweep.point", under("sweep.scan")),
        "scan_capacity": sum(s.attrs.get("threads", 1) * s.duration for s in scans),
        "fits_converged": sum(1 for s in fits if s.attrs.get("converged")),
        "spans": 1 + sum(len(x) for x in by.values()),
    }
    return v, parts


def _check_counts(job, v) -> list:
    """Counts that must agree if every binding of a layer was wrapped."""
    problems = []
    a = job.attrs

    def need(ok, what):
        if not ok:
            problems.append(f"job {a.get('label')}: {what}")

    calls = v["model.liouvillian_calls"]
    solves = v["solver.steady_state_calls"]
    need(calls == solves, f"liouvillian_calls {calls} != steady_state_calls {solves}")
    need(v["model.hamiltonian_calls"] == calls,
         f"hamiltonian_calls {v['model.hamiltonian_calls']} != liouvillian_calls {calls}")
    expected = v["sweep.points"] + v["sweep.strain_nodes"] + v["model.calibrate_solves"]
    need(solves == expected, f"steady_state_calls {solves} != points + strain_nodes + "
                             f"calibrate_solves = {expected}")
    if "points_expected" in a:
        need(v["sweep.points"] == a["points_expected"],
             f"sweep.points {v['sweep.points']} != grid size {a['points_expected']}")
        need(v["sweep.strain_nodes"] == a["strain_nodes_expected"],
             f"sweep.strain_nodes {v['sweep.strain_nodes']} != quadrature nodes "
             f"{a['strain_nodes_expected']}")
        need(v["model.calibrate_solves"] > 0, "no calibration solves recorded")
    if "fits_expected" in a:
        need(v["odmr.fits"] == a["fits_expected"],
             f"odmr.fits {v['odmr.fits']} != {a['fits_expected']}")
        need(v["odmr.lm_iters"] > 0, "no Levenberg-Marquardt iterations recorded")
        if a["kind"] == "triplet":
            need(v["odmr.model_evals"] > 0 and v["odmr.jac_evals"] > 0,
                 "no Lorentzian model or Jacobian evaluations recorded")
        else:
            need(v["odmr.lineshape_evals"] > v["odmr.lm_iters"],
                 "fewer lineshape evaluations than LM iterations")
    need(v["config.load_s"] > 0, "no config load recorded")
    return problems


def layer_metrics(spans) -> tuple:
    """(metrics {name: value}, count-check problems) over all traced jobs."""
    tree = SpanTree(spans)
    jobs = [s for s in spans if s.name == "job"]
    totals = {name: 0.0 for name, _unit in SUMS}
    parts_total = {}
    per_sigma = {}
    problems = []
    for job in jobs:
        v, parts = _job_sums(tree, job)
        problems += _check_counts(job, v)
        for k, x in v.items():
            totals[k] += x
        for k, x in parts.items():
            parts_total[k] = parts_total.get(k, 0.0) + x
        if "sigma" in job.attrs:
            acc = per_sigma.setdefault(sigma_label(job.attrs["sigma"]), [0, 0, 0.0])
            acc[0] += 1
            acc[1] += v["odmr.lineshape_evals"]
            acc[2] += v["odmr.lineshape_s"]
    n = max(len(jobs), 1)
    out = {k: x / n for k, x in totals.items()}

    def ratio(num, den):
        d = parts_total.get(den, 0.0) if isinstance(den, str) else den
        return parts_total.get(num, 0.0) / d if d else 0.0

    out["model.liouvillian_share"] = ratio("liouvillian_in_points", totals["sweep.point_s"])
    out["solver.steady_state_share"] = ratio("steady_state_in_points", totals["sweep.point_s"])
    out["sweep.ok_ratio"] = ratio("points_ok", "points_total")
    out["sweep.thread_util"] = ratio("scan_busy", "scan_capacity")
    out["odmr.converged_ratio"] = ratio("fits_converged", totals["odmr.fits"])
    for s in STRAIN_SIGMAS_MHZ:
        k, evals, secs = per_sigma.get(sigma_label(s), (0, 0, 0.0))
        out[f"odmr.lineshape_evals.{sigma_label(s)}"] = evals / k if k else 0
        out[f"odmr.lineshape_s.{sigma_label(s)}"] = secs / k if k else 0.0
    out["trace.spans"] = parts_total.get("spans", 0) / n
    if not jobs:
        problems.append("no traced job")
    return out, problems
