"""Spans around the calls into plqp's layers, recorded from outside the program.

The tracer replaces a function at the place where plqp looks it up (for names
bound with `from .x import y`, in the importing module) with a wrapper that
times the call.  Each span knows its parent, so a layer's self time is its
span minus the spans opened inside it.  A call nested inside an open span of
the same key is not timed again (e.g. `load_trajectory` -> `read_grid`).

Nothing in plqp changes: the wrappers are installed for one round and removed
afterwards, and the untraced rounds run the program exactly as a user does.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _linprog_phase(args, kwargs) -> str:
    """The two LPs of reconstruct_velocity: phase 1 minimizes the bound t
    (cost e_last), phase 2 the total |m| (cost [0, 1])."""
    c = np.asarray(args[0] if args else kwargs["c"])
    return "dynamics.linprog_phase1" if c.sum() == 1.0 and c[-1] == 1.0 else "dynamics.linprog_phase2"


def _sites():
    """(owner, attribute, span key) for every traced look-up site."""
    import networkx

    from plqp import bottleneck, cli, dynamics, gridio, mms, plmetric, transport

    return [
        (cli, "main", "cli"),
        (cli, "dqp", "plmetric.dqp"),
        (plmetric, "wq", "transport.wq"),
        (dynamics, "wq", "transport.wq"),
        (cli, "wq", "transport.wq"),
        # transport looks this up on the networkx module at each call
        (networkx, "network_simplex", "transport.network_simplex"),
        (transport, "linprog", "transport.linprog"),
        (cli, "wq_permutation_oracle", "transport.oracle"),
        (cli, "monotone_1d", "transport.oracle"),
        (cli, "winf_permutation_oracle", "bottleneck.oracle"),
        (plmetric, "winf", "bottleneck.winf"),
        (bottleneck, "winf", "bottleneck.winf"),
        (cli, "winf", "bottleneck.winf"),
        (dynamics, "winf", "bottleneck.winf"),
        (bottleneck, "maximum_flow", "bottleneck.maxflow"),
        (mms, "winf_radial", "bottleneck.winf_radial"),
        (cli, "run_scheme", "mms.run_scheme"),
        (mms, "resolvent", "mms.resolvent"),
        (mms, "isop", "functionals.isop"),
        (cli, "isop", "functionals.isop"),
        (plmetric, "grid_to_atoms", "measures.grid_to_atoms"),
        (bottleneck, "grid_to_atoms", "measures.grid_to_atoms"),
        (mms, "grid_to_atoms", "measures.grid_to_atoms"),
        (dynamics, "grid_to_atoms", "measures.grid_to_atoms"),
        (mms, "coarse_measure", "measures.coarse_measure"),
        (dynamics, "coarse_measure", "measures.coarse_measure"),
        (cli, "translate_curve", "measures.curve"),
        (cli, "dilate_curve", "measures.curve"),
        (dynamics, "linprog", _linprog_phase),
        (dynamics, "lsqr", "dynamics.lsqr"),
        (cli, "continuity_residual", "dynamics.residual"),
        (cli, "reconstruct_velocity", "dynamics.reconstruct"),
        (dynamics, "reconstruct_velocity", "dynamics.reconstruct"),
        (cli, "bb_verify", "dynamics.bb"),
        (dynamics, "trace_characteristics", "dynamics.trace"),
        (gridio, "read_grid", "gridio.read"),
        (gridio, "read_field_snapshot", "gridio.read"),
        (gridio, "load_trajectory", "gridio.read"),
        (gridio, "write_grid", "gridio.write"),
        (gridio, "write_field_snapshot", "gridio.write"),
        (gridio, "save_trajectory", "gridio.write"),
    ]


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [key, seconds in child spans]
        self._patches: list[tuple] = []
        self._paused = False
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()  # (outer key, inner key) -> calls
        self.winf_results: list = []  # (mu, nu, result), checked after the round

    def _wrap(self, fn, key):
        tracer = self

        def traced(*args, **kwargs):
            k = key(args, kwargs) if callable(key) else key
            if tracer._paused or any(span[0] == k for span in tracer._stack):
                return fn(*args, **kwargs)
            for span in tracer._stack:
                tracer.nested[span[0], k] += 1
            span = [k, 0.0]
            tracer._stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._stack.pop()
                tracer.calls[k] += 1
                tracer.seconds[k] += dt
                tracer.self_seconds[k] += dt - span[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if k == "bottleneck.winf":
                tracer.winf_results.append((args[0], args[1], result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, key in _sites():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, key))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run untraced, e.g. for the benchmark's own witness checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def witness_err_max(self) -> float:
        """Largest marginal error of a winf witness plan against the true
        float weights, over the round's winf calls."""
        from workloads import marginal_error

        return max((marginal_error(mu, nu, res.witness_plan) for mu, nu, res in self.winf_results), default=0.0)


def layer_metrics(t: Tracer, stats: dict) -> dict:
    """Per-layer values of one traced round (counts per round, seconds per round)."""

    def ratio(a, b):
        return a / b if b else 0.0

    s, c, own = t.seconds, t.calls, t.self_seconds
    radial_candidates = stats.get("radial_candidates", 0)
    grid_candidates = stats.get("grid_candidates", 0)
    return {
        "transport.wq_calls": c["transport.wq"],
        "transport.wq_s": s["transport.wq"],
        "transport.network_simplex_calls": c["transport.network_simplex"],
        "transport.network_simplex_s": s["transport.network_simplex"],
        "transport.linprog_calls": c["transport.linprog"],
        "transport.linprog_s": s["transport.linprog"],
        "transport.oracle_s": s["transport.oracle"],
        "bottleneck.winf_calls": c["bottleneck.winf"],
        "bottleneck.winf_s": s["bottleneck.winf"],
        "bottleneck.maxflow_calls": c["bottleneck.maxflow"],
        "bottleneck.maxflow_s": s["bottleneck.maxflow"],
        "bottleneck.graph_s": s["bottleneck.winf"] - s["bottleneck.maxflow"],
        "bottleneck.witness_marginal_err_max": t.witness_err_max(),
        "bottleneck.oracle_s": s["bottleneck.oracle"],
        "bottleneck.winf_radial_calls": c["bottleneck.winf_radial"],
        "bottleneck.winf_radial_s": s["bottleneck.winf_radial"],
        "mms.radial_candidates": radial_candidates,
        "mms.radial_sweeps": stats.get("radial_sweeps", 0),
        "mms.radial_s_per_candidate": ratio(s["mms.run_scheme"], radial_candidates),
        "mms.radial_self_s": own["mms.run_scheme"],
        "mms.grid_candidates": grid_candidates,
        "mms.grid_s_per_candidate": ratio(s["mms.resolvent"], grid_candidates),
        "mms.grid_maxflow_per_candidate": ratio(
            t.nested["mms.resolvent", "bottleneck.maxflow"], grid_candidates
        ),
        "functionals.isop_calls": c["functionals.isop"],
        "functionals.isop_s": s["functionals.isop"],
        "measures.grid_to_atoms_s": s["measures.grid_to_atoms"],
        "measures.coarse_measure_s": s["measures.coarse_measure"],
        "measures.curve_s": s["measures.curve"],
        "plmetric.dqp_self_s": own["plmetric.dqp"],
        "dynamics.linprog_calls": c["dynamics.linprog_phase1"] + c["dynamics.linprog_phase2"],
        "dynamics.linprog_phase1_s": s["dynamics.linprog_phase1"],
        "dynamics.linprog_phase2_s": s["dynamics.linprog_phase2"],
        "dynamics.lsqr_s": s["dynamics.lsqr"],
        "dynamics.reconstruct_self_s": own["dynamics.reconstruct"],
        "dynamics.residual_s": s["dynamics.residual"],
        "dynamics.trace_self_s": own["dynamics.trace"],
        "dynamics.bb_self_s": own["dynamics.bb"],
        "gridio.read_s": s["gridio.read"],
        "gridio.write_s": s["gridio.write"],
        "cli.self_s": own["cli"],
    }
