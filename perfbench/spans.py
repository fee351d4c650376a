"""In-memory spans around the layer functions of fas_extremes.

The program has no tracing of its own, so the benchmark wraps the
public functions of each layer at the module attribute the caller looks
them up through (cli.simulate_outage, bounds.marcum_q1, ...), runs the
experiment, and puts the originals back. Spans are named after the
module that defines the function. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

from fas_extremes import bounds, cli, fieldmodel, kl_outage


class Tracer:
    """Spans of one experiment run, plus work counts taken from arguments."""

    def __init__(self):
        # one span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rules: set[tuple[str, int]] = set()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, number of spans)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name][0] += (end - start) - covered
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}


def _matrix_dim(m) -> int:
    return m.dim if hasattr(m, "dim") else len(m)


def _count_eig(tr: Tracer, args, kwargs, result):
    tr.counts["fieldmodel.eigendecompose.n_cubed"] += _matrix_dim(args[0]) ** 3


def _count_chol(tr: Tracer, args, kwargs, result):
    tr.counts["fieldmodel.cholesky.attempts"] += fieldmodel.JITTER_LADDER.index(result.jitter) + 1


def _count_sampling(tr: Tracer, layer: str, trials: int, ports: int, latent: int):
    tr.counts[f"{layer}.trials"] += trials
    tr.counts["montecarlo.normals"] += 2 * trials * latent
    tr.counts["montecarlo.matmul_flops"] += 4 * trials * ports * latent


def _count_mc(tr: Tracer, args, kwargs, result):
    factor, cfg = args[0], args[2]
    mat = factor.lower if hasattr(factor, "lower") else getattr(factor, "entries", factor)
    _count_sampling(tr, "montecarlo.simulate_outage", cfg.trials, mat.shape[0], mat.shape[1])


def _count_mc_truncated(tr: Tracer, args, kwargs, result):
    kl, cfg = args[0], args[2]
    tr.counts["montecarlo.simulate_outage_truncated.rank_sum"] += kl.rank
    _count_sampling(
        tr, "montecarlo.simulate_outage_truncated", cfg.trials, kl.eigenvectors.shape[0], kl.rank
    )


def _rule_counter(kind: str):
    def count(tr: Tracer, args, kwargs, result):
        tr.rules.add((kind, result.order))

    return count


# (module the caller looks the name up in, attribute, span name, counter)
LAYERS = (
    (cli, "correlation_matrix", "fieldmodel.correlation_matrix", None),
    (cli, "eigendecompose", "fieldmodel.eigendecompose", _count_eig),
    (cli, "cholesky", "fieldmodel.cholesky", _count_chol),
    (cli, "kl_truncate", "fieldmodel.kl_truncate", None),
    (cli, "simulate_outage", "montecarlo.simulate_outage", _count_mc),
    (cli, "simulate_outage_truncated", "montecarlo.simulate_outage_truncated", _count_mc_truncated),
    (cli, "outage_rank1", "kl_outage.outage_rank1", None),
    (cli, "outage_rank2", "kl_outage.outage_rank2", None),
    (cli, "slepian_sandwich", "bounds.slepian_sandwich", None),
    (cli, "outage_continuous", "continuum.outage_continuous", None),
    (bounds, "equicorr_cdf_exact", "bounds.equicorr_cdf_exact", None),
    (bounds, "marcum_q1", "specialfn.marcum_q1", None),
    (bounds, "gauss_laguerre", "specialfn.gauss_laguerre", _rule_counter("laguerre")),
    (kl_outage, "gauss_hermite", "specialfn.gauss_hermite", _rule_counter("hermite")),
    (fieldmodel, "correlation", "kernels.correlation", None),
)
ROOT = "cli"

COUNT_UNITS = {
    "fieldmodel.eigendecompose.n_cubed": "count",
    "fieldmodel.cholesky.attempts": "count",
    "montecarlo.simulate_outage.trials": "count",
    "montecarlo.simulate_outage_truncated.trials": "count",
    "montecarlo.simulate_outage_truncated.rank_sum": "count",
    "montecarlo.normals": "count",
    "montecarlo.matmul_flops": "flop",
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in LAYERS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    Every layer in LAYERS is reported; a layer the experiment never
    reached reports zero time and zero calls.
    """
    times = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    out["cli.self_s"] = (times.get(ROOT, (0.0, 0))[0], "s")
    for _, _, name, _ in LAYERS:
        self_s, calls = times.get(name, (0.0, 0))
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.calls"] = (calls, "count")
    for name, unit in COUNT_UNITS.items():
        out[name] = (int(tracer.counts.get(name, 0)), unit)
    mc_s = out["montecarlo.simulate_outage.self_s"][0]
    mc_s += out["montecarlo.simulate_outage_truncated.self_s"][0]
    normals = out["montecarlo.normals"][0]
    out["montecarlo.ns_per_normal"] = (1e9 * mc_s / normals if normals else 0.0, "ns")
    builds = (out["specialfn.gauss_laguerre.calls"][0] + out["specialfn.gauss_hermite.calls"][0])
    out["specialfn.rule_reuse"] = (len(tracer.rules) / builds if builds else 0.0, "ratio")
    return out


def median_metrics(runs: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Median over runs of each metric; counts that never vary stay whole."""
    out = {}
    for name, (first, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        out[name] = (first if len(set(values)) == 1 else statistics.median(values), unit)
    return out


def dump(tracers: list[Tracer], path: str) -> None:
    """Write the spans of every traced run to one JSON file."""
    doc = [
        {"run": i, "name": name, "start": start, "end": end, "parent": parent}
        for i, tr in enumerate(tracers)
        for name, start, end, parent in tr.spans
    ]
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
