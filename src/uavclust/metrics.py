"""Trace aggregation: re-selection counts, CH-member SNR and the
clustering robustness likelihood.

The likelihood combines a Poisson log-score of the normalized
re-selection count with a Gaussian log-score of the normalized SNR.
Gamma(R+1) stands in for R! because the normalized count is not an
integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .model import left_mean
from .trace import RESELECTION_KINDS, Row, fold_trace

SELECTION_KINDS = ("ch_selected", "ch_reselected_full")
# the event kinds run_metrics reads; a trace read for scoring parses no other
SCORED_KINDS = frozenset(RESELECTION_KINDS + SELECTION_KINDS + ("cam_batch",))


class LikelihoodParams(NamedTuple):
    weight_reselect: float = 0.6
    weight_snr: float = 0.4
    poisson_rate: float = 0.5
    gauss_mean: float = 1.0
    gauss_var: float = 0.1


@dataclass(frozen=True)
class RunMetrics:
    """Everything one trace contributes to the evaluation."""

    per_cluster: Dict[int, int]
    total_reselections: int
    cumulative: Tuple[Tuple[float, int], ...]  # (time, running total)
    mean_snr: float  # nan when no samples were recorded
    degraded_selections: int


class AggregateMetrics(NamedTuple):
    runs: int
    mean_total: float
    mean_per_cluster: Dict[int, float]
    mean_snr: float
    mean_degraded: float


def lambda_r(r: float, poisson_rate: float) -> float:
    """Poisson negative log-score of the normalized re-selection count."""
    if r < 0.0:
        raise ValueError(f"lambda_r: count must be >= 0, got {r}")
    if poisson_rate <= 0.0:
        raise ValueError(f"lambda_r: rate must be positive, got {poisson_rate}")
    return poisson_rate - r * math.log(poisson_rate) + math.lgamma(r + 1.0)


def lambda_s(s: float, mean: float, var: float) -> float:
    """Gaussian negative log-score of the normalized SNR."""
    if var <= 0.0:
        raise ValueError(f"lambda_s: variance must be positive, got {var}")
    return 0.5 * math.log(2.0 * math.pi * var) + (s - mean) ** 2 / (2.0 * var)


def robustness_likelihood(r: float, s: float,
                          params: LikelihoodParams = LikelihoodParams()) -> float:
    """exp(-(w_R * lambda_R + w_S * lambda_S))."""
    return math.exp(-(params.weight_reselect * lambda_r(r, params.poisson_rate)
                      + params.weight_snr * lambda_s(s, params.gauss_mean,
                                                     params.gauss_var)))


def run_metrics(rows: Iterable[Row]) -> RunMetrics:
    """Fold the (time, kind, ids, payload) rows of one run, its events
    in memory or the parsed lines of its trace, into its metrics; rows
    of kinds outside SCORED_KINDS are ignored.

    The CH-member SNR is averaged per CH tenure first, then across
    tenures, so long and short tenures weigh equally.  A scored row
    without the fields the fold reads raises ValueError.
    """
    per_cluster: Dict[int, int] = {}
    cumulative: List[Tuple[float, int]] = []
    total = 0
    degraded = 0
    tenure_samples: Dict[Tuple[int, object], List[float]] = {}
    for time, kind, ids, payload in rows:
        if kind not in SCORED_KINDS:
            continue
        try:
            if kind == "cam_batch":
                if "snr" in payload:
                    # left_mean adds each sample to a float, so 0.0 + snr
                    # changes no mean; a non-number fails on its own row
                    tenure_samples.setdefault(
                        (ids[0], payload["tenure"]), []).append(0.0 + payload["snr"])
                continue
            if kind in RESELECTION_KINDS:
                total += 1
                per_cluster[ids[0]] = per_cluster.get(ids[0], 0) + 1
                cumulative.append((time, total))
            if kind in SELECTION_KINDS and payload.get("degraded"):
                degraded += 1
        except (LookupError, TypeError, AttributeError, ArithmeticError) as exc:
            raise ValueError(f"malformed {kind} event: {exc!r}") from exc
    tenure_means = [left_mean(v) for v in tenure_samples.values()]
    mean_snr = left_mean(tenure_means) if tenure_means else math.nan
    return RunMetrics(per_cluster=per_cluster, total_reselections=total,
                      cumulative=tuple(cumulative), mean_snr=mean_snr,
                      degraded_selections=degraded)


def cumulative_at(metrics: RunMetrics, times: Sequence[float]) -> List[int]:
    """Running re-selection total evaluated at the given times."""
    out = []
    idx = 0
    current = 0
    for t in times:
        while idx < len(metrics.cumulative) and metrics.cumulative[idx][0] <= t:
            current = metrics.cumulative[idx][1]
            idx += 1
        out.append(current)
    return out


def aggregate(runs: Sequence[RunMetrics]) -> AggregateMetrics:
    """Mean metrics across runs of one (scheme, config) family."""
    if not runs:
        raise ValueError("aggregate: no runs")
    n = len(runs)
    cluster_ids = sorted({cid for r in runs for cid in r.per_cluster})
    mean_per_cluster = {cid: sum(r.per_cluster.get(cid, 0) for r in runs) / n
                        for cid in cluster_ids}
    snrs = [r.mean_snr for r in runs if not math.isnan(r.mean_snr)]
    return AggregateMetrics(
        runs=n,
        mean_total=sum(r.total_reselections for r in runs) / n,
        mean_per_cluster=mean_per_cluster,
        mean_snr=left_mean(snrs) if snrs else math.nan,
        mean_degraded=sum(r.degraded_selections for r in runs) / n,
    )


# one trace's header and metrics; builtin tuple[...], because typing's
# alias cache would keep every imported copy of this module alive
TraceRun = tuple[Dict[str, str], RunMetrics]


def score_trace(path: str) -> TraceRun:
    """The header and metrics of a trace file, in one pass that parses
    only the lines of SCORED_KINDS."""
    return fold_trace(path, SCORED_KINDS, run_metrics)


def aggregate_traces(traces: Sequence[TraceRun]) -> AggregateMetrics:
    """Aggregate parsed trace files, refusing mixed-config input."""
    if not traces:
        raise ValueError("aggregate_traces: no traces")
    digests = {h.get("config") for h, _ in traces}
    if len(digests) > 1:
        raise ValueError(f"aggregate_traces: mixed config digests {sorted(digests)}")
    return aggregate([rm for _, rm in traces])


class SchemeScore(NamedTuple):
    normalized_reselections: float
    normalized_snr: float
    likelihood: float


def compare_schemes(per_scheme: Dict[str, AggregateMetrics],
                    params: LikelihoodParams = LikelihoodParams()) -> Dict[str, SchemeScore]:
    """Cross-scheme comparison: normalize re-selections and SNR by the
    maximum across schemes, then score each scheme's likelihood.

    A NaN mean SNR is left out of the maximum and gives that scheme a
    NaN normalized SNR and likelihood; the other scores ignore it.
    """
    if not per_scheme:
        raise ValueError("compare_schemes: no schemes")
    max_total = max(m.mean_total for m in per_scheme.values())
    max_snr = max((m.mean_snr for m in per_scheme.values()
                   if not math.isnan(m.mean_snr)), default=0.0)
    scores = {}
    for name, m in per_scheme.items():
        r = m.mean_total / max_total if max_total > 0 else 0.0
        if math.isnan(m.mean_snr):
            s = math.nan  # robustness_likelihood then gives NaN too
        else:
            s = m.mean_snr / max_snr if max_snr > 0 else 0.0
        scores[name] = SchemeScore(
            normalized_reselections=r, normalized_snr=s,
            likelihood=robustness_likelihood(r, s, params))
    return scores
