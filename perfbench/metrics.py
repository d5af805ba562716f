"""Metric names, units and the per-layer split computed from spans.

END_TO_END and PER_LAYER list every metric the benchmark reports, in the
order BENCHMARK.json gives them; a test keeps the two in step.
"""

from __future__ import annotations

import statistics

from .tracing import durations, totals

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# self-time shares of the traced busy time; a workload that never enters a
# stage reports 0 for its share
SHARES = {
    "cyclotomic.valuation_share": "cyclotomic.valuation",
    "skein.omega_share": "skein.omega",
    "skein.twist_share": "skein.twist",
    "skein.hopf_share": "skein.hopf",
    "skein.eta_squared_share": "skein.eta_squared",
    "invariants.bracket_share": "invariants.bracket",
    "invariants.square_share": "invariants.square",
    "invariants.normalize_share": "invariants.normalize",
    "linkform.parse_share": "linkform.parse",
    "linkform.analyze_share": "linkform.analyze",
    "linkform.complement_share": "linkform.complement",
    "intlinalg.cokernel_share": "intlinalg.cokernel",
}
PER_PRIME = (5, 7, 11, 13)
PRIME_SHARES = {f"{metric}.p{p}": (stage, p)
                for metric, stage in (("invariants.bracket_share", "invariants.bracket"),
                                      ("skein.hopf_share", "skein.hopf"))
                for p in PER_PRIME}

PER_LAYER = {
    "trace.busy_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.stage_coverage": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.process_ms": "ms",
    "cyclotomic.mul_us": "us",
    "cyclotomic.coeff_bits_max": "count",
    **{name: "ratio" for name in SHARES},
    **{name: "ratio" for name in PRIME_SHARES},
    "skein.hopf_hits": "count",
    "skein.hopf_misses": "count",
    "congruence.kappa_residues_s": "s",
    "congruence.check_p50_ms": "ms",
    "congruence.phase_check_p50_ms": "ms",
    "congruence.residue_hit_ratio": "ratio",
    "congruence.share": "ratio",
}


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_split(span_lists, units: int, measured: dict) -> dict:
    """Every PER_LAYER metric from the traced run's spans plus ``measured``.

    ``span_lists`` holds one span list per process (perf_counter values are
    only comparable inside one process).  ``units`` is the number of passes,
    blocks or sessions the spans cover; busy time and table-building time
    are reported per unit.  ``measured`` supplies the cli.* times, the
    overhead, the counts and the hit ratio.
    """
    busy, by_name, by_prime = 0.0, {}, {}
    for spans in span_lists:
        b, names, primes = totals(spans)
        busy += b
        for k, v in names.items():
            by_name[k] = by_name.get(k, 0.0) + v
        for k, v in primes.items():
            by_prime[k] = by_prime.get(k, 0.0) + v

    def all_durations(name):
        return [d for spans in span_lists for d in durations(spans, name)]

    out = {
        "trace.busy_s": busy / units,
        "trace.stage_coverage": sum(by_name.values()) / busy,
        "cyclotomic.mul_us": median(all_durations("cyclotomic.mul")) * 1e6,
        "congruence.kappa_residues_s": sum(all_durations("congruence.kappa_residues")) / units,
        "congruence.check_p50_ms": median(all_durations("congruence.check")) * 1e3,
        "congruence.phase_check_p50_ms": median(all_durations("congruence.phase_check")) * 1e3,
        "congruence.share": sum(v for k, v in by_name.items()
                                if k.startswith("congruence.")) / busy,
    }
    for metric, stage in SHARES.items():
        out[metric] = by_name.get(stage, 0.0) / busy
    for metric, key in PRIME_SHARES.items():
        out[metric] = by_prime.get(key, 0.0) / busy
    out.update(measured)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
