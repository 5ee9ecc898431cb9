"""Names, units and directions of the benchmark's metrics.

`BENCHMARK.json` at the repository root lists the same metrics; a test keeps
the two in step.
"""

from tracer import LAYERS

# The largest bound allowed: the machine's speed drifts between runs.
TIMING_BOUND = 0.25

# (name, unit, better, bound): measured with tracing off, per workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", TIMING_BOUND),
    ("items_per_s", "1/s", "higher", TIMING_BOUND),
    ("item_p50_ms", "ms", "lower", TIMING_BOUND),
    ("item_p90_ms", "ms", "lower", TIMING_BOUND),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

# Spans reported with call count and self time.
TIMED_SPANS = (
    "discrepancy.closed_form_f",
    "discrepancy.classify_incidence",
    "discrepancy.pair_coefficients",
    "discrepancy.discrepancies",
    "graphs.is_negative_definite",
    "graphs.graph_determinant",
    "graphs.parse_dynkin",
    "graphs.WeightedDualGraph.canonical_key",
    "linalg.int_det",
    "linalg.det",
    "poly.resultant",
    "poly.poly_divmod",
    "poly.poly_gcd",
    "poly.binary_squarefree",
    "pencil.pencil_singular_locus",
    "pencil.classify_singular_member",
    "picard.pullback_weil",
    "picard.ceil_pullback",
    "picard.round_up",
    "feasibility.feasibility_report",
    "feasibility.bogomolov_flag",
)

# Spans reported with call count only: cheap walks called very often.
COUNTED_SPANS = tuple(
    f"graphs.WeightedDualGraph.{m}"
    for m in ("adjacency", "is_chain", "center", "chain_order", "star_parts")
)


def per_layer():
    """(name, unit, better) of every metric of the traced run."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    for span in TIMED_SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    out += [(f"{span}.calls", "count", "lower") for span in COUNTED_SPANS]
    out += [
        # distinct input matrices over calls: higher means less recomputation
        ("linalg.int_det.distinct_ratio", "ratio", "higher"),
        ("discrepancy.distinct_graphs", "count", "lower"),
        # share of discrepancies calls on a graph already seen
        ("discrepancy.reuse_ratio", "ratio", "lower"),
        # traced wall_s over untraced wall_s
        ("trace_overhead", "ratio", "lower"),
    ]
    return out
