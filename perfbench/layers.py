"""Per-layer metrics from a perf_bench trace.

perf_bench records spans around the calls it makes into Grapple (ir.parse,
core.frontend, core.check, svc.request, ...). Each core.check span carries
the obs::RunReport the program returned. This module expands that report into
child spans, one per engine phase (core.alias, core.typestate) and, inside
each phase, one per Figure-9 bucket (graph.io, graph.lookup, graph.solve,
graph.edge). The report gives durations, not instants, so these derived
spans are laid end to end from their parent's start; self times are exact,
positions are nominal.

A layer's self time is its span's duration minus the part its children
cover. The two remainders are self times:
core.unattributed_s (check - alias - sum of typestate) and
graph.<phase>.unattributed_s (phase - io - lookup - solve - edge).

Every metric is a median over the run's traced operations. Operations of
the measured loop count first; a metric with none there (the alias phase and
the frontend on svc-warm, which only run during set-up) falls back to the
set-up operations. A layer the workload does not reach reads 0.
"""

import statistics

PHASE_GROUPS = ("alias", "typestate")

# Per engine-phase group: name -> unit.
PHASE_METRICS = {
    "graph.{g}.edge_s": "s",
    "graph.{g}.join_s": "s",
    "graph.{g}.preprocess_s": "s",
    "graph.{g}.joins": "count",
    "graph.{g}.edges_added": "count",
    "graph.{g}.join_yield": "ratio",
    "graph.{g}.joins_per_s": "1/s",
    "graph.{g}.join_rounds": "count",
    "graph.{g}.widened_triples": "count",
    "graph.{g}.unattributed_s": "s",
    "graph.{g}.oracle_lookup_s": "s",
    "graph.{g}.oracle_merges": "count",
    "graph.{g}.oracle_cache_hit_rate": "ratio",
    "graph.{g}.oracle_checks": "count",
    "graph.{g}.oracle_unsat_rate": "ratio",
    "smt.{g}.solve_s": "s",
    "smt.{g}.solves": "count",
    "smt.{g}.solve_p99_us": "us",
    "graph.{g}.store_io_s": "s",
    "graph.{g}.store_pair_loads": "count",
    "graph.{g}.store_partitions_peak": "count",
    "graph.{g}.store_splits": "count",
    "graph.{g}.store_read_mb": "MB",
    "graph.{g}.store_written_mb": "MB",
    "graph.{g}.store_prefetch_hit_rate": "ratio",
    "graph.{g}.store_peak_resident_mb": "MB",
    "graph.{g}.ckpt_written": "count",
    "graph.{g}.ckpt_mb": "MB",
}

OTHER_METRICS = {
    "ir.parse_s": "s",
    "core.frontend_s": "s",
    "core.alias_s": "s",
    "core.typestate_s": "s",
    "core.unattributed_s": "s",
    "core.alias_share_pct": "%",
    "graph.fig9_io_pct": "%",
    "graph.fig9_lookup_pct": "%",
    "graph.fig9_solve_pct": "%",
    "graph.fig9_edge_pct": "%",
    "checker.witnesses_decoded": "count",
    "checker.witness_decode_s": "s",
    "service.queue_ms": "ms",
    "service.check_ms": "ms",
    "service.overhead_ms": "ms",
    "service.warm_hit_rate": "ratio",
    "service.rejected": "count",
    "service.errors": "count",
    "service.evictions": "count",
    "bench.verdicts": "count",
    "bench.trace_overhead_pct": "%",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = dict(OTHER_METRICS)
    for group in PHASE_GROUPS:
        for name, unit in PHASE_METRICS.items():
            units[name.format(g=group)] = unit
    return units


def _merge_snapshots(phases):
    counters, gauges, hist_buckets, hist_count, hist_sum = {}, {}, {}, {}, {}
    for phase in phases:
        metrics = phase["metrics"]
        for name, value in metrics["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in metrics["gauges"].items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, hist in metrics["histograms"].items():
            buckets = hist_buckets.setdefault(name, {})
            for bucket, count in hist["buckets"]:
                buckets[bucket] = buckets.get(bucket, 0) + count
            hist_count[name] = hist_count.get(name, 0) + hist["count"]
            hist_sum[name] = hist_sum.get(name, 0) + hist["sum"]
    return counters, gauges, hist_buckets, hist_count, hist_sum


def _approx_percentile(buckets, count, p):
    """Upper bound of the log2 bucket holding the p-th observation, as
    obs::HistogramSnapshot::ApproxPercentile computes it."""
    if count == 0:
        return 0
    rank = p / 100.0 * count
    seen = 0
    for bucket in sorted(buckets):
        seen += buckets[bucket]
        if seen >= rank:
            return (1 << (bucket + 1)) - 1
    return 0


def _buckets(metrics):
    """The Figure-9 split of merged counters, in seconds."""
    ns = lambda name: metrics.get(name, 0) * 1e-9  # noqa: E731
    lookup, solve = ns("oracle_lookup_ns"), ns("oracle_solve_ns")
    return {
        "io": ns("phase_io_ns"),
        "lookup": lookup,
        "solve": solve,
        "edge": max(0.0, ns("phase_join_ns") - lookup - solve),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _phase_values(group, phases):
    """Counters of one phase group (the alias phase, or all typestate phases
    summed) under the PHASE_METRICS names. The unattributed remainder is a
    self time and comes from the spans."""
    c, g, hb, hc, hs = _merge_snapshots(phases)
    b = _buckets(c)
    join_s = c.get("phase_join_ns", 0) * 1e-9
    joins = c.get("engine_joins_attempted_total", 0)
    checks = c.get("oracle_constraints_checked_total", 0)
    mb = 1.0 / (1 << 20)
    values = {
        "edge_s": b["edge"],
        "join_s": join_s,
        "preprocess_s": c.get("engine_preprocess_ns", 0) * 1e-9,
        "joins": joins,
        "edges_added": c.get("engine_edges_added_total", 0),
        "join_yield": _ratio(c.get("engine_edges_added_total", 0), joins),
        "joins_per_s": _ratio(joins, join_s),
        "join_rounds": c.get("engine_join_rounds_total", 0),
        "widened_triples": c.get("engine_widened_triples_total", 0),
        "oracle_lookup_s": b["lookup"],
        "oracle_merges": c.get("oracle_merges_total", 0),
        "oracle_cache_hit_rate": _ratio(c.get("oracle_cache_hits_total", 0),
                                        c.get("oracle_merges_total", 0)),
        "oracle_checks": checks,
        "oracle_unsat_rate": _ratio(c.get("oracle_unsat_total", 0), checks),
        "solve_s": b["solve"],
        "solves": hc.get("oracle_solve_ns", 0),
        "solve_p99_us": _approx_percentile(hb.get("oracle_solve_ns", {}),
                                           hc.get("oracle_solve_ns", 0), 99) / 1e3,
        "store_io_s": b["io"],
        "store_pair_loads": c.get("engine_pair_loads_total", 0),
        "store_partitions_peak": g.get("engine_peak_partitions", 0),
        "store_splits": c.get("engine_partition_splits_total", 0),
        "store_read_mb": c.get("io_bytes_read", 0) * mb,
        "store_written_mb": c.get("io_bytes_written", 0) * mb,
        "store_prefetch_hit_rate": _ratio(c.get("io_prefetch_hits_total", 0),
                                          c.get("io_prefetch_issued_total", 0)),
        "store_peak_resident_mb": g.get("engine_peak_resident_bytes", 0) * mb,
        "ckpt_written": c.get("ckpt_written_total", 0),
        "ckpt_mb": c.get("ckpt_bytes", 0) * mb,
    }
    out = {}
    for template in PHASE_METRICS:
        leaf = template.split(".")[-1]
        if leaf in values:
            out[template.format(g=group)] = values[leaf]
    if group == "typestate":  # witnesses are decoded for typestate bugs only
        out["checker.witnesses_decoded"] = c.get("witnesses_decoded_total", 0)
        out["checker.witness_decode_s"] = hs.get("witness_decode_ns", 0) * 1e-9
    return out


class Trace:
    """The spans of one run, with run reports expanded into child spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.next_id = max((s["id"] for s in self.spans), default=0) + 1
        for span in list(self.spans):
            report = span.get("attrs", {}).get("report")
            if span["name"] == "core.check" and report is not None:
                self._expand_check(span, report, span["attrs"].get("warm", False))
        self.by_id = {span["id"]: span for span in self.spans}
        self.children = {}
        for span in self.spans:
            self.children.setdefault(span["parent"], []).append(span)

    def _add(self, parent, name, start_ns, seconds, attrs=None):
        span = {
            "id": self.next_id, "parent": parent["id"], "request": parent["request"],
            "name": name, "stage": parent["stage"], "start_ns": start_ns,
            "end_ns": start_ns + int(seconds * 1e9),
        }
        if attrs:
            span["attrs"] = attrs
        self.next_id += 1
        self.spans.append(span)
        return span

    def _expand_check(self, check, report, warm):
        t = check["start_ns"]
        for phase in report["phases"]:
            is_alias = phase["name"] == "alias"
            if is_alias and warm:
                continue  # cached by the session; this Check did not run it
            span = self._add(check, "core.alias" if is_alias else "core.typestate", t,
                             phase["seconds"], {"phase": phase})
            u = span["start_ns"]
            for bucket, seconds in _buckets(_merge_snapshots([phase])[0]).items():
                self._add(span, "graph." + bucket, u, seconds)
                u += int(seconds * 1e9)
            t = span["end_ns"]

    def self_ns(self, span):
        """Duration minus the union of the children's intervals within it."""
        lo, hi = span["start_ns"], span["end_ns"]
        intervals = sorted((max(lo, c["start_ns"]), min(hi, c["end_ns"]))
                           for c in self.children.get(span["id"], []))
        covered, reach = 0, lo
        for begin, end in intervals:
            begin = max(begin, reach)
            if end > begin:
                covered += end - begin
                reach = end
        return (hi - lo) - covered


def per_layer_metrics(trace_doc, run_result):
    """Every per-layer metric (name -> value) of one traced run."""
    trace = Trace(trace_doc["spans"])
    seconds = lambda s: (s["end_ns"] - s["start_ns"]) * 1e-9  # noqa: E731
    samples = {}  # name -> {"measure": [...], "setup": [...]}

    def add(name, stage, value):
        samples.setdefault(name, {}).setdefault(stage, []).append(value)

    for span in trace.spans:
        name, stage = span["name"], span["stage"]
        if name == "ir.parse":
            add("ir.parse_s", stage, seconds(span))
        elif name == "core.frontend":
            add("core.frontend_s", stage, seconds(span))
        elif name == "service.queue":
            add("service.queue_ms", stage, 1e3 * seconds(span))
        elif name == "svc.request" and stage == "measure":
            add("service.overhead_ms", stage, trace.self_ns(span) * 1e-6)
        elif name == "core.check" and "attrs" in span:
            check_s = seconds(span)
            parent = trace.by_id.get(span["parent"])
            if parent is not None and parent["name"] == "svc.request":
                add("service.check_ms", stage, 1e3 * check_s)
            add("core.unattributed_s", stage, trace.self_ns(span) * 1e-9)
            phases = trace.children.get(span["id"], [])
            alias = [c for c in phases if c["name"] == "core.alias"]
            typestate = [c for c in phases if c["name"] == "core.typestate"]
            if alias:
                add("core.alias_s", stage, seconds(alias[0]))
                add("core.alias_share_pct", stage, 100.0 * seconds(alias[0]) / check_s)
                values = _phase_values("alias", [alias[0]["attrs"]["phase"]])
                values["graph.alias.unattributed_s"] = trace.self_ns(alias[0]) * 1e-9
                for key, value in values.items():
                    add(key, stage, value)
            if typestate:
                add("core.typestate_s", stage, sum(seconds(t) for t in typestate))
                values = _phase_values("typestate", [t["attrs"]["phase"] for t in typestate])
                values["graph.typestate.unattributed_s"] = sum(
                    trace.self_ns(t) for t in typestate) * 1e-9
                for key, value in values.items():
                    add(key, stage, value)
            ran = alias + typestate
            if ran:
                b = _buckets(_merge_snapshots([t["attrs"]["phase"] for t in ran])[0])
                total = sum(b.values())
                for bucket, value in b.items():
                    add("graph.fig9_%s_pct" % bucket, stage, 100.0 * _ratio(value, total))

    extra = run_result.get("samples", {})
    values = {}
    for name in metric_units():
        by_stage = samples.get(name, {})
        chosen = by_stage.get("measure") or by_stage.get("setup") or []
        values[name] = statistics.median(chosen) if chosen else 0.0
    values["service.warm_hit_rate"] = extra.get("service_warm_hit_rate", 0.0)
    values["service.rejected"] = extra.get("service_rejected", 0.0)
    values["service.errors"] = extra.get("service_errors", 0.0)
    values["service.evictions"] = extra.get("service_evictions", 0.0)
    values["bench.verdicts"] = extra.get("verdicts", 0.0)
    values["bench.trace_overhead_pct"] = run_result.get("trace_overhead_pct", 0.0)
    return values
