//===- Catalogue.h - Every metric the benchmark reports ---------*- C++ -*-===//
//
// The names, units and directions here must match BENCHMARK.json; the
// self-test checks that they do. End-to-end metrics are printed by every
// untraced run, per-layer metrics by every traced run, on every workload.
// A per-layer metric that a workload does not exercise reads 0 there (for
// example smt.* on serve-hot, where no search runs): that 0 is the
// workload's prediction of "flat", not a missing value.
//
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_CATALOGUE_H
#define REPOBENCH_CATALOGUE_H

namespace repobench {

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "higher" or "lower"
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"ops_per_s", "1/s", "higher"},
    {"latency_p50_ms", "ms", "lower"},
    {"latency_tail_ms", "ms", "lower"},
    {"ok_share", "ratio", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

inline constexpr MetricDef kPerLayer[] = {
    // smt: DeduceStats summed over the search pass. smt.deduce_s is
    // DeduceStats::SolverSeconds, which wraps ALL of deduce(): partial
    // evaluation (component kernels), alpha, the snprintf verdict key, the
    // verdict-cache lookup and Z3 check(). It is not the Z3 share.
    {"smt.deduce_calls", "count", "lower"},
    {"smt.deduce_s", "s", "lower"},
    {"smt.deduce_share", "ratio", "lower"},
    {"smt.us_per_deduce", "us", "lower"},
    {"smt.z3_checks", "count", "lower"},
    {"smt.z3_checks_per_s", "1/s", "higher"},
    {"smt.verdict_cache_hits", "count", "higher"},
    {"smt.verdict_hit_ratio", "ratio", "higher"},
    {"smt.rejections", "count", "higher"},
    {"smt.fastpath_rejections", "count", "higher"},
    {"smt.template_compiles", "count", "lower"},
    {"smt.template_hits", "count", "higher"},
    {"smt.session_builds", "count", "lower"},
    {"smt.session_hits", "count", "higher"},
    {"smt.store_hits", "count", "higher"},
    {"smt.pushes", "count", "lower"},
    {"smt.pops", "count", "lower"},
    // synth: SynthesisStats summed over the search pass, plus per-sketch
    // spans from the event bus (sketches that reached completion).
    {"synth.hypotheses", "count", "lower"},
    {"synth.sketches", "count", "lower"},
    {"synth.sketches_refuted", "count", "higher"},
    {"synth.fills_tried", "count", "lower"},
    {"synth.fills_pruned", "count", "higher"},
    {"synth.prune_ratio", "ratio", "higher"},
    {"synth.candidates", "count", "lower"},
    {"synth.candidates_per_s", "1/s", "higher"},
    {"synth.nondeduce_s", "s", "lower"},
    {"synth.sketch_ms_p50", "ms", "lower"},
    {"synth.sketch_ms_tail", "ms", "lower"},
    // interp / table / spec: probe calls on each solved program's output.
    {"interp.eval_us", "us", "lower"},
    {"table.fingerprint_us", "us", "lower"},
    {"table.compare_us", "us", "lower"},
    {"spec.alpha_us", "us", "lower"},
    // io / service on the request path (serve-hot).
    {"io.parse_us", "us", "lower"},
    {"io.emit_us", "us", "lower"},
    {"service.submit_us", "us", "lower"},
    {"service.get_us", "us", "lower"},
    {"service.fingerprint_us", "us", "lower"},
    {"service.hits", "count", "higher"},
    {"service.misses", "count", "lower"},
    {"service.hit_ratio", "ratio", "higher"},
    {"proc.cpu_per_op_us", "us", "lower"},
    // service write side, summed over the workers of serve-hot's cluster
    // probe (ClusterChurn.cpp).
    {"service.queue_ms_p50", "ms", "lower"},
    {"service.queue_ms_tail", "ms", "lower"},
    {"service.solve_ms_p50", "ms", "lower"},
    {"service.solve_ms_tail", "ms", "lower"},
    {"service.insertions", "count", "lower"},
    {"service.evictions", "count", "lower"},
    {"service.coalesced", "count", "higher"},
    {"service.solves_run", "count", "lower"},
    {"service.max_queue_depth", "count", "lower"},
    // cluster / net: the cluster probe and wire-codec probe calls.
    {"cluster.overhead_ms_p50", "ms", "lower"},
    {"cluster.overhead_ms_tail", "ms", "lower"},
    {"cluster.forwarded", "count", "lower"},
    {"cluster.remote_completed", "count", "higher"},
    {"cluster.local_solves", "count", "lower"},
    {"cluster.failovers", "count", "lower"},
    {"cluster.remote_errors", "count", "lower"},
    {"cluster.attempts_mean", "count", "lower"},
    {"cluster.shard_skew", "ratio", "lower"},
    {"net.encode_us", "us", "lower"},
    {"net.decode_us", "us", "lower"},
    // Validity checks on the measurement itself.
    {"gen.late_ms_p50", "ms", "lower"},
    {"gen.late_ms_max", "ms", "lower"},
    {"bus.events", "count", "lower"},
    {"bus.dropped", "count", "lower"},
    // Self time per layer (span time minus child-span time) and the cost
    // of tracing: mean time per operation, traced over untraced phase.
    {"self_s.harness", "s", "lower"},
    {"self_s.api", "s", "lower"},
    {"self_s.synth", "s", "lower"},
    {"self_s.smt", "s", "lower"},
    {"self_s.spec", "s", "lower"},
    {"self_s.interp", "s", "lower"},
    {"self_s.table", "s", "lower"},
    {"self_s.service", "s", "lower"},
    {"self_s.io", "s", "lower"},
    {"self_s.net", "s", "lower"},
    {"self_s.cluster", "s", "lower"},
    {"self_s.bus", "s", "lower"},
    {"trace.spans", "count", "lower"},
    {"trace.overhead_pct", "%", "lower"},
};

} // namespace repobench

#endif // REPOBENCH_CATALOGUE_H
