#include "exec/result_sink.hpp"

#include <cstdio>
#include <ostream>

namespace vcsteer::exec {

void write_summary_json(std::ostream& os, const RunSummary& s) {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto boolean = [](bool b) { return b ? "true" : "false"; };
  os << "{\"bench\":" << stats::json_quote(s.bench)
     << ",\"ok\":" << boolean(s.ok)
     << ",\"wall_seconds\":" << num(s.wall_seconds)
     << ",\"sweep\":{\"points\":" << s.points
     << ",\"simulated\":" << s.simulated
     << ",\"cache_hits\":" << s.cache_hits
     << ",\"corrupt_recovered\":" << s.corrupt_recovered
     << ",\"uops\":" << s.uops << ",\"annotations\":" << s.annotations
     << ",\"sims_reused\":" << s.sims_reused << "}"
     << ",\"phases\":{\"trace_build_s\":" << num(s.phases.trace_build)
     << ",\"annotate_s\":" << num(s.phases.annotate)
     << ",\"warmup_s\":" << num(s.phases.warmup)
     << ",\"simulate_s\":" << num(s.phases.simulate)
     << ",\"walk_s\":" << num(s.phases.walk)
     << ",\"cache_io_s\":" << num(s.phases.cache_io) << "}"
     << ",\"schemes\":{";
  {
    bool first = true;
    for (const auto& [label, sch] : s.schemes) {
      if (!first) os << ',';
      first = false;
      os << stats::json_quote(label) << ":{\"uops\":" << sch.uops
         << ",\"simulate_s\":" << num(sch.simulate_s) << "}";
    }
  }
  os << "}"
     << ",\"events\":{\"experiments\":" << s.experiments
     << ",\"trace_builds\":" << s.trace_builds
     << ",\"traces\":" << s.traces << ",\"cycles\":" << s.cycles << "}";
  if (!s.net.enabled) {
    os << ",\"net\":null";
  } else {
    os << ",\"net\":{\"server\":" << stats::json_quote(s.net.server)
       << ",\"role\":" << stats::json_quote(s.net.role)
       << ",\"jobs_pulled\":" << s.net.jobs_pulled
       << ",\"gets\":" << s.net.gets << ",\"puts\":" << s.net.puts
       << ",\"reconnects\":" << s.net.reconnects << ",\"workers\":{";
    bool first = true;
    for (const auto& [client, jobs] : s.net.workers) {
      if (!first) os << ',';
      first = false;
      os << stats::json_quote(client) << ":" << jobs;
    }
    os << "}}";
  }
  if (!s.model.enabled) {
    os << ",\"model\":null";
  } else {
    os << ",\"model\":{\"top_k\":" << s.model.top_k
       << ",\"estimated\":" << s.model.estimated
       << ",\"walked\":" << s.model.walked
       << ",\"walks_reused\":" << s.model.walks_reused
       << ",\"pruned\":" << s.model.pruned
       << ",\"spearman\":"
       << (s.model.spearman ? num(*s.model.spearman) : "null")
       << ",\"top3_overlap\":" << s.model.top3_overlap << "}";
  }
  os << ",\"options\":{";
  {
    bool first = true;
    for (const auto& [name, value] : s.options) {
      if (!first) os << ',';
      first = false;
      os << stats::json_quote(name) << ":" << stats::json_quote(value);
    }
  }
  os << "}";
  os << "}\n";
}

void ResultSink::add_sweep(const SweepResult& sweep) {
  results_.insert(results_.end(), sweep.points().begin(),
                  sweep.points().end());
}

void ResultSink::add_table(stats::Table table) {
  tables_.push_back(std::move(table));
}

stats::Table ResultSink::raw_table(std::string title) const {
  stats::Table t(std::move(title));
  t.set_columns({"trace", "scheme", "IPC", "copies/kuop", "alloc stalls/kuop",
                 "policy stalls/kuop", "committed uops", "cycles"});
  for (const harness::RunResult& r : results_) {
    t.row()
        .add(r.trace)
        .add(r.scheme)
        .add(r.ipc, 4)
        .add(r.copies_per_kuop, 2)
        .add(r.alloc_stalls_per_kuop, 2)
        .add(r.policy_stalls_per_kuop, 2)
        .add(r.committed_uops)
        .add(r.cycles);
  }
  return t;
}

void ResultSink::write_json(std::ostream& os) const {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  os << "{\"bench\":" << stats::json_quote(bench_name_) << ',';
  // Results-document schema version: bumped whenever a field is added to or
  // removed from the per-result records below (2: + per-result "source").
  os << "\"schema_version\":2,";
  // Deliberately no execution counters (simulated/cache hits) here: the
  // document is a pure function of the grid, so a cached or service-leased
  // run emits the same bytes as a cold single-process one. The
  // counters live in the --summary-json (RunSummary).
  os << "\"sweep\":{\"points\":" << results_.size() << "},";
  os << "\"results\":[";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const harness::RunResult& r = results_[i];
    if (i) os << ',';
    os << "{\"trace\":" << stats::json_quote(r.trace)
       << ",\"scheme\":" << stats::json_quote(r.scheme)
       << ",\"source\":" << stats::json_quote(r.source)
       << ",\"ipc\":" << num(r.ipc)
       << ",\"copies_per_kuop\":" << num(r.copies_per_kuop)
       << ",\"alloc_stalls_per_kuop\":" << num(r.alloc_stalls_per_kuop)
       << ",\"policy_stalls_per_kuop\":" << num(r.policy_stalls_per_kuop)
       << ",\"copy_hops_per_kuop\":" << num(r.copy_hops_per_kuop)
       << ",\"link_contention_per_kuop\":" << num(r.link_contention_per_kuop)
       << ",\"avoided_contended_per_kuop\":" << num(r.avoided_contended_per_kuop)
       << ",\"committed_uops\":" << r.committed_uops
       << ",\"cycles\":" << r.cycles;
    // Observer-derived occupancy/steering provenance, trimmed to the
    // machine's cluster count.
    auto num_array = [&](const char* name, const auto& values) {
      os << ",\"" << name << "\":[";
      for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
        if (c) os << ',';
        os << num(static_cast<double>(values[c]));
      }
      os << ']';
    };
    num_array("avg_iq_occupancy", r.avg_iq_occupancy);
    num_array("avg_copyq_occupancy", r.avg_copyq_occupancy);
    os << ",\"iq_occupancy_hist\":[";
    for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
      if (c) os << ',';
      os << '[';
      for (std::uint32_t b = 0; b < sim::kOccupancyBuckets; ++b) {
        if (b) os << ',';
        os << r.iq_occupancy_hist[c][b];
      }
      os << ']';
    }
    os << ']';
    os << ",\"steered_with_copy\":[";
    for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
      if (c) os << ',';
      os << r.steered_with_copy[c];
    }
    os << "],\"steered_local\":[";
    for (std::uint32_t c = 0; c < r.num_clusters; ++c) {
      if (c) os << ',';
      os << r.steered_local[c];
    }
    os << "]}";
  }
  os << "],\"tables\":[";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (i) os << ',';
    os << tables_[i].to_json();
  }
  os << "]}\n";
}

}  // namespace vcsteer::exec
