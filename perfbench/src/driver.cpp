#include "driver.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "eval/model_evaluator.hpp"
#include "exec/cache.hpp"
#include "model/critpath.hpp"
#include "net/client.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_SWEEPD
#error "driver.cpp requires -DPERFBENCH_SWEEPD=\"<path to vcsteer-sweepd>\""
#endif

namespace perfbench {

namespace fs = std::filesystem;
using vcsteer::exec::CacheLookup;
using vcsteer::exec::ResultCache;
using vcsteer::exec::SweepOptions;
using vcsteer::exec::SweepResult;
using vcsteer::harness::RunResult;
using vcsteer::harness::TraceExperiment;
using vcsteer::steer::Scheme;

// ------------------------------------------------------------- metrics ---

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"sweep_cpu_s", "s"},
      {"sim_kuops_per_cpu_s", "kuops/s"},
      {"points_per_cpu_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"workload.build_s", "s"},
      {"workload.builds", "count"},
      {"workload.ns_per_uop", "ns"},
      {"compiler.annotate_s", "s"},
      {"compiler.calls", "count"},
      {"compiler.ob_s", "s"},
      {"compiler.rhop_s", "s"},
      {"compiler.vc_s", "s"},
      {"mem.warm_s", "s"},
      {"mem.warm_accesses", "count"},
      {"mem.ns_per_access", "ns"},
      {"sim.run_s", "s"},
      {"sim.run_pct", "%"},
      {"sim.committed_uops", "count"},
      {"sim.cycles", "count"},
      {"sim.ns_per_uop", "ns"},
      {"sim.ns_per_cycle", "ns"},
      {"sim.copies", "count"},
      {"sim.link_contention_cycles", "count"},
      {"sim.ns_per_uop.op", "ns"},
      {"sim.ns_per_uop.one_cluster", "ns"},
      {"sim.ns_per_uop.ob", "ns"},
      {"sim.ns_per_uop.rhop", "ns"},
      {"sim.ns_per_uop.vc", "ns"},
      {"sim.ns_per_uop.op_parallel", "ns"},
      {"model.replay_s", "s"},
      {"model.walk_s", "s"},
      {"model.walk_pct", "%"},
      {"model.uops_walked", "count"},
      {"model.ns_per_uop", "ns"},
      {"model.cost_ratio", "ratio"},
      {"eval.sim_self_s", "s"},
      {"eval.model_self_s", "s"},
      {"exec.sweep_self_s", "s"},
      {"exec.lookups", "count"},
      {"exec.hits", "count"},
      {"exec.hit_ratio", "ratio"},
      {"exec.lookup_us", "us"},
      {"exec.store_us", "us"},
      {"exec.rerun_ms", "ms"},
      {"net.gets", "count"},
      {"net.get_us", "us"},
      {"net.errors", "count"},
      {"net.reconnects", "count"},
      {"net.get_p50_us", "us"},
      {"net.get_p99_us", "us"},
      {"net.get_per_s", "1/s"},
      {"net.get_samples", "count"},
      {"stats.write_json_s", "s"},
      {"stats.json_bytes", "bytes"},
      {"check.fig5c_mae_pp", "pp"},
      {"check.fig7c_mae_pp", "pp"},
      {"check.model_ipc_err_pct", "%"},
      {"bench.cell_self_s", "s"},
      {"bench.traced_s", "s"},
      {"bench.traced_cpu_s", "s"},
      {"bench.untraced_cpu_s", "s"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.self_sum_err_pct", "%"},
  };
  return defs;
}

std::string inherited_knob() {
  static const char* const kKnobs[] = {"VCSTEER_BATCH", "VCSTEER_TRANSPOSE",
                                       "VCSTEER_KERNEL", "VCSTEER_LOG"};
  for (const char* knob : kKnobs) {
    if (std::getenv(knob) != nullptr) return knob;
  }
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "VCSTEER_TEST_CRASH_", 19) == 0) {
      return std::string(*env).substr(0, std::strcspn(*env, "="));
    }
  }
  return {};
}

// ------------------------------------------------------------- helpers ---

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Sweeps run on one worker thread, the calling one. With several workers
/// on a host of a few shared cores, a sweep's CPU time follows how the
/// workers contend for caches and cores.
constexpr unsigned kSweepJobs = 1;

/// Peak resident set of the process so far.
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Linear-interpolated percentile of sorted samples, p in [0, 1].
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

const char* kind_name(Scheme s) {
  switch (s) {
    case Scheme::kOp: return "op";
    case Scheme::kOneCluster: return "one_cluster";
    case Scheme::kOb: return "ob";
    case Scheme::kRhop: return "rhop";
    case Scheme::kVc: return "vc";
    case Scheme::kParallelOp: return "op_parallel";
  }
  return "other";
}

vcsteer::workload::WorkloadProfile salted(
    const vcsteer::workload::WorkloadProfile& base, std::uint64_t seed) {
  vcsteer::workload::WorkloadProfile p = base;
  p.seed_salt += seed;
  return p;
}

/// A private vcsteer-sweepd: fork/exec on start (ready once it answers
/// PING), SIGTERM and reap on stop. The child also gets SIGTERM if the
/// benchmark dies first, so no daemon outlives a run.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::string& listen, const std::string& cache_dir) {
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(1);
      ::dup2(STDERR_FILENO, STDOUT_FILENO);  // keep the result line clean
      const char* argv[] = {PERFBENCH_SWEEPD, "--listen", listen.c_str(),
                            "--cache-dir", cache_dir.c_str(), nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv));
      std::fprintf(stderr, "exec %s: %s\n", argv[0], std::strerror(errno));
      ::_exit(127);
    }
    vcsteer::net::ClientOptions co;
    co.connect = listen;
    co.reconnect_window_s = 10;
    vcsteer::net::StoreClient probe(co);
    if (probe.ping()) return true;
    stop();
    return false;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// exec::ResultStore decorator over an on-disk ResultCache that times every
/// lookup and store and records each as an exec.lookup / exec.store span
/// when a recorder is attached.
class TimingStore final : public vcsteer::exec::ResultStore {
 public:
  TimingStore(const ResultCache& cache, SpanRecorder* recorder)
      : cache_(cache), recorder_(recorder) {}

  CacheLookup lookup(const std::string& key, RunResult* out) override;
  void store(const std::string& key, const RunResult& result) override;

  struct Counters {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t stores = 0;
    double lookup_s = 0;
    double store_s = 0;
  };
  Counters counters() const;

 private:
  const ResultCache& cache_;
  SpanRecorder* recorder_;
  mutable std::mutex mutex_;
  Counters counters_;
};

CacheLookup TimingStore::lookup(const std::string& key, RunResult* out) {
  const Clock::time_point t0 = Clock::now();
  CacheLookup got;
  {
    ScopedSpan span(recorder_, "exec.lookup");
    got = cache_.lookup(key, out);
  }
  const double dt = seconds_since(t0);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.lookups;
  if (got == CacheLookup::kHit) ++counters_.hits;
  counters_.lookup_s += dt;
  return got;
}

void TimingStore::store(const std::string& key, const RunResult& result) {
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(recorder_, "exec.store");
    cache_.store(key, result);
  }
  const double dt = seconds_since(t0);
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.stores;
  counters_.store_s += dt;
}

TimingStore::Counters TimingStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

/// Failure tally; the first few reasons go to stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    if (++reported_ <= 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }

 private:
  unsigned reported_ = 0;
};

/// Everything set-up prepares for the timed part.
struct Prepared {
  Workload workload;
  /// Per grid, per trace: the work every result must cover.
  std::vector<std::vector<TraceWork>> work;

  // warm-service only.
  std::string cache_dir;
  std::string listen;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> keys;    ///< the grid's sim cache keys.
  std::vector<std::string> stored;  ///< the bytes the cache holds per key.
  std::vector<std::pair<int, int>> key_cell;  ///< (trace, machine) per key.
  std::vector<std::string> cold_digests;  ///< per grid.
  TimingStore::Counters fill;  ///< the cache fill's store timings.

  ~Prepared() {
    daemon.reset();
    if (!cache_dir.empty()) {
      std::error_code ec;
      fs::remove_all(cache_dir, ec);
    }
  }
};

/// Checks every slot of `r` against the grid and the traces' work. Returns
/// the number of points checked.
std::size_t check_sweep(const NamedGrid& ng, const std::vector<TraceWork>& work,
                        const SweepResult& r, std::size_t prune_top_k,
                        Tally* tally) {
  const auto& g = ng.grid;
  std::size_t sim_points = 0;
  for (std::size_t t = 0; t < g.profiles.size(); ++t) {
    for (std::size_t m = 0; m < g.machines.size(); ++m) {
      for (std::size_t s = 0; s < g.schemes.size(); ++s) {
        const RunResult& p = r.at(t, m, s);
        const std::string source =
            prune_top_k > 0 && p.source == "model" ? "model" : "sim";
        if (source == "sim") ++sim_points;
        const std::string why =
            check_point(p, work[t], g.schemes[s].label(g.machines[m]), source);
        if (!why.empty()) {
          tally->fail(1, ng.name + " point (" + std::to_string(t) + "," +
                             std::to_string(m) + "," + std::to_string(s) +
                             "): " + why);
        }
      }
    }
  }
  const std::size_t points = r.num_points();
  const std::size_t want_sim =
      prune_top_k == 0
          ? points
          : std::min(prune_top_k, g.machines.size() * g.schemes.size()) *
                g.profiles.size();
  if (sim_points != want_sim) {
    tally->fail(points, ng.name + ": " + std::to_string(sim_points) +
                            " simulated points, expected " +
                            std::to_string(want_sim));
  }
  tally->attempted += points;
  return points;
}

/// A sweep's CPU time is split into pieces of at least this many CPU
/// seconds, at (trace, machine) job boundaries, for host-speed scaling.
constexpr double kMinPieceS = 0.1;

/// `timer`, when set, times the set-up; its pieces end at the cache fill's
/// job boundaries.
std::unique_ptr<Prepared> set_up(const Args& args, int index, Tally* tally,
                                 NominalCpuTimer* timer = nullptr) {
  auto prep = std::make_unique<Prepared>();
  if (!make_workload(args.workload, &prep->workload)) return nullptr;
  for (const NamedGrid& ng : prep->workload.grids) {
    std::vector<TraceWork> work;
    for (const auto& base : ng.grid.profiles) {
      const TraceExperiment exp(salted(base, args.seed), ng.grid.machines[0],
                                ng.grid.budget);
      TraceWork w;
      w.trace = base.name;
      w.points = exp.simpoints().size();
      for (const auto& interval : exp.intervals()) w.uops += interval.size();
      work.push_back(w);
    }
    prep->work.push_back(std::move(work));
  }
  if (!prep->workload.warm) return prep;

  // Fill an on-disk cache with the grids' results, then serve it from a
  // private daemon. Paths are relative, so they stay inside the checkout
  // and short enough for a unix socket.
  const std::string tag = std::to_string(::getpid()) + "-" + std::to_string(index);
  prep->cache_dir = args.work_dir + "/cache-" + tag;
  prep->listen = "unix:" + args.work_dir + "/sd-" + tag + ".sock";
  std::error_code ec;
  fs::remove_all(prep->cache_dir, ec);
  const ResultCache cache(prep->cache_dir);
  TimingStore fill_store(cache, nullptr);
  for (std::size_t gi = 0; gi < prep->workload.grids.size(); ++gi) {
    const NamedGrid& ng = prep->workload.grids[gi];
    SweepOptions opt;
    opt.jobs = kSweepJobs;
    opt.seed_salt = args.seed;
    opt.store = &fill_store;
    if (timer != nullptr) {
      opt.progress = [timer](std::size_t, std::size_t) { timer->checkpoint(kMinPieceS); };
    }
    const SweepResult cold = vcsteer::exec::run_sweep(ng.grid, opt);
    check_sweep(ng, prep->work[gi], cold, 0, tally);
    prep->cold_digests.push_back(digest_hex(render_results(ng.name, cold)));
    const auto& g = ng.grid;
    for (std::size_t t = 0; t < g.profiles.size(); ++t) {
      for (std::size_t m = 0; m < g.machines.size(); ++m) {
        for (std::size_t s = 0; s < g.schemes.size(); ++s) {
          const std::string key = vcsteer::exec::cache_key(
              salted(g.profiles[t], args.seed), g.machines[m],
              g.schemes[s].spec, g.budget);
          std::string text;
          if (cache.lookup_text(key, &text) != CacheLookup::kHit ||
              text != vcsteer::exec::encode_result(cold.at(t, m, s))) {
            tally->fail(1, "cache fill: entry missing or not the sweep's result");
          }
          prep->keys.push_back(key);
          prep->stored.push_back(std::move(text));
          prep->key_cell.emplace_back(static_cast<int>(t), static_cast<int>(m));
        }
      }
    }
  }
  prep->fill = fill_store.counters();
  prep->daemon = std::make_unique<Daemon>();
  if (!prep->daemon->start(prep->listen, prep->cache_dir)) {
    std::fprintf(stderr, "perfbench: vcsteer-sweepd on %s never answered\n",
                 prep->listen.c_str());
    return nullptr;
  }
  return prep;
}

// ------------------------------------------------------ untraced reps ---

struct GetStats {
  std::vector<double> latency_us;
  std::uint64_t errors = 0;
  std::uint64_t reconnects = 0;
  double wall_s = 0;
};

constexpr unsigned kGetsPerClient = 256;

/// Closed loop: `clients` connections, each issuing its next GET when the
/// previous reply arrives, over the grid's keys in a seeded order. Every
/// payload must equal the bytes the cache holds.
GetStats run_gets(const Prepared& prep, std::uint64_t seed, std::uint64_t rep,
                  unsigned clients, SpanRecorder* rec, Tally* tally) {
  GetStats out;
  std::vector<std::vector<double>> lat(clients);
  std::atomic<std::uint64_t> errors{0}, reconnects{0};
  const std::size_t n = prep.keys.size();
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::uint64_t state = vcsteer::hash_seed("perfbench-get", seed) ^
                              (rep * 0x9e3779b97f4a7c15ull + c);
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        for (std::size_t i = n; i > 1; --i) {
          std::swap(order[i - 1], order[vcsteer::splitmix64(state) % i]);
        }
        vcsteer::net::ClientOptions co;
        co.connect = prep.listen;
        co.reconnect_window_s = 10;
        vcsteer::net::StoreClient client(co);
        ScopedSpan thread_span(rec, "net.client");
        std::string text;
        lat[c].reserve(kGetsPerClient);
        for (unsigned r = 0; r < kGetsPerClient; ++r) {
          const std::size_t k = order[r % n];
          const Clock::time_point s = Clock::now();
          CacheLookup got;
          {
            ScopedSpan get_span(rec, "net.get", prep.key_cell[k].first,
                                prep.key_cell[k].second);
            got = client.get(prep.keys[k], &text);
          }
          lat[c].push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - s).count());
          if (got != CacheLookup::kHit || text != prep.stored[k]) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
        reconnects.fetch_add(client.counters().reconnects);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out.wall_s = seconds_since(t0);
  for (auto& l : lat) out.latency_us.insert(out.latency_us.end(), l.begin(), l.end());
  out.errors = errors.load();
  out.reconnects = reconnects.load();
  tally->attempted += out.latency_us.size();
  if (out.errors > 0) {
    tally->fail(out.errors, std::to_string(out.errors) +
                                " GETs missed or returned other bytes");
  }
  return out;
}

struct Rep {
  double sweep_cpu_s = 0;  ///< the run_sweep calls.
  double sweep_nominal_s = 0;  ///< sweep_cpu_s scaled to the nominal host.
  double reference_s = 0;  ///< mean reference sample around the sweeps.
  double sweep_wall_s = 0;
  double unit_cpu_s = 0;   ///< sweeps + rendering + GETs: the traced pass's work.
  std::uint64_t sim_uops = 0;
  std::size_t points = 0;
  std::vector<std::string> digests;
  std::vector<SweepResult> results;
  GetStats gets;
};

Rep run_rep(const Prepared& prep, const Args& args, unsigned clients,
            std::uint64_t rep_index, Tally* tally) {
  Rep rep;
  const double unit_cpu0 = process_cpu_s();
  double samples_s = 0;
  int samples = 0;
  for (std::size_t gi = 0; gi < prep.workload.grids.size(); ++gi) {
    const NamedGrid& ng = prep.workload.grids[gi];
    SweepOptions opt;
    opt.jobs = kSweepJobs;
    opt.seed_salt = args.seed;
    opt.prune_top_k = prep.workload.prune_top_k;
    if (prep.workload.warm) opt.cache_dir = prep.cache_dir;
    NominalCpuTimer timer;
    opt.progress = [&timer](std::size_t, std::size_t) { timer.checkpoint(kMinPieceS); };
    const Clock::time_point w0 = Clock::now();
    SweepResult r = vcsteer::exec::run_sweep(ng.grid, opt);
    rep.sweep_wall_s += seconds_since(w0);
    timer.stop();
    rep.sweep_cpu_s += timer.raw_s();
    rep.sweep_nominal_s += timer.nominal_s();
    samples_s += timer.samples_s();
    samples += timer.samples();
    rep.digests.push_back(digest_hex(render_results(ng.name, r)));
    rep.results.push_back(std::move(r));
  }
  if (prep.workload.warm) {
    rep.gets = run_gets(prep, args.seed, rep_index, clients, nullptr, tally);
  }
  rep.unit_cpu_s = process_cpu_s() - unit_cpu0 - samples_s;
  rep.reference_s = samples_s / samples;

  // Output checks, outside every timed span.
  for (std::size_t gi = 0; gi < prep.workload.grids.size(); ++gi) {
    const NamedGrid& ng = prep.workload.grids[gi];
    const SweepResult& r = rep.results[gi];
    rep.points += check_sweep(ng, prep.work[gi], r, prep.workload.prune_top_k, tally);
    for (const RunResult& p : r.points()) {
      if (p.source == "sim") rep.sim_uops += p.committed_uops;
    }
    if (prep.workload.warm &&
        (r.cache_hits != r.num_points() || r.simulated != 0 ||
         rep.digests[gi] != prep.cold_digests[gi])) {
      tally->fail(r.num_points(), "warm re-run did not serve the cached results");
    }
  }
  return rep;
}

// ---------------------------------------------------------- traced pass ---

struct LayerCounts {
  std::uint64_t builds = 0;
  std::uint64_t generated_uops = 0;
  std::uint64_t annotate_calls = 0;
  std::uint64_t warm_accesses = 0;
  std::uint64_t sim_uops = 0;
  std::uint64_t sim_cycles = 0;
  double sim_copies = 0;
  double sim_contention = 0;
  std::map<std::string, std::uint64_t> sim_uops_by_kind;
  std::uint64_t model_uops = 0;
  std::uint64_t json_bytes = 0;
};

/// Simulates scheme subset `schemes` of cell (t, m) through the harness the
/// way eval::SimEvaluator does, one scheme per evaluate() call so each
/// call's library phase times (annotate, warm-up, cycle loop) become that
/// call's child spans.
std::vector<RunResult> traced_sim_cell(const NamedGrid& ng, std::size_t t,
                                       std::size_t m,
                                       const std::vector<std::size_t>& schemes,
                                       std::uint64_t seed, SpanRecorder* rec,
                                       LayerCounts* counts) {
  const auto& g = ng.grid;
  const vcsteer::MachineConfig& machine = g.machines[m];
  ScopedSpan cell(rec, "bench.cell", static_cast<int>(t), static_cast<int>(m));
  std::unique_ptr<TraceExperiment> exp;
  {
    ScopedSpan build(rec, "workload.build");
    exp = std::make_unique<TraceExperiment>(salted(g.profiles[t], seed),
                                            machine, g.budget);
  }
  ++counts->builds;
  counts->generated_uops += g.budget.total_uops;
  std::uint64_t warm_per_run = 0;
  for (const auto& w : exp->warm_addrs()) warm_per_run += w.size();

  std::vector<RunResult> out;
  for (const std::size_t s : schemes) {
    const vcsteer::harness::SchemeSpec& spec = g.schemes[s].spec;
    const vcsteer::harness::PhaseTimes before = exp->phases();
    ScopedSpan eval(rec, "eval.sim");
    std::vector<RunResult> r = exp->evaluate(
        std::span<const vcsteer::harness::SchemeRequest>(&g.schemes[s], 1));
    const vcsteer::harness::PhaseTimes after = exp->phases();
    const std::string kind = kind_name(spec.scheme);
    if (vcsteer::steer::needs_software_pass(spec.scheme)) {
      rec->add_measured_child(eval.id(), "compiler." + kind,
                              after.annotate_s - before.annotate_s);
      ++counts->annotate_calls;
    }
    rec->add_measured_child(eval.id(), "mem.warm", after.warmup_s - before.warmup_s);
    rec->add_measured_child(eval.id(), "sim.run." + kind,
                            after.simulate_s - before.simulate_s);
    counts->warm_accesses += warm_per_run;
    const RunResult& res = r.at(0);
    counts->sim_uops += res.committed_uops;
    counts->sim_cycles += res.cycles;
    counts->sim_copies += res.copies_per_kuop * static_cast<double>(res.committed_uops) / 1000.0;
    counts->sim_contention +=
        res.link_contention_per_kuop * static_cast<double>(res.committed_uops) / 1000.0;
    counts->sim_uops_by_kind[kind] += res.committed_uops;
    out.push_back(std::move(r[0]));
  }
  return out;
}

/// Scores every scheme of machine m's cell with the analytical model through its
/// public entry points, aggregated as eval::ModelEvaluator aggregates them.
/// Returns the model IPC per scheme.
std::vector<double> traced_model_cell(const NamedGrid& ng, std::size_t m,
                                      const TraceExperiment& exp,
                                      SpanRecorder* rec, LayerCounts* counts) {
  const auto& g = ng.grid;
  const vcsteer::MachineConfig& machine = g.machines[m];
  const auto& points = exp.simpoints();
  const auto& intervals = exp.intervals();
  ScopedSpan eval(rec, "eval.model");
  std::vector<std::vector<std::uint32_t>> load_extra(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    ScopedSpan replay(rec, "model.replay");
    load_extra[p] = vcsteer::model::memory_latencies(
        exp.workload().program, intervals[p], exp.warm_addrs()[p], machine);
  }
  std::vector<double> ipc;
  for (const auto& request : g.schemes) {
    const vcsteer::harness::SchemeSpec& spec = request.spec;
    vcsteer::prog::Program program = exp.workload().program;
    if (vcsteer::steer::needs_software_pass(spec.scheme)) {
      ScopedSpan annotate(rec, std::string("compiler.") + kind_name(spec.scheme));
      vcsteer::harness::annotate_for_scheme(program, spec, machine);
      ++counts->annotate_calls;
    }
    double w_cycles = 0, w_uops = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      vcsteer::model::IntervalEstimate est;
      {
        ScopedSpan walk(rec, "model.walk");
        est = vcsteer::model::estimate_interval(program, intervals[p],
                                                load_extra[p], machine,
                                                spec.scheme);
      }
      w_cycles += points[p].weight * static_cast<double>(est.cycles);
      w_uops += points[p].weight * static_cast<double>(est.committed_uops);
      counts->model_uops += est.committed_uops;
    }
    ipc.push_back(w_uops / w_cycles);
  }
  return ipc;
}

using MetricMap = std::map<std::string, double>;

struct TracedPass {
  std::vector<Span> spans;
  std::string spans_json;
  MetricMap metrics;
};

/// One traced pass over the workload, single-threaded except for the GET
/// connections. Results are compared with the untraced run's `reference`.
TracedPass traced_pass(const Prepared& prep, const Args& args, unsigned clients,
                       const Rep& reference, Tally* tally) {
  SpanRecorder rec;
  LayerCounts counts;
  TimingStore::Counters store_counts;
  GetStats gets;
  const double cpu0 = process_cpu_s();
  {
    ScopedSpan pass(&rec, "bench.pass");
    for (std::size_t gi = 0; gi < prep.workload.grids.size(); ++gi) {
      const NamedGrid& ng = prep.workload.grids[gi];
      const auto& g = ng.grid;
      const SweepResult& ref = reference.results[gi];
      if (prep.workload.warm) {
        const ResultCache cache(prep.cache_dir);
        TimingStore store(cache, &rec);
        SweepOptions opt;
        opt.jobs = kSweepJobs;
        opt.seed_salt = args.seed;
        opt.store = &store;
        const int sweep_span = rec.open("exec.sweep");
        const SweepResult r = vcsteer::exec::run_sweep(g, opt);
        rec.close(sweep_span);
        const TimingStore::Counters c = store.counters();
        store_counts.lookups += c.lookups;
        store_counts.hits += c.hits;
        store_counts.lookup_s += c.lookup_s;
        std::string json;
        {
          ScopedSpan write(&rec, "stats.write_json");
          json = render_results(ng.name, r);
        }
        counts.json_bytes += json.size();
        tally->attempted += r.num_points();
        if (digest_hex(json) != prep.cold_digests[gi]) {
          tally->fail(r.num_points(), "traced warm re-run returned other results");
        }
        continue;
      }
      // Which schemes of each machine the simulator covers: all of them, or
      // the frontier the untraced pruned sweep simulated.
      std::vector<std::vector<std::size_t>> sim_schemes(g.machines.size());
      for (std::size_t m = 0; m < g.machines.size(); ++m) {
        for (std::size_t s = 0; s < g.schemes.size(); ++s) {
          if (ref.at(0, m, s).source == "sim") sim_schemes[m].push_back(s);
        }
      }
      if (prep.workload.prune_top_k > 0) {
        for (std::size_t t = 0; t < g.profiles.size(); ++t) {
          std::unique_ptr<TraceExperiment> exp;
          for (std::size_t m = 0; m < g.machines.size(); ++m) {
            ScopedSpan cell(&rec, "bench.cell", static_cast<int>(t),
                            static_cast<int>(m));
            if (!exp) {
              // Traces are shared across machines, as ModelEvaluator shares
              // them: built once, billed to the first cell.
              ScopedSpan build(&rec, "workload.build");
              exp = std::make_unique<TraceExperiment>(
                  salted(g.profiles[t], args.seed), g.machines[m], g.budget);
              ++counts.builds;
              counts.generated_uops += g.budget.total_uops;
            }
            const std::vector<double> ipc =
                traced_model_cell(ng, m, *exp, &rec, &counts);
            for (std::size_t s = 0; s < g.schemes.size(); ++s) {
              const RunResult& want = ref.at(t, m, s);
              if (want.source != "model") continue;
              ++tally->attempted;
              if (ipc[s] != want.ipc) {
                tally->fail(1, "traced model walk disagrees with the sweep's estimate");
              }
            }
          }
        }
      }
      for (std::size_t t = 0; t < g.profiles.size(); ++t) {
        for (std::size_t m = 0; m < g.machines.size(); ++m) {
          if (sim_schemes[m].empty()) continue;
          std::vector<RunResult> r = traced_sim_cell(ng, t, m, sim_schemes[m],
                                                     args.seed, &rec, &counts);
          for (std::size_t i = 0; i < r.size(); ++i) {
            const std::size_t s = sim_schemes[m][i];
            ++tally->attempted;
            if (vcsteer::exec::encode_result(r[i]) !=
                vcsteer::exec::encode_result(ref.at(t, m, s))) {
              tally->fail(1, ng.name + ": traced simulation differs from the sweep");
            }
          }
        }
      }
      // ResultSink renders whole sweeps; the traced points were just checked
      // equal to the reference sweep's, so rendering it costs the same.
      ScopedSpan write(&rec, "stats.write_json");
      counts.json_bytes += render_results(ng.name, ref).size();
    }
  }
  if (prep.workload.warm) {
    gets = run_gets(prep, args.seed, ~std::uint64_t{0}, clients, &rec, tally);
  }
  const double traced_cpu = process_cpu_s() - cpu0;

  TracedPass out;
  out.spans = rec.spans();
  std::ostringstream js;
  rec.write_json(js);
  out.spans_json = js.str();

  const auto totals = totals_by_name(out.spans);
  auto self = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto self_prefix = [&](const std::string& prefix) {
    double sum = 0;
    for (const auto& [name, t] : totals) {
      if (name.rfind(prefix, 0) == 0) sum += t.self_s;
    }
    return sum;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double traced_s = root_total(out.spans);
  double self_sum = 0;
  for (const double s : self_times(out.spans)) self_sum += s;

  MetricMap& x = out.metrics;
  x["workload.build_s"] = self("workload.build");
  x["workload.builds"] = static_cast<double>(counts.builds);
  x["workload.ns_per_uop"] = 1e9 * ratio(self("workload.build"),
                                         static_cast<double>(counts.generated_uops));
  x["compiler.ob_s"] = self("compiler.ob");
  x["compiler.rhop_s"] = self("compiler.rhop");
  x["compiler.vc_s"] = self("compiler.vc");
  x["compiler.annotate_s"] = self_prefix("compiler.");
  x["compiler.calls"] = static_cast<double>(counts.annotate_calls);
  x["mem.warm_s"] = self("mem.warm");
  x["mem.warm_accesses"] = static_cast<double>(counts.warm_accesses);
  x["mem.ns_per_access"] = 1e9 * ratio(self("mem.warm"),
                                       static_cast<double>(counts.warm_accesses));
  const double sim_s = self_prefix("sim.run.");
  x["sim.run_s"] = sim_s;
  x["sim.run_pct"] = 100.0 * ratio(sim_s, traced_s);
  x["sim.committed_uops"] = static_cast<double>(counts.sim_uops);
  x["sim.cycles"] = static_cast<double>(counts.sim_cycles);
  x["sim.ns_per_uop"] = 1e9 * ratio(sim_s, static_cast<double>(counts.sim_uops));
  x["sim.ns_per_cycle"] = 1e9 * ratio(sim_s, static_cast<double>(counts.sim_cycles));
  x["sim.copies"] = std::round(counts.sim_copies);
  x["sim.link_contention_cycles"] = std::round(counts.sim_contention);
  for (const char* kind : {"op", "one_cluster", "ob", "rhop", "vc", "op_parallel"}) {
    const auto it = counts.sim_uops_by_kind.find(kind);
    x[std::string("sim.ns_per_uop.") + kind] =
        1e9 * ratio(self(std::string("sim.run.") + kind),
                    it == counts.sim_uops_by_kind.end()
                        ? 0.0
                        : static_cast<double>(it->second));
  }
  x["model.replay_s"] = self("model.replay");
  x["model.walk_s"] = self("model.walk");
  x["model.walk_pct"] = 100.0 * ratio(self("model.walk"), traced_s);
  x["model.uops_walked"] = static_cast<double>(counts.model_uops);
  x["model.ns_per_uop"] =
      1e9 * ratio(self("model.walk"), static_cast<double>(counts.model_uops));
  x["model.cost_ratio"] = ratio(x["model.ns_per_uop"], x["sim.ns_per_uop"]);
  x["eval.sim_self_s"] = self("eval.sim");
  x["eval.model_self_s"] = self("eval.model");
  x["exec.sweep_self_s"] = self("exec.sweep");
  x["exec.lookups"] = static_cast<double>(store_counts.lookups);
  x["exec.hits"] = static_cast<double>(store_counts.hits);
  x["exec.hit_ratio"] = ratio(static_cast<double>(store_counts.hits),
                              static_cast<double>(store_counts.lookups));
  x["exec.lookup_us"] =
      1e6 * ratio(store_counts.lookup_s, static_cast<double>(store_counts.lookups));
  x["exec.store_us"] =
      1e6 * ratio(prep.fill.store_s, static_cast<double>(prep.fill.stores));
  const auto gets_total = totals.find("net.get");
  x["net.gets"] = static_cast<double>(gets.latency_us.size());
  x["net.get_us"] = gets_total == totals.end()
                        ? 0.0
                        : 1e6 * ratio(gets_total->second.self_s,
                                      static_cast<double>(gets_total->second.count));
  x["net.errors"] = static_cast<double>(gets.errors);
  x["net.reconnects"] = static_cast<double>(gets.reconnects);
  x["stats.write_json_s"] = self("stats.write_json");
  x["stats.json_bytes"] = static_cast<double>(counts.json_bytes);
  x["bench.cell_self_s"] = self("bench.cell");
  x["bench.traced_s"] = traced_s;
  x["bench.traced_cpu_s"] = traced_cpu;
  x["bench.self_sum_err_pct"] = 100.0 * ratio(std::fabs(self_sum - traced_s), traced_s);
  return out;
}

// ------------------------------------------------------------- output ---

void append_number(std::string* s, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  *s += buf;
}

std::string metrics_json(const std::vector<MetricDef>& defs, const MetricMap& values) {
  std::string s = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i > 0) s += ",";
    s += "\"";
    s += defs[i].name;
    s += "\":{\"value\":";
    const auto it = values.find(defs[i].name);
    append_number(&s, it == values.end() ? 0.0 : it->second);
    s += ",\"unit\":\"";
    s += defs[i].unit;
    s += "\"}";
  }
  return s + "}";
}

/// Pinned digest for (workload, seed), or empty when not pinned.
std::string pinned_digest(const std::string& path, const std::string& workload,
                          std::uint64_t seed) {
  if (path.empty()) return {};
  std::ifstream in(path);
  std::string w, d;
  std::uint64_t s = 0;
  while (in >> w >> s >> d) {
    if (w == workload && s == seed) return d;
  }
  return {};
}

std::string join(const std::vector<std::string>& parts) {
  std::string s;
  for (const std::string& p : parts) s += (s.empty() ? "" : "+") + p;
  return s;
}

/// GET connections: four, or fewer on a smaller host.
unsigned get_connections() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace

// ---------------------------------------------------------------- runs ---

int run_benchmark(const Args& args, std::ostream& out) {
  const unsigned clients = get_connections();
  const Clock::time_point start = Clock::now();
  Tally tally;
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);

  // Set-up, several times: at least five, and more (up to 25) while they
  // add up to under half a CPU second, so that a set-up of a few
  // milliseconds still gets a steady median. The last one's state is what
  // the run uses.
  std::vector<double> setup_cpu, setup_raw;
  double setup_total = 0;
  std::unique_ptr<Prepared> prep;
  while (setup_cpu.size() < 5 || (setup_total < 0.5 && setup_cpu.size() < 25)) {
    prep.reset();
    NominalCpuTimer timer;
    prep = set_up(args, static_cast<int>(setup_cpu.size()), &tally, &timer);
    timer.stop();
    if (!prep) return 1;
    setup_raw.push_back(timer.raw_s());
    setup_cpu.push_back(timer.nominal_s());
    setup_total += timer.raw_s();
  }

  // Untraced repetitions: the whole budget, or half of it when a traced
  // pass follows.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::size_t min_reps = args.trace ? 2 : 3;
  std::vector<Rep> reps;
  while (reps.size() < min_reps || seconds_since(start) < untraced_budget) {
    Rep rep = run_rep(*prep, args, clients, reps.size(), &tally);
    if (!reps.empty()) {
      // Only the first repetition's sweeps are kept for the checks below.
      for (std::size_t gi = 0; gi < rep.digests.size(); ++gi) {
        if (rep.digests[gi] != reps[0].digests[gi]) {
          tally.fail(rep.results[gi].num_points(),
                     "repetition " + std::to_string(reps.size()) +
                         " returned other results than the first");
        }
      }
      rep.results.clear();
    }
    reps.push_back(std::move(rep));
  }
  const Rep& first = reps[0];

  const std::string digest = join(first.digests);
  const std::string pin = pinned_digest(args.pins, args.workload, args.seed);
  if (!pin.empty() && pin != digest) {
    tally.fail(first.points, "results digest " + digest + " != pinned " + pin);
  }

  std::vector<double> sweep_cpu, sweep_raw, sweep_wall, kuops, pps, unit_cpu,
      references, get_lat;
  double get_wall = 0;
  for (const Rep& r : reps) {
    const double cpu = r.sweep_nominal_s;
    sweep_cpu.push_back(cpu);
    references.push_back(r.reference_s);
    sweep_raw.push_back(r.sweep_cpu_s);
    sweep_wall.push_back(r.sweep_wall_s);
    kuops.push_back(static_cast<double>(r.sim_uops) / 1000.0 / cpu);
    pps.push_back(static_cast<double>(r.points) / cpu);
    unit_cpu.push_back(r.unit_cpu_s);
    get_lat.insert(get_lat.end(), r.gets.latency_us.begin(), r.gets.latency_us.end());
    get_wall += r.gets.wall_s;
  }
  std::sort(get_lat.begin(), get_lat.end());

  MetricMap report;
  report["setup_s"] = median(setup_cpu);
  report["sweep_cpu_s"] = median(sweep_cpu);
  report["sim_kuops_per_cpu_s"] = median(kuops);
  report["points_per_cpu_s"] = median(pps);
  report["peak_rss_mb"] = peak_rss_mb();
  report["repetitions"] = static_cast<double>(reps.size());
  report["raw_setup_s"] = median(setup_raw);
  report["raw_sweep_cpu_s"] = median(sweep_raw);
  report["reference_s"] = median(references);
  if (prep->workload.warm) {
    report["rerun_ms"] = 1e3 * median(sweep_wall);
    report["get_p50_us"] = percentile(get_lat, 0.50);
    report["get_p99_us"] = percentile(get_lat, 0.99);
    report["get_per_s"] = get_wall > 0 ? static_cast<double>(get_lat.size()) / get_wall : 0;
    report["get_samples"] = static_cast<double>(get_lat.size());
  }
  if (args.workload == "sim-ideal") {
    report["fig5c_mae_pp"] = fig_c_mae_pp(first.results[0], kFig5cPaper);
    report["fig7c_mae_pp"] = fig_c_mae_pp(first.results[1], kFig7cPaper);
  }
  if (prep->workload.prune_top_k > 0) {
    // Model error over the simulated frontiers: the model's estimate of each
    // frontier point, from the evaluator the pruned sweeps themselves use.
    vcsteer::eval::ModelEvaluator model;
    double err = 0;
    std::size_t n = 0;
    for (std::size_t gi = 0; gi < prep->workload.grids.size(); ++gi) {
      const auto& g = prep->workload.grids[gi].grid;
      const SweepResult& r = first.results[gi];
      for (std::size_t t = 0; t < g.profiles.size(); ++t) {
        for (std::size_t m = 0; m < g.machines.size(); ++m) {
          vcsteer::eval::EvalRequest req{salted(g.profiles[t], args.seed),
                                         g.machines[m], g.budget, {}};
          std::vector<std::size_t> idx;
          for (std::size_t s = 0; s < g.schemes.size(); ++s) {
            if (r.at(t, m, s).source != "sim") continue;
            req.schemes.push_back(g.schemes[s]);
            idx.push_back(s);
          }
          if (idx.empty()) continue;
          const vcsteer::eval::EvalResponse resp = model.evaluate(req);
          for (std::size_t i = 0; i < idx.size(); ++i) {
            const double sim = r.at(t, m, idx[i]).ipc;
            err += std::fabs(resp.results[i].ipc - sim) / sim;
            ++n;
          }
        }
      }
    }
    report["model_ipc_err_pct"] = n > 0 ? 100.0 * err / static_cast<double>(n) : 0.0;
  }

  MetricMap per_layer;
  std::vector<std::string> spans_docs;
  if (args.trace) {
    std::vector<MetricMap> passes;
    while (passes.empty() || seconds_since(start) < args.seconds) {
      TracedPass pass = traced_pass(*prep, args, clients, first, &tally);
      spans_docs.push_back(std::move(pass.spans_json));
      passes.push_back(std::move(pass.metrics));
    }
    for (const MetricDef& def : per_layer_metrics()) {
      std::vector<double> v;
      for (const MetricMap& p : passes) {
        const auto it = p.find(def.name);
        if (it != p.end()) v.push_back(it->second);
      }
      if (!v.empty()) per_layer[def.name] = median(v);
    }
    const double untraced = median(unit_cpu);
    per_layer["bench.untraced_cpu_s"] = untraced;
    per_layer["bench.trace_overhead_pct"] =
        untraced > 0 ? 100.0 * (per_layer["bench.traced_cpu_s"] / untraced - 1.0) : 0.0;
    // Report figures that are not host CPU times travel as ungated
    // per-layer metrics (0 where the workload does not measure them).
    for (const auto& [layer_name, report_name] :
         {std::pair{"exec.rerun_ms", "rerun_ms"}, {"net.get_p50_us", "get_p50_us"},
          {"net.get_p99_us", "get_p99_us"}, {"net.get_per_s", "get_per_s"},
          {"net.get_samples", "get_samples"}, {"check.fig5c_mae_pp", "fig5c_mae_pp"},
          {"check.fig7c_mae_pp", "fig7c_mae_pp"},
          {"check.model_ipc_err_pct", "model_ipc_err_pct"}}) {
      const auto it = report.find(report_name);
      per_layer[layer_name] = it == report.end() ? 0.0 : it->second;
    }
    if (!args.spans_out.empty()) {
      std::ofstream f(args.spans_out, std::ios::trunc);
      f << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
        << ",\"passes\":[";
      for (std::size_t i = 0; i < spans_docs.size(); ++i) {
        std::string doc = spans_docs[i];
        while (!doc.empty() && doc.back() == '\n') doc.pop_back();
        f << (i ? "," : "") << doc;
      }
      f << "]}\n";
    }
  }
  report["ops_failed_frac"] =
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 0.0;

  std::string line = "{\"report\":{\"workload\":\"" + args.workload +
                     "\",\"seed\":" + std::to_string(args.seed) +
                     ",\"digest\":\"" + digest + "\",\"pinned\":" +
                     (pin.empty() ? "false" : "true");
  for (const auto& [name, value] : report) {
    line += ",\"" + name + "\":";
    append_number(&line, value);
  }
  out << line << "}}\n";

  const bool correct = tally.failed == 0;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
      << ",\"metrics\":"
      << (args.trace ? metrics_json(per_layer_metrics(), per_layer)
                     : metrics_json(end_to_end_metrics(), report))
      << "}\n";
  out.flush();
  return correct ? 0 : 1;
}

int pin_digests(Args args, std::uint64_t first, std::uint64_t last,
                const std::string& golden_dir, std::ostream& out) {
  const unsigned clients = get_connections();
  const std::string& workload = args.workload;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    args.seed = seed;
    Tally tally;
    std::unique_ptr<Prepared> prep = set_up(args, 0, &tally);
    if (!prep) return 1;
    const Rep rep = run_rep(*prep, args, clients, 0, &tally);
    if (workload == "sim-ideal" && seed == 0) {
      for (std::size_t gi = 0; gi < prep->workload.grids.size(); ++gi) {
        const NamedGrid& ng = prep->workload.grids[gi];
        std::ifstream in(golden_dir + "/" + ng.name + ".json");
        std::ostringstream golden;
        golden << in.rdbuf();
        if (!in || golden.str() != render_results(ng.name, rep.results[gi])) {
          tally.fail(rep.results[gi].num_points(),
                     ng.name + " does not match its golden fixture");
        }
      }
    }
    if (tally.failed > 0) return 1;
    out << workload << " " << seed << " " << join(rep.digests) << "\n";
    out.flush();
  }
  return 0;
}

}  // namespace perfbench
