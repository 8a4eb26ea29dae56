// Shared command-line driver for the figure/ablation benches.
//
// Every bench used to hand-roll the same flag loop; they now share one
// parser and one output path:
//
//   bench [--jobs N] [--smoke|--quick] [--seed S]
//         [--connect ADDR] [--serve ADDR] [--client-id ID]
//         [--cache-dir DIR] [--json FILE] [--summary-json FILE] [--csv]
//
//   --jobs N       worker threads for the sweep (default: all cores; 0 or a
//                  negative value runs serially). Results are bit-identical
//                  for every N (see src/exec/).
//   --smoke        smoke budget + reduced trace set (alias: --quick).
//   --seed S       extra salt mixed into every workload seed.
//   --connect ADDR lease jobs from a vcsteer-sweepd at ADDR (unix:/path or
//                  [tcp:]host:port): this process pulls (trace, machine)
//                  jobs until the sweep drains, then assembles the full
//                  result set from the server's store, so every client
//                  writes byte-identical --json output. Results live
//                  server-side: no --cache-dir. This is the one way to
//                  spread a sweep over processes or hosts; a worker that
//                  dies has its lease expire back onto the queue.
//   --serve ADDR   own the service lifecycle: spawn a vcsteer-sweepd sibling
//                  binary on ADDR (over --cache-dir), pull jobs itself
//                  alongside any --connect workers, and shut the daemon
//                  down at the end. The summary JSON's `net.workers`
//                  carries the per-worker jobs-pulled tallies from the
//                  server.
//   --client-id ID this worker's name in lease stats (default: wpid<pid>).
//   --cache-dir D  on-disk result cache; warm re-runs skip simulation.
//   --progress     per-job heartbeat lines on stderr (done/total, elapsed,
//                  ETA) for long in-process sweeps, routed through
//                  common/log.hpp at info level. VCSTEER_LOG=info|debug in
//                  the environment enables the same verbosity without the
//                  flag (error|warn quieten it).
//   --prune-model K
//                  two-stage pruned search: score every grid point with the
//                  analytical critical-path model (src/model/), then simulate
//                  only the top-K (machine, scheme) configs. The simulated
//                  frontier is byte-identical to an unpruned run; the rest of
//                  the grid carries model estimates tagged source == "model".
//                  Needs the whole grid in one process, so it cannot be
//                  combined with --connect/--serve.
//   --json FILE    write raw results + all tables as one JSON document.
//   --summary-json FILE
//                  machine-readable run summary (sweep counters, wall time,
//                  service tallies, parsed-option echo) for CI gates — see
//                  exec::RunSummary.
//   --csv          print tables as CSV instead of aligned text.
//
// All of the above — the parse loop, the generated --help text, and the
// "options" echo in the --summary-json — are driven by ONE declarative
// table (OptionSpec / option_table() below). Adding a flag means adding one
// table entry; unknown flags are a hard error, never pass-through.
//
// Test-only crash injection: VCSTEER_TEST_CRASH_AFTER=N in the environment
// makes the process SIGKILL itself after N finished jobs of a sweep, in any
// mode (the service gate uses it to kill a --connect worker mid-lease).
//
// Usage pattern:
//   bench::Options opt = bench::parse_args(argc, argv, "fig5_twocluster");
//   bench::Output out(opt);
//   exec::SweepResult sweep = out.run(grid);
//   out.add(derived_table);     // prints (text or CSV) + into the JSON
//   return out.finish();        // writes --json/--summary-json files
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "harness/experiment.hpp"
#include "net/client.hpp"

namespace vcsteer::bench {

struct Options {
  std::string bench_name;
  std::string exe;  // argv[0]; --serve finds vcsteer-sweepd next to it
  unsigned jobs = exec::ThreadPool::default_jobs();
  bool smoke = false;
  bool csv = false;
  bool progress = false;  // --progress: per-job heartbeat on stderr
  std::uint64_t seed = 0;
  std::string cache_dir;
  std::string connect;    // --connect: lease jobs from this sweepd address
  std::string serve;      // --serve: spawn a sweepd on this address first
  std::string client_id;  // --client-id: name in server lease stats
  std::size_t prune_model = 0;  // --prune-model K: top-K configs simulated
  std::string json_path;
  std::string summary_json_path;

  harness::SimBudget budget() const {
    return smoke ? harness::SimBudget::smoke() : harness::SimBudget{};
  }

  /// The id this process leases under; --client-id pins it for tests.
  std::string effective_client_id() const {
    return client_id.empty() ? "wpid" + std::to_string(::getpid())
                             : client_id;
  }

  /// Path of the vcsteer-sweepd binary --serve spawns: a sibling of the
  /// bench executable (both live in the build directory).
  std::string sweepd_path() const {
    const std::size_t slash = exe.rfind('/');
    return slash == std::string::npos ? "vcsteer-sweepd"
                                      : exe.substr(0, slash + 1) + "vcsteer-sweepd";
  }

  /// Sweep options with a stderr dot per finished (trace, machine) job —
  /// plus, with --progress (or VCSTEER_LOG=info), a heartbeat line with
  /// done/total, elapsed seconds and a linear ETA.
  exec::SweepOptions sweep_options() const {
    exec::SweepOptions opt;
    opt.jobs = jobs;
    opt.cache_dir = cache_dir;
    opt.seed_salt = seed;
    opt.prune_top_k = prune_model;
    // VCSTEER_TEST_CRASH_AFTER=N: SIGKILL after N finished jobs (0: never).
    const char* crash_env = std::getenv("VCSTEER_TEST_CRASH_AFTER");
    opt.progress = [crash_after = crash_env != nullptr
                                      ? std::strtoul(crash_env, nullptr, 10)
                                      : 0UL,
                    t0 = std::chrono::steady_clock::now()](std::size_t done,
                                                           std::size_t total) {
      std::fputc('.', stderr);
      if (done == total) std::fputc('\n', stderr);
      // The heartbeat goes through the leveled logger: --progress raised
      // the level to info in parse_args, and VCSTEER_LOG can do the same
      // (or silence it) from the environment.
      if (static_cast<int>(log_level()) >=
          static_cast<int>(LogLevel::kInfo)) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const double eta =
            done > 0 ? elapsed * static_cast<double>(total - done) /
                           static_cast<double>(done)
                     : 0.0;
        VCSTEER_LOG_INFO("progress %zu/%zu jobs, %.1fs elapsed, ~%.1fs left",
                         done, total, elapsed, eta);
      }
      if (crash_after != 0 && done >= crash_after) {
        std::fflush(nullptr);
        std::raise(SIGKILL);
      }
    };
    return opt;
  }
};

/// A parse error: one message, a --help hint, exit 2. The option table's
/// apply hooks use this too, so every bad invocation fails the same way.
[[noreturn]] inline void parse_fail(const Options& opt,
                                    const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n", opt.bench_name.c_str(), msg.c_str());
  std::fprintf(stderr, "%s: run with --help for the flag list\n",
               opt.bench_name.c_str());
  std::exit(2);
}

/// One command-line flag of the shared bench driver. A single table of
/// these (option_table()) drives everything that used to be maintained in
/// triplicate: the parse loop, the generated --help text, and the "options"
/// echo in the --summary-json. `apply` and `echo` are plain function
/// pointers so the table itself stays a static literal.
struct OptionSpec {
  const char* name;   ///< primary spelling, e.g. "--jobs"
  const char* alias;  ///< alternate spelling or nullptr, e.g. "--quick"
  const char* arg;    ///< value metavar, or nullptr for boolean flags
  const char* help;   ///< one-line description for --help
  /// Parses the consumed value into `opt` (`value` is nullptr for boolean
  /// flags). Rejects bad values via parse_fail().
  void (*apply)(Options& opt, const char* value);
  /// Renders the *final* value for the summary echo ("true"/"false" for
  /// flags, "" for unset strings) — a summary is self-describing about the
  /// invocation that produced it.
  std::string (*echo)(const Options& opt);
};

inline const std::vector<OptionSpec>& option_table() {
  static const std::vector<OptionSpec> specs = {
      {"--jobs", nullptr, "N",
       "worker threads for the sweep (default: all cores); results are "
       "bit-identical for every N",
       [](Options& o, const char* v) {
         // strtol alone would read "abc" as 0 (serial) and "4x" as 4.
         char* end = nullptr;
         const long jobs = std::strtol(v, &end, 10);
         if (end == v || *end != '\0' ||
             std::isspace(static_cast<unsigned char>(v[0]))) {
           parse_fail(o, "--jobs expects an integer, got '" + std::string(v) +
                             "'");
         }
         // Clamp: negatives/0 mean serial, and there is no point spawning
         // more workers than any realistic grid has jobs.
         o.jobs = static_cast<unsigned>(std::clamp(jobs, 1L, 512L));
       },
       [](const Options& o) { return std::to_string(o.jobs); }},
      {"--smoke", "--quick", nullptr, "smoke budget + reduced trace set",
       [](Options& o, const char*) { o.smoke = true; },
       [](const Options& o) -> std::string {
         return o.smoke ? "true" : "false";
       }},
      {"--seed", nullptr, "S", "extra salt mixed into every workload seed",
       [](Options& o, const char* v) {
         // strtoull alone would read "abc" as 0 and wrap "-1" silently.
         char* end = nullptr;
         errno = 0;
         const unsigned long long seed = std::strtoull(v, &end, 10);
         if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
             errno == ERANGE) {
           parse_fail(o, "--seed expects a non-negative integer, got '" +
                             std::string(v) + "'");
         }
         o.seed = seed;
       },
       [](const Options& o) { return std::to_string(o.seed); }},
      {"--cache-dir", nullptr, "DIR",
       "on-disk result cache; warm re-runs skip simulation",
       [](Options& o, const char* v) { o.cache_dir = v; },
       [](const Options& o) { return o.cache_dir; }},
      {"--connect", nullptr, "ADDR",
       "lease jobs from a vcsteer-sweepd at ADDR (unix:/path or host:port)",
       [](Options& o, const char* v) { o.connect = v; },
       [](const Options& o) { return o.connect; }},
      {"--serve", nullptr, "ADDR",
       "spawn a vcsteer-sweepd on ADDR, lease jobs from it, shut it down "
       "at the end",
       [](Options& o, const char* v) { o.serve = v; },
       [](const Options& o) { return o.serve; }},
      {"--client-id", nullptr, "ID",
       "this worker's name in server lease stats (default: wpid<pid>)",
       [](Options& o, const char* v) { o.client_id = v; },
       [](const Options& o) { return o.client_id; }},
      {"--prune-model", nullptr, "K",
       "two-stage pruned search: model-score every point, simulate only the "
       "top-K (machine, scheme) configs",
       [](Options& o, const char* v) {
         char* end = nullptr;
         const long k = std::strtol(v, &end, 10);
         if (end == v || *end != '\0' || k < 1) {
           parse_fail(o, "--prune-model expects a frontier size K >= 1, "
                         "got '" +
                             std::string(v) + "'");
         }
         o.prune_model = static_cast<std::size_t>(k);
       },
       [](const Options& o) { return std::to_string(o.prune_model); }},
      {"--json", nullptr, "FILE",
       "write raw results + all tables as one JSON document",
       [](Options& o, const char* v) { o.json_path = v; },
       [](const Options& o) { return o.json_path; }},
      {"--summary-json", nullptr, "FILE",
       "machine-readable run summary for CI gates (exec::RunSummary)",
       [](Options& o, const char* v) { o.summary_json_path = v; },
       [](const Options& o) { return o.summary_json_path; }},
      {"--csv", nullptr, nullptr,
       "print tables as CSV instead of aligned text",
       [](Options& o, const char*) { o.csv = true; },
       [](const Options& o) -> std::string {
         return o.csv ? "true" : "false";
       }},
      {"--progress", nullptr, nullptr,
       "per-job heartbeat lines on stderr (done/total, elapsed, ETA)",
       [](Options& o, const char*) {
         o.progress = true;
         // The heartbeat rides the info level; never lower an env-raised
         // one.
         if (static_cast<int>(log_level()) <
             static_cast<int>(LogLevel::kInfo)) {
           set_log_level(LogLevel::kInfo);
         }
       },
       [](const Options& o) -> std::string {
         return o.progress ? "true" : "false";
       }},
  };
  return specs;
}

/// --help text, generated from the option table (exit 0); also the epitaph
/// of a bad invocation (exit 2).
[[noreturn]] inline void usage(const std::string& bench_name, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: %s [flags]\n\nflags:\n", bench_name.c_str());
  for (const OptionSpec& s : option_table()) {
    std::string head = s.name;
    if (s.arg != nullptr) {
      head += ' ';
      head += s.arg;
    }
    if (s.alias != nullptr) {
      head += " (alias ";
      head += s.alias;
      head += ')';
    }
    std::fprintf(out, "  %-22s %s\n", head.c_str(), s.help);
  }
  std::exit(code);
}

/// The "options" section of the --summary-json: every table entry's final
/// value under its flag name without the leading dashes, in table order.
inline std::vector<std::pair<std::string, std::string>> echo_options(
    const Options& opt) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const OptionSpec& s : option_table()) {
    out.emplace_back(s.name + 2, s.echo(opt));
  }
  return out;
}

inline Options parse_args(int argc, char** argv, std::string bench_name) {
  Options opt;
  opt.bench_name = std::move(bench_name);
  opt.exe = argc > 0 ? argv[0] : "";
  init_log_from_env();  // VCSTEER_LOG override applies to every bench
  const std::vector<OptionSpec>& specs = option_table();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(opt.bench_name, 0);
    }
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& s : specs) {
      if (std::strcmp(arg, s.name) == 0 ||
          (s.alias != nullptr && std::strcmp(arg, s.alias) == 0)) {
        spec = &s;
        break;
      }
    }
    if (spec == nullptr) {
      parse_fail(opt, std::string("unknown flag ") + arg);
    }
    const char* value = nullptr;
    if (spec->arg != nullptr) {
      if (i + 1 >= argc) {
        parse_fail(opt, std::string(spec->name) + " needs a value");
      }
      value = argv[++i];
    }
    spec->apply(opt, value);
  }
  // Cross-flag validation.
  if (!opt.connect.empty() && !opt.serve.empty()) {
    parse_fail(opt, "--connect and --serve are mutually exclusive");
  }
  if (!opt.connect.empty() && !opt.cache_dir.empty()) {
    parse_fail(opt, "--connect replaces --cache-dir (jobs and results live "
                    "on the server)");
  }
  if (!opt.serve.empty() && opt.cache_dir.empty()) {
    parse_fail(opt, "--serve requires --cache-dir (the daemon's durable "
                    "result store)");
  }
  // The frontier ranking needs every grid point's model score in one
  // process; a service worker sees only the jobs it leases.
  if (opt.prune_model > 0 && (!opt.connect.empty() || !opt.serve.empty())) {
    parse_fail(opt, "--prune-model needs the whole grid in one process; it "
                    "cannot be combined with --connect/--serve");
  }
  return opt;
}

/// A spawned vcsteer-sweepd under --serve: fork/exec'd on construction via
/// start(), SIGTERM'd and reaped on stop(). The daemon must already be
/// accepting connections when start() returns (its listen socket is bound
/// inside the SweepServer constructor, so one successful PING suffices).
class ServerProcess {
 public:
  ~ServerProcess() { stop(); }

  bool start(const Options& opt) {
    const std::string path = opt.sweepd_path();
    std::vector<std::string> argv = {path,        "--listen", opt.serve,
                                     "--cache-dir", opt.cache_dir};
    pid_ = ::fork();
    if (pid_ < 0) {
      std::perror("fork");
      return false;
    }
    if (pid_ == 0) {
      std::vector<char*> cargv;
      cargv.reserve(argv.size() + 1);
      for (std::string& a : argv) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(path.c_str(), cargv.data());
      std::fprintf(stderr, "exec %s failed: %s\n", path.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    // Readiness probe: the daemon binds before serving, so the first PING
    // that gets through (the client reconnect-retries) proves liveness.
    net::ClientOptions co;
    co.connect = opt.serve;
    co.reconnect_window_s = 10;
    net::StoreClient probe(co);
    if (!probe.ping()) {
      std::fprintf(stderr, "vcsteer-sweepd on %s never answered PING\n",
                   opt.serve.c_str());
      stop();
      return false;
    }
    return true;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Runs the sweep (in-process, or leasing jobs from a sweep service under
/// --connect/--serve), prints tables as they are added (text or CSV per
/// --csv), accumulates everything into a ResultSink, and writes the --json
/// and --summary-json files on finish().
class Output {
 public:
  explicit Output(const Options& opt)
      : opt_(opt),
        sink_(opt.bench_name),
        start_(std::chrono::steady_clock::now()) {}

  /// The whole execution phase of a bench.
  exec::SweepResult run(const exec::SweepGrid& grid) {
    if (!opt_.serve.empty() || !opt_.connect.empty()) {
      return run_networked(grid);
    }
    exec::SweepResult sweep = exec::run_sweep(grid, opt_.sweep_options());
    record(sweep);
    return sweep;
  }

  void add(const stats::Table& table) {
    if (first_) {
      first_ = false;
    } else {
      std::cout << '\n';
    }
    std::cout << (opt_.csv ? table.to_csv() : table.to_text());
    sink_.add_table(table);
  }

  int finish() {
    int rc = 0;
    if (!opt_.json_path.empty()) {
      std::ofstream os(opt_.json_path);
      if (os) {
        sink_.write_json(os);
        os.flush();
      }
      if (!os) {
        std::fprintf(stderr, "%s: cannot write %s\n", opt_.bench_name.c_str(),
                     opt_.json_path.c_str());
        rc = 1;
      }
    }
    // After the --json outcome is known, so the summary's ok never
    // contradicts the exit code.
    finish_summary(/*ok=*/rc == 0);
    return rc;
  }

 private:
  /// The sweep-service execution phase, both roles:
  ///   --serve:   spawn the daemon, lease jobs alongside any --connect
  ///              workers, shut the daemon down.
  ///   --connect: lease jobs from an already-running daemon.
  /// Either way the run ends with an assembly pass that reads the complete
  /// grid back from the server's store, so every participant emits
  /// byte-identical results JSON — the same shape as a local --jobs 1 run.
  exec::SweepResult run_networked(const exec::SweepGrid& grid) {
    net_.enabled = true;
    net_.role = opt_.serve.empty() ? "connect" : "serve";
    net_.server = opt_.serve.empty() ? opt_.connect : opt_.serve;

    if (!opt_.serve.empty() && !server_.start(opt_)) {
      finish_summary(/*ok=*/false);
      std::exit(1);
    }

    net::ClientOptions co;
    co.connect = net_.server;
    net::StoreClient client(co);
    net::NetResultStore store(&client);
    const std::uint64_t sweep_id = exec::grid_fingerprint(grid, opt_.seed);
    const std::size_t njobs = grid.profiles.size() * grid.machines.size();
    net::NetJobQueue queue(&client, sweep_id, njobs,
                           opt_.effective_client_id());

    // Pull pass: lease and simulate jobs until the whole sweep drains
    // (jobs other workers pulled are theirs; expired leases come to us).
    exec::SweepOptions pull_opt = opt_.sweep_options();
    pull_opt.cache_dir.clear();
    pull_opt.store = &store;
    pull_opt.queue = &queue;
    const exec::SweepResult pulled = exec::run_sweep(grid, pull_opt);
    record_execution(pulled);
    // Cells of the jobs leased here: the pull pass filled them (by store
    // hit or simulation), and the assembly pass reads them back.
    std::size_t pulled_points = 0;
    for (const harness::RunResult& r : pulled.points()) {
      if (!r.trace.empty()) ++pulled_points;
    }
    net_.jobs_pulled = pulled.jobs_pulled;
    std::fprintf(stderr, "%s: pulled %zu/%zu jobs from %s\n",
                 opt_.bench_name.c_str(), pulled.jobs_pulled, njobs,
                 net_.server.c_str());

    // Assembly pass: the full grid from the server's store. Cells another
    // worker simulated arrive as hits; if the server is unreachable the
    // missing cells re-simulate locally — slower, still bit-identical.
    exec::SweepOptions assemble = opt_.sweep_options();
    assemble.cache_dir.clear();
    assemble.store = &store;
    exec::SweepResult sweep = exec::run_sweep(grid, assemble);
    // The assembly's read-back of this process's own leased cells is not a
    // hit: those points already counted in the pull pass.
    record(sweep, std::min(pulled_points, sweep.cache_hits));

    client.stats(sweep_id, &net_.workers);
    const net::StoreClient::Counters counters = client.counters();
    net_.gets = counters.gets;
    net_.puts = counters.puts;
    net_.reconnects = counters.reconnects;
    server_.stop();  // no-op in connect mode
    return sweep;
  }

  /// Execution-only counters of a pull-pass sweep. Its *results* are not
  /// recorded — the assembly pass records every point exactly once, so the
  /// JSON output and point totals stay a pure function of the grid.
  void record_execution(const exec::SweepResult& sweep) {
    simulated_ += sweep.simulated;
    cache_hits_ += sweep.cache_hits;
    corrupt_ += sweep.cache_corrupt;
    experiments_ += sweep.experiments;
    trace_builds_ += sweep.trace_builds;
    annotations_ += sweep.annotations;
    sims_reused_ += sweep.sims_reused;
    phases_ += sweep.phases;
    for (const auto& [label, span] : sweep.scheme_simulate_s) {
      schemes_[label].simulate_s += span;
    }
  }

  /// Every point of a complete sweep. `read_back` of its cache hits are
  /// cells this process already counted in a pull pass (see
  /// RunSummary::cache_hits).
  void record(const exec::SweepResult& sweep, std::size_t read_back = 0) {
    sink_.add_sweep(sweep);
    points_ += sweep.num_points();
    simulated_ += sweep.simulated;
    cache_hits_ += sweep.cache_hits - read_back;
    corrupt_ += sweep.cache_corrupt;
    annotations_ += sweep.annotations;
    sims_reused_ += sweep.sims_reused;
    for (const harness::RunResult& r : sweep.points()) {
      uops_ += r.committed_uops;
      cycles_ += r.cycles;
      schemes_[r.scheme].uops += r.committed_uops;
    }
    for (const auto& [label, span] : sweep.scheme_simulate_s) {
      schemes_[label].simulate_s += span;
    }
    experiments_ += sweep.experiments;
    trace_builds_ += sweep.trace_builds;
    traces_ += sweep.num_traces();
    phases_ += sweep.phases;
    if (sweep.model.enabled) {
      // Counters sum across sweeps; the rank-agreement stats describe one
      // frontier, so the last pruned sweep's values stand for the run.
      model_.enabled = true;
      model_.top_k = sweep.model.top_k;
      model_.estimated += sweep.model.estimated;
      model_.walked += sweep.model.walked;
      model_.walks_reused += sweep.model.walks_reused;
      model_.pruned += sweep.model.pruned;
      model_.spearman = sweep.model.spearman;
      model_.top3_overlap = sweep.model.top3_overlap;
    }
    if (!opt_.cache_dir.empty()) {
      std::fprintf(stderr, "%s: %zu points (%zu simulated, %zu cache hits)\n",
                   opt_.bench_name.c_str(), sweep.num_points(),
                   sweep.simulated, sweep.cache_hits);
    }
    if (sweep.cache_corrupt > 0) {
      std::fprintf(stderr, "%s: recovered %zu corrupt cache entr%s by"
                   " re-simulating\n",
                   opt_.bench_name.c_str(), sweep.cache_corrupt,
                   sweep.cache_corrupt == 1 ? "y" : "ies");
    }
  }

  void finish_summary(bool ok) const {
    if (opt_.summary_json_path.empty()) return;
    exec::RunSummary summary;
    summary.bench = opt_.bench_name;
    summary.ok = ok;
    summary.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    summary.points = points_;
    summary.simulated = simulated_;
    summary.cache_hits = cache_hits_;
    summary.corrupt_recovered = corrupt_;
    summary.annotations = annotations_;
    summary.sims_reused = sims_reused_;
    summary.uops = uops_;
    summary.cycles = cycles_;
    summary.experiments = experiments_;
    summary.trace_builds = trace_builds_;
    summary.traces = traces_;
    summary.phases = phases_;
    summary.schemes = schemes_;
    summary.net = net_;
    summary.model = model_;
    summary.options = echo_options(opt_);
    std::ofstream os(opt_.summary_json_path);
    if (os) {
      exec::write_summary_json(os, summary);
      os.flush();
    }
    if (!os) {
      std::fprintf(stderr, "%s: cannot write %s\n", opt_.bench_name.c_str(),
                   opt_.summary_json_path.c_str());
    }
  }

  const Options& opt_;
  exec::ResultSink sink_;
  std::chrono::steady_clock::time_point start_;
  ServerProcess server_;
  exec::RunSummary::NetSummary net_;
  exec::RunSummary::ModelSummary model_;
  std::size_t points_ = 0;
  std::size_t simulated_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t corrupt_ = 0;
  std::size_t annotations_ = 0;
  std::size_t sims_reused_ = 0;
  std::uint64_t uops_ = 0;
  std::uint64_t cycles_ = 0;
  std::size_t experiments_ = 0;
  std::size_t trace_builds_ = 0;
  std::size_t traces_ = 0;
  exec::PhaseSeconds phases_;
  std::map<std::string, exec::RunSummary::SchemeSummary> schemes_;
  bool first_ = true;
};

}  // namespace vcsteer::bench
