// vcsteer-sweepd — the sweep-service daemon.
//
//   vcsteer-sweepd --listen unix:/tmp/sweep.sock --cache-dir /path/cache
//
// Owns the authoritative result cache and the work-stealing lease queues
// for any number of `--connect` sweep clients (see src/net/server.hpp for
// the protocol). SIGINT/SIGTERM shut it down cleanly; SIGKILL at any
// instant is safe — results are fsync-rename durable and lease state is
// deliberately rebuilt from the first LEASE after a restart.
#include <signal.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "net/server.hpp"

namespace {

vcsteer::net::SweepServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen <unix:/path | [tcp:]host:port> --cache-dir DIR\n"
      "          [--lease-timeout SECONDS] [--crash-after-leases N]\n"
      "\n"
      "Sweep-service daemon: serves GET/PUT result-store requests and\n"
      "LEASE/DONE work-stealing job queues to vcsteer bench clients\n"
      "running with --connect. --crash-after-leases is a test knob that\n"
      "SIGKILLs the daemon after granting N leases (crash-recovery gate).\n",
      argv0);
  return 2;
}

/// The longest lease --lease-timeout accepts: a day. The timeout is added
/// to a steady_clock time point, so it must stay finite and far from the
/// clock's range.
constexpr double kMaxLeaseTimeoutS = 86400.0;

/// Strict argv decoding: the whole value must be the number, so "1x",
/// "nan" or " 5" are rejected instead of read as a prefix or as garbage.
bool parse_lease_timeout(const char* v, double* out) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(v[0])) || !std::isfinite(x) ||
      x <= 0 || x > kMaxLeaseTimeoutS) {
    return false;
  }
  *out = x;
  return true;
}

bool parse_count(const char* v, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
      errno == ERANGE) {
    return false;
  }
  *out = x;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  vcsteer::init_log_from_env();
  vcsteer::net::ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      opt.listen = value("--listen");
    } else if (arg == "--cache-dir") {
      opt.cache_dir = value("--cache-dir");
    } else if (arg == "--lease-timeout") {
      const char* v = value("--lease-timeout");
      if (!parse_lease_timeout(v, &opt.lease_timeout_s)) {
        std::fprintf(stderr,
                     "--lease-timeout expects seconds in (0, %g], got '%s'\n",
                     kMaxLeaseTimeoutS, v);
        return 2;
      }
    } else if (arg == "--crash-after-leases") {
      const char* v = value("--crash-after-leases");
      if (!parse_count(v, &opt.crash_after_leases)) {
        std::fprintf(stderr,
                     "--crash-after-leases expects a non-negative integer, "
                     "got '%s'\n",
                     v);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opt.listen.empty() || opt.cache_dir.empty()) return usage(argv[0]);

  vcsteer::net::SweepServer server(opt);
  if (!server.ok()) {
    std::fprintf(stderr, "vcsteer-sweepd: %s\n", server.error().c_str());
    return 1;
  }
  g_server = &server;
  ::signal(SIGINT, handle_signal);
  ::signal(SIGTERM, handle_signal);
  std::fprintf(stderr, "vcsteer-sweepd: serving %s (cache %s)\n",
               opt.listen.c_str(), opt.cache_dir.c_str());
  server.serve();
  std::fprintf(stderr, "vcsteer-sweepd: stopped\n");
  return 0;
}
