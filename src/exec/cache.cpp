#include "exec/cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace vcsteer::exec {

namespace {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void write_sim_stats(FieldWriter& w, std::string_view prefix,
                     const sim::SimStats& s) {
  auto f = [&](std::string_view name, std::uint64_t v) {
    w.field(std::string(prefix) + std::string(name), v);
  };
  f("cycles", s.cycles);
  f("committed_uops", s.committed_uops);
  f("dispatched_uops", s.dispatched_uops);
  f("copies_generated", s.copies_generated);
  f("alloc_stalls", s.alloc_stalls);
  f("policy_stalls", s.policy_stalls);
  f("rob_stalls", s.rob_stalls);
  f("lsq_stalls", s.lsq_stalls);
  f("copyq_stalls", s.copyq_stalls);
  f("copy_bandwidth_stalls", s.copy_bandwidth_stalls);
  f("regfile_stalls", s.regfile_stalls);
  f("frontend_empty", s.frontend_empty);
  f("copies_routed", s.copies_routed);
  f("copy_hops", s.copy_hops);
  f("link_busy_cycles", s.link_busy_cycles);
  f("link_contention_cycles", s.link_contention_cycles);
  f("avoided_contended_links", s.avoided_contended_links);
  for (std::uint32_t c = 0; c < sim::kMaxClusters; ++c) {
    f("dispatched_to." + std::to_string(c), s.dispatched_to[c]);
    f("occupancy_sum." + std::to_string(c), s.occupancy_sum[c]);
    f("copyq_occupancy_sum." + std::to_string(c), s.copyq_occupancy_sum[c]);
    f("remote_steers_by_hops." + std::to_string(c), s.remote_steers_by_hops[c]);
  }
  f("memory.loads", s.memory.loads);
  f("memory.stores", s.memory.stores);
  f("memory.l1_hits", s.memory.l1_hits);
  f("memory.l1_misses", s.memory.l1_misses);
  f("memory.l2_hits", s.memory.l2_hits);
  f("memory.l2_misses", s.memory.l2_misses);
  f("memory.port_wait_cycles", s.memory.port_wait_cycles);
}

/// Parsed `name=value` lines of a cache file.
using FieldMap = std::map<std::string, std::string, std::less<>>;

bool parse_fields(std::istream& is, FieldMap* out) {
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return false;
    (*out)[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return true;
}

// Strict numeric parsing: the whole value must be consumed and in range.
// A lenient strtoull/strtod would decode "12x9" as 12 and "" as 0 — a
// garbled entry silently becoming a plausible result instead of kCorrupt.

bool parse_u64_strict(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;  // no ws/sign
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_double_strict(const std::string& s, double* out) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;  // strtod would skip leading whitespace
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool get_u64(const FieldMap& m, std::string_view name, std::uint64_t* out) {
  const auto it = m.find(name);
  if (it == m.end()) return false;
  return parse_u64_strict(it->second, out);
}

bool get_double(const FieldMap& m, std::string_view name, double* out) {
  const auto it = m.find(name);
  if (it == m.end()) return false;
  return parse_double_strict(it->second, out);
}

bool get_string(const FieldMap& m, std::string_view name, std::string* out) {
  const auto it = m.find(name);
  if (it == m.end()) return false;
  *out = it->second;
  return true;
}

bool read_sim_stats(const FieldMap& m, std::string_view prefix,
                    sim::SimStats* s) {
  auto f = [&](std::string_view name, std::uint64_t* v) {
    return get_u64(m, std::string(prefix) + std::string(name), v);
  };
  bool ok = f("cycles", &s->cycles) && f("committed_uops", &s->committed_uops) &&
            f("dispatched_uops", &s->dispatched_uops) &&
            f("copies_generated", &s->copies_generated) &&
            f("alloc_stalls", &s->alloc_stalls) &&
            f("policy_stalls", &s->policy_stalls) &&
            f("rob_stalls", &s->rob_stalls) && f("lsq_stalls", &s->lsq_stalls) &&
            f("copyq_stalls", &s->copyq_stalls) &&
            f("copy_bandwidth_stalls", &s->copy_bandwidth_stalls) &&
            f("regfile_stalls", &s->regfile_stalls) &&
            f("frontend_empty", &s->frontend_empty) &&
            f("copies_routed", &s->copies_routed) &&
            f("copy_hops", &s->copy_hops) &&
            f("link_busy_cycles", &s->link_busy_cycles) &&
            f("link_contention_cycles", &s->link_contention_cycles) &&
            f("avoided_contended_links", &s->avoided_contended_links);
  for (std::uint32_t c = 0; ok && c < sim::kMaxClusters; ++c) {
    ok = f("dispatched_to." + std::to_string(c), &s->dispatched_to[c]) &&
         f("occupancy_sum." + std::to_string(c), &s->occupancy_sum[c]) &&
         f("copyq_occupancy_sum." + std::to_string(c),
           &s->copyq_occupancy_sum[c]) &&
         f("remote_steers_by_hops." + std::to_string(c),
           &s->remote_steers_by_hops[c]);
  }
  return ok && f("memory.loads", &s->memory.loads) &&
         f("memory.stores", &s->memory.stores) &&
         f("memory.l1_hits", &s->memory.l1_hits) &&
         f("memory.l1_misses", &s->memory.l1_misses) &&
         f("memory.l2_hits", &s->memory.l2_hits) &&
         f("memory.l2_misses", &s->memory.l2_misses) &&
         f("memory.port_wait_cycles", &s->memory.port_wait_cycles);
}

}  // namespace

FieldWriter& FieldWriter::field(std::string_view name, std::string_view value) {
  text_.append(name);
  text_.push_back('=');
  text_.append(value);
  text_.push_back('\n');
  return *this;
}

FieldWriter& FieldWriter::field(std::string_view name, double value) {
  return field(name, format_double(value));
}

FieldWriter& FieldWriter::field(std::string_view name, std::uint64_t value) {
  return field(name, std::to_string(value));
}

FieldWriter& FieldWriter::field(std::string_view name, std::int64_t value) {
  return field(name, std::to_string(value));
}

std::string cache_key(const workload::WorkloadProfile& p,
                      const MachineConfig& m, const harness::SchemeSpec& spec,
                      const harness::SimBudget& budget,
                      std::string_view custom_tag,
                      std::string_view source) {
  FieldWriter w;
  w.field("format", std::uint64_t{5});  // 5: + eval.source namespace + result source field
  w.field("eval.source", source);
  // Workload profile — every generator input.
  w.field("profile.name", p.name);
  w.field("profile.is_fp", std::uint64_t{p.is_fp});
  w.field("profile.num_blocks", std::uint64_t{p.num_blocks});
  w.field("profile.min_block_uops", std::uint64_t{p.min_block_uops});
  w.field("profile.max_block_uops", std::uint64_t{p.max_block_uops});
  w.field("profile.ilp_chains", p.ilp_chains);
  w.field("profile.chain_bias", p.chain_bias);
  w.field("profile.cross_block_reuse", p.cross_block_reuse);
  w.field("profile.loop_carried_deps", std::uint64_t{p.loop_carried_deps});
  w.field("profile.fp_fraction", p.fp_fraction);
  w.field("profile.load_fraction", p.load_fraction);
  w.field("profile.store_fraction", p.store_fraction);
  w.field("profile.mul_fraction", p.mul_fraction);
  w.field("profile.div_fraction", p.div_fraction);
  w.field("profile.working_set_kb", std::uint64_t{p.working_set_kb});
  w.field("profile.stride_fraction", p.stride_fraction);
  w.field("profile.pointer_chase", p.pointer_chase);
  w.field("profile.loop_backedge_prob", p.loop_backedge_prob);
  w.field("profile.phase_count", std::uint64_t{p.phase_count});
  w.field("profile.phase_length_kuops", std::uint64_t{p.phase_length_kuops});
  w.field("profile.seed_salt", p.seed_salt);
  // Machine — every architectural parameter of Table 2.
  w.field("machine.fetch_width", std::uint64_t{m.fetch_width});
  w.field("machine.fetch_to_dispatch", std::uint64_t{m.fetch_to_dispatch});
  w.field("machine.decode_width_int", std::uint64_t{m.decode_width_int});
  w.field("machine.decode_width_fp", std::uint64_t{m.decode_width_fp});
  w.field("machine.rob_int_entries", std::uint64_t{m.rob_int_entries});
  w.field("machine.rob_fp_entries", std::uint64_t{m.rob_fp_entries});
  w.field("machine.commit_width_int", std::uint64_t{m.commit_width_int});
  w.field("machine.commit_width_fp", std::uint64_t{m.commit_width_fp});
  w.field("machine.num_clusters", std::uint64_t{m.num_clusters});
  w.field("machine.iq_int_entries", std::uint64_t{m.iq_int_entries});
  w.field("machine.iq_fp_entries", std::uint64_t{m.iq_fp_entries});
  w.field("machine.iq_copy_entries", std::uint64_t{m.iq_copy_entries});
  w.field("machine.issue_width_int", std::uint64_t{m.issue_width_int});
  w.field("machine.issue_width_fp", std::uint64_t{m.issue_width_fp});
  w.field("machine.issue_width_copy", std::uint64_t{m.issue_width_copy});
  w.field("machine.regfile_int", std::uint64_t{m.regfile_int});
  w.field("machine.regfile_fp", std::uint64_t{m.regfile_fp});
  w.field("machine.link_latency", std::uint64_t{m.interconnect.link_latency});
  w.field("machine.copies_per_link_cycle",
          std::uint64_t{m.interconnect.copies_per_link_cycle});
  w.field("machine.topology",
          std::uint64_t{static_cast<unsigned>(m.interconnect.kind)});
  w.field("machine.steer.topology_aware",
          std::uint64_t{m.steer.topology_aware});
  w.field("machine.steer.contention_weight", m.steer.contention_weight);
  for (const auto& [tag, cache] :
       {std::pair<const char*, const CacheConfig&>{"l1d", m.l1d},
        std::pair<const char*, const CacheConfig&>{"l2", m.l2}}) {
    const std::string base = std::string("machine.") + tag + ".";
    w.field(base + "size_bytes", std::uint64_t{cache.size_bytes});
    w.field(base + "associativity", std::uint64_t{cache.associativity});
    w.field(base + "line_bytes", std::uint64_t{cache.line_bytes});
    w.field(base + "hit_latency", std::uint64_t{cache.hit_latency});
  }
  w.field("machine.memory_latency", std::uint64_t{m.memory_latency});
  w.field("machine.lsq_entries", std::uint64_t{m.lsq_entries});
  w.field("machine.l1_read_ports", std::uint64_t{m.l1_read_ports});
  w.field("machine.l1_write_ports", std::uint64_t{m.l1_write_ports});
  w.field("machine.op_occupancy_threshold", m.op_occupancy_threshold);
  // Scheme + budget.
  w.field("scheme.scheme", std::uint64_t{static_cast<unsigned>(spec.scheme)});
  w.field("scheme.num_vcs", std::uint64_t{spec.num_vcs});
  w.field("scheme.vc_min_leader_chain", std::uint64_t{spec.vc_min_leader_chain});
  w.field("scheme.custom_tag", custom_tag);
  w.field("budget.total_uops", budget.total_uops);
  w.field("budget.interval_uops", budget.interval_uops);
  w.field("budget.max_phases", std::uint64_t{budget.max_phases});
  return w.text();
}

ResultCache::ResultCache(std::string dir,
                         std::uint64_t (*hash_fn)(std::string_view))
    : dir_(std::move(dir)), hash_fn_(hash_fn) {
  VCSTEER_CHECK_MSG(!dir_.empty(), "ResultCache needs a directory");
  std::filesystem::create_directories(dir_);
}

std::uint64_t ResultCache::hash_of(const std::string& key) const {
  return hash_fn_ != nullptr ? hash_fn_(key) : hash_seed(key);
}

std::string ResultCache::path_for(const std::string& key,
                                  unsigned probe) const {
  char name[40];
  if (probe == 0) {
    std::snprintf(name, sizeof(name), "%016" PRIx64 ".result", hash_of(key));
  } else {
    std::snprintf(name, sizeof(name), "%016" PRIx64 ".c%u.result",
                  hash_of(key), probe);
  }
  return dir_ + "/" + name;
}

namespace {

/// What one probe path holds relative to a probe key.
enum class EntryProbe {
  kAbsent,      ///< no file at this path
  kOurs,        ///< stored key matches; `rest` holds the result text
  kOther,       ///< a complete key section that belongs to a colliding key
  kUnreadable,  ///< truncated/garbled key section — cannot tell whose
};

EntryProbe probe_entry(const std::string& path, const std::string& key,
                       std::string* rest) {
  std::ifstream in(path);
  if (!in) return EntryProbe::kAbsent;
  // The file is "<key lines> -- <result lines>"; the key section must match
  // the probe exactly, else this slot belongs to a hash collision (or is a
  // stale format, which reads as kOther and ages out unused).
  std::string line, stored_key;
  bool found_sep = false;
  while (std::getline(in, line)) {
    if (line == "--") {
      found_sep = true;
      break;
    }
    stored_key += line;
    stored_key += '\n';
  }
  if (!found_sep) return EntryProbe::kUnreadable;
  if (stored_key != key) return EntryProbe::kOther;
  if (rest != nullptr) {
    rest->assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  return EntryProbe::kOurs;
}

}  // namespace

CacheLookup ResultCache::lookup_text(const std::string& key,
                                     std::string* text) const {
  // Walk the collision chain. store_text() always publishes into the
  // lowest non-kOther slot, so the first absent path proves the key is not
  // stored anywhere — no gap can hide a later entry.
  for (unsigned probe = 0; probe < kMaxCollisionProbes; ++probe) {
    switch (probe_entry(path_for(key, probe), key, text)) {
      case EntryProbe::kAbsent:
        return CacheLookup::kMiss;
      case EntryProbe::kOurs:
        return CacheLookup::kHit;
      case EntryProbe::kUnreadable:
        // A file exists where this key would live but cannot be attributed:
        // corrupt, not a miss. Deliberately NOT deleted here: the caller
        // re-simulates and store() atomically renames the good entry over
        // it, while a remove() could race a concurrent process that already
        // re-published the point and destroy its fresh entry.
        return CacheLookup::kCorrupt;
      case EntryProbe::kOther:
        continue;  // hash collision: probe the next suffixed sibling
    }
  }
  return CacheLookup::kMiss;
}

CacheLookup ResultCache::lookup(const std::string& key,
                                harness::RunResult* out) const {
  std::string text;
  const CacheLookup looked = lookup_text(key, &text);
  if (looked != CacheLookup::kHit) return looked;
  // Undecodable result text under a matching key is a corrupt entry
  // (truncated/garbled value section), never a silent zero-filled hit.
  return decode_result(text, out) ? CacheLookup::kHit : CacheLookup::kCorrupt;
}

bool decode_result(const std::string& text, harness::RunResult* out) {
  std::istringstream in(text);
  FieldMap fields;
  if (!parse_fields(in, &fields)) return false;
  harness::RunResult r;
  if (!get_string(fields, "trace", &r.trace) ||
      !get_string(fields, "scheme", &r.scheme) ||
      !get_string(fields, "source", &r.source) ||
      !get_double(fields, "ipc", &r.ipc) ||
      !get_double(fields, "copies_per_kuop", &r.copies_per_kuop) ||
      !get_double(fields, "alloc_stalls_per_kuop", &r.alloc_stalls_per_kuop) ||
      !get_double(fields, "policy_stalls_per_kuop",
                  &r.policy_stalls_per_kuop) ||
      !get_double(fields, "copy_hops_per_kuop", &r.copy_hops_per_kuop) ||
      !get_double(fields, "link_contention_per_kuop",
                  &r.link_contention_per_kuop) ||
      !get_double(fields, "avoided_contended_per_kuop",
                  &r.avoided_contended_per_kuop) ||
      !get_u64(fields, "committed_uops", &r.committed_uops) ||
      !get_u64(fields, "cycles", &r.cycles) ||
      !get_u64(fields, "num_points", &r.num_points) ||
      !read_sim_stats(fields, "last_interval.", &r.last_interval)) {
    return false;  // truncated/garbled inside the result section
  }
  // Readers index the per-cluster arrays up to num_clusters, so a count
  // beyond them is corrupt, not something to truncate or trust.
  std::uint64_t num_clusters = 0;
  if (!get_u64(fields, "num_clusters", &num_clusters) ||
      num_clusters > sim::kMaxClusters) {
    return false;
  }
  r.num_clusters = static_cast<std::uint32_t>(num_clusters);
  for (std::uint32_t c = 0; c < sim::kMaxClusters; ++c) {
    const std::string idx = std::to_string(c);
    if (!get_double(fields, "avg_iq_occupancy." + idx,
                    &r.avg_iq_occupancy[c]) ||
        !get_double(fields, "avg_copyq_occupancy." + idx,
                    &r.avg_copyq_occupancy[c]) ||
        !get_u64(fields, "steered_with_copy." + idx,
                 &r.steered_with_copy[c]) ||
        !get_u64(fields, "steered_local." + idx, &r.steered_local[c])) {
      return false;
    }
    for (std::uint32_t b = 0; b < sim::kOccupancyBuckets; ++b) {
      if (!get_u64(fields,
                   "iq_occupancy_hist." + idx + "." + std::to_string(b),
                   &r.iq_occupancy_hist[c][b])) {
        return false;
      }
    }
  }
  *out = std::move(r);
  return true;
}

std::string encode_result(const harness::RunResult& result) {
  FieldWriter w;
  w.field("trace", result.trace);
  w.field("scheme", result.scheme);
  w.field("source", result.source);
  w.field("ipc", result.ipc);
  w.field("copies_per_kuop", result.copies_per_kuop);
  w.field("alloc_stalls_per_kuop", result.alloc_stalls_per_kuop);
  w.field("policy_stalls_per_kuop", result.policy_stalls_per_kuop);
  w.field("copy_hops_per_kuop", result.copy_hops_per_kuop);
  w.field("link_contention_per_kuop", result.link_contention_per_kuop);
  w.field("avoided_contended_per_kuop", result.avoided_contended_per_kuop);
  w.field("committed_uops", result.committed_uops);
  w.field("cycles", result.cycles);
  w.field("num_points", result.num_points);
  write_sim_stats(w, "last_interval.", result.last_interval);
  w.field("num_clusters", std::uint64_t{result.num_clusters});
  for (std::uint32_t c = 0; c < sim::kMaxClusters; ++c) {
    const std::string idx = std::to_string(c);
    w.field("avg_iq_occupancy." + idx, result.avg_iq_occupancy[c]);
    w.field("avg_copyq_occupancy." + idx, result.avg_copyq_occupancy[c]);
    w.field("steered_with_copy." + idx, result.steered_with_copy[c]);
    w.field("steered_local." + idx, result.steered_local[c]);
    for (std::uint32_t b = 0; b < sim::kOccupancyBuckets; ++b) {
      w.field("iq_occupancy_hist." + idx + "." + std::to_string(b),
              result.iq_occupancy_hist[c][b]);
    }
  }
  return w.text();
}

void ResultCache::store(const std::string& key,
                        const harness::RunResult& result) const {
  store_text(key, encode_result(result));
}

void ResultCache::store_text(const std::string& key,
                             const std::string& text) const {
  // Pick the publish slot: the lowest probe path that is absent, already
  // ours, or unreadable (corrupt entries are replaceable — their owner will
  // re-simulate either way). Slots holding a *different* valid key are
  // skipped, so two hash-colliding keys stop evicting each other; if every
  // slot in the bounded chain belongs to someone else, the last one is
  // overwritten rather than growing the directory without bound.
  unsigned target = kMaxCollisionProbes - 1;
  for (unsigned probe = 0; probe < kMaxCollisionProbes; ++probe) {
    if (probe_entry(path_for(key, probe), key, nullptr) !=
        EntryProbe::kOther) {
      target = probe;
      break;
    }
  }
  const std::string path = path_for(key, target);
  // Temp name unique per (process, thread): shard *processes* share the
  // cache directory, so a thread id alone could collide across them and
  // interleave two writers' bytes in one tmp file. The write is fsync'd
  // before the rename so the publish is all-or-nothing even if the writer
  // is SIGKILLed or the machine dies mid-store; rename is atomic within
  // the directory.
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "." << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  const std::string payload = key + "--\n" + text;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;  // cache is best-effort; failure to write is a miss later
  std::size_t off = 0;
  bool write_ok = true;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  write_ok = write_ok && ::fsync(fd) == 0;
  ::close(fd);
  std::error_code ec;
  if (!write_ok) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  // Make the rename itself durable: fsync the directory entry.
  const int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace vcsteer::exec
