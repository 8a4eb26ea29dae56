#include "sim/interconnect.hpp"

#include "common/check.hpp"

namespace vcsteer::sim {
namespace {

class IdealInterconnect final : public Interconnect {
 public:
  explicit IdealInterconnect(const MachineConfig& config)
      : latency_(config.interconnect.link_latency) {}

  std::uint64_t route_copy(std::uint32_t /*from*/, std::uint32_t /*to*/,
                           std::uint64_t cycle) override {
    ++stats_.copies_routed;
    ++stats_.copy_hops;
    ++stats_.link_busy_cycles;
    return cycle + latency_;
  }

  std::uint32_t distance(std::uint32_t from, std::uint32_t to) const override {
    return from == to ? 0 : 1;
  }

  const char* name() const override { return "ideal"; }

 private:
  std::uint32_t latency_;
};

class BusInterconnect final : public Interconnect {
 public:
  explicit BusInterconnect(const MachineConfig& config)
      : n_(config.num_clusters),
        latency_(config.interconnect.link_latency),
        bandwidth_(config.interconnect.copies_per_link_cycle) {}

  std::uint64_t route_copy(std::uint32_t /*from*/, std::uint32_t /*to*/,
                           std::uint64_t cycle) override {
    const std::uint64_t slot = bus_.claim(cycle, cycle, bandwidth_);
    ++stats_.copies_routed;
    ++stats_.copy_hops;
    ++stats_.link_busy_cycles;
    stats_.link_contention_cycles += slot - cycle;
    return slot + latency_;
  }

  std::uint32_t distance(std::uint32_t from, std::uint32_t to) const override {
    return topology_distance(Topology::kBus, n_, from, to);
  }

  double congestion(std::uint32_t from, std::uint32_t to) const override {
    return from == to ? 0.0 : bus_.wait_ewma();
  }

  const char* name() const override { return "bus"; }

  void reset() override {
    Interconnect::reset();
    bus_.reset();
  }

 private:
  std::uint32_t n_;
  std::uint32_t latency_;
  std::uint32_t bandwidth_;
  LinkState bus_;
};

class CrossbarInterconnect final : public Interconnect {
 public:
  explicit CrossbarInterconnect(const MachineConfig& config)
      : n_(config.num_clusters),
        latency_(config.interconnect.link_latency),
        bandwidth_(config.interconnect.copies_per_link_cycle),
        links_(static_cast<std::size_t>(n_) * n_) {}

  std::uint64_t route_copy(std::uint32_t from, std::uint32_t to,
                           std::uint64_t cycle) override {
    const std::uint64_t slot =
        links_[from * n_ + to].claim(cycle, cycle, bandwidth_);
    ++stats_.copies_routed;
    ++stats_.copy_hops;
    ++stats_.link_busy_cycles;
    stats_.link_contention_cycles += slot - cycle;
    return slot + latency_;
  }

  std::uint32_t distance(std::uint32_t from, std::uint32_t to) const override {
    return topology_distance(Topology::kCrossbar, n_, from, to);
  }

  double congestion(std::uint32_t from, std::uint32_t to) const override {
    return from == to ? 0.0 : links_[from * n_ + to].wait_ewma();
  }

  const char* name() const override { return "crossbar"; }

  void reset() override {
    Interconnect::reset();
    for (LinkState& link : links_) link.reset();
  }

 private:
  std::uint32_t n_;
  std::uint32_t latency_;
  std::uint32_t bandwidth_;
  std::vector<LinkState> links_;
};

class RingInterconnect final : public Interconnect {
 public:
  explicit RingInterconnect(const MachineConfig& config)
      : n_(config.num_clusters),
        latency_(config.interconnect.link_latency),
        bandwidth_(config.interconnect.copies_per_link_cycle),
        links_(n_) {}  ///< link c carries c -> (c+1) % n traffic.

  std::uint64_t route_copy(std::uint32_t from, std::uint32_t to,
                           std::uint64_t cycle) override {
    const std::uint32_t hops = distance(from, to);
    std::uint64_t t = cycle;
    for (std::uint32_t h = 0; h < hops; ++h) {
      const std::uint64_t slot =
          links_[(from + h) % n_].claim(t, cycle, bandwidth_);
      stats_.link_contention_cycles += slot - t;
      t = slot + latency_;
    }
    ++stats_.copies_routed;
    stats_.copy_hops += hops;
    stats_.link_busy_cycles += hops;
    return t;
  }

  std::uint32_t distance(std::uint32_t from, std::uint32_t to) const override {
    return topology_distance(Topology::kRing, n_, from, to);
  }

  double congestion(std::uint32_t from, std::uint32_t to) const override {
    double sum = 0.0;
    const std::uint32_t hops = distance(from, to);
    for (std::uint32_t h = 0; h < hops; ++h) {
      sum += links_[(from + h) % n_].wait_ewma();
    }
    return sum;
  }

  const char* name() const override { return "ring"; }

  void reset() override {
    Interconnect::reset();
    for (LinkState& link : links_) link.reset();
  }

 private:
  std::uint32_t n_;
  std::uint32_t latency_;
  std::uint32_t bandwidth_;
  std::vector<LinkState> links_;
};

}  // namespace

std::uint64_t LinkState::claim(std::uint64_t earliest,
                               std::uint64_t prune_before,
                               std::uint32_t bandwidth) {
  used_.erase(used_.begin(), used_.lower_bound(prune_before));
  std::uint64_t t = earliest;
  for (auto it = used_.lower_bound(earliest); it != used_.end(); ++it) {
    if (it->first > t) break;          // gap: cycle t has no claims yet
    if (it->second < bandwidth) break; // capacity left in cycle t
    t = it->first + 1;
  }
  ++used_[t];
  wait_ewma_ += (static_cast<double>(t - earliest) - wait_ewma_) / 8.0;
  return t;
}

std::unique_ptr<Interconnect> make_interconnect(const MachineConfig& config) {
  switch (config.interconnect.kind) {
    case Topology::kIdeal:
      return std::make_unique<IdealInterconnect>(config);
    case Topology::kBus:
      return std::make_unique<BusInterconnect>(config);
    case Topology::kRing:
      return std::make_unique<RingInterconnect>(config);
    case Topology::kCrossbar:
      return std::make_unique<CrossbarInterconnect>(config);
  }
  VCSTEER_CHECK_MSG(false, "unknown interconnect topology");
}

bool contention_free(const MachineConfig& config) {
  // 64-bit: an unlimited link is ~0u, and num_clusters x issue_width_copy
  // must not wrap below it.
  const std::uint64_t bandwidth = config.interconnect.copies_per_link_cycle;
  const std::uint64_t per_cluster = config.issue_width_copy;
  switch (config.interconnect.kind) {
    case Topology::kIdeal:
      return true;
    case Topology::kCrossbar:
      return bandwidth >= per_cluster;
    case Topology::kBus:
      return bandwidth >= std::uint64_t{config.num_clusters} * per_cluster;
    case Topology::kRing:
      return config.num_clusters <= 2 && bandwidth >= per_cluster;
  }
  return false;
}

}  // namespace vcsteer::sim
