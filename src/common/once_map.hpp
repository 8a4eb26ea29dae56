// A keyed memo whose entries are each built once, by their first caller.
//
// Every per-trace memo of a sweep (warm snapshots, annotations, simulations,
// the model's memory replays and walks) has the same shape: many worker
// threads ask for the value of a key, the first one builds it, the others
// wait for that build and then share the result. The map's mutex guards
// only the lookup; each entry is built under its own std::once_flag, so
// builds of different keys run concurrently and a slow build never blocks a
// lookup. Entries live as long as the map and never move.
#pragma once

#include <map>
#include <memory>
#include <mutex>

namespace vcsteer {

template <typename Key, typename Value>
class OnceMap {
 public:
  /// The value of `key`. The first call per key runs `build(Value&)` on a
  /// default-constructed value; concurrent callers of the same key wait for
  /// it, later callers return at once. `build` must not wait on its own
  /// entry, directly or through another entry's build.
  template <typename Build>
  Value& get(const Key& key, Build&& build) {
    Slot* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::unique_ptr<Slot>& entry = slots_[key];
      if (!entry) entry = std::make_unique<Slot>();
      slot = entry.get();
    }
    std::call_once(slot->once, [&] { build(slot->value); });
    return slot->value;
  }

 private:
  struct Slot {
    std::once_flag once;
    Value value;
  };

  std::mutex mutex_;  ///< guards the map, not the entries.
  std::map<Key, std::unique_ptr<Slot>> slots_;
};

}  // namespace vcsteer
