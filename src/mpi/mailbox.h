// Pending-message mailbox shared by every (source, tag) matcher: the
// runtime's per-rank receive queues, the verifier's abstract execution and
// the static cost pass's timed walk.
//
// The table holds only messages that have arrived and not yet been
// received. It is open-addressed with linear probing over {key, payload}
// entries, and several entries may carry the same key:
//  - push() places an entry at the first free slot from the key's home
//    slot, which lies past every older entry with that key;
//  - pop() takes the first entry with the key in probe order — the oldest,
//    so each key is a FIFO — and closes the gap by backward-shift
//    deletion, which moves later entries towards their home slots without
//    reordering entries of one key and leaves no tombstones;
//  - grow() rehashes starting just after an empty slot, so a cluster that
//    wraps past the end of the table is re-inserted in probe order.
// The load factor stays at or below 1/2 and the table never shrinks, so
// its size is bounded by twice the largest number of messages pending at
// once, not by the number of messages ever received. A table allocates on
// its first push; an idle mailbox costs one empty vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mb::mpi {

template <typename Payload>
class Mailbox {
 public:
  using Key = std::uint64_t;

  static Key key(std::uint32_t src, std::int32_t tag) {
    return (static_cast<Key>(src) << 32) | static_cast<std::uint32_t>(tag);
  }
  static std::uint32_t source(Key k) {
    return static_cast<std::uint32_t>(k >> 32);
  }
  static std::int32_t tag(Key k) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(k));
  }
  /// SplitMix64 finalizer; a key's home slot is hash(k) & (capacity - 1).
  static std::uint64_t hash(Key k) {
    k += 0x9E3779B97F4A7C15ULL;
    k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
    k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
  }

  void push(Key k, Payload payload) {
    if ((count_ + 1) * 2 > slots_.size()) grow();
    place(k, std::move(payload));
  }

  /// False when no message with key `k` is pending; otherwise moves the
  /// oldest one into `out` and removes it.
  bool pop(Key k, Payload& out) {
    if (count_ == 0) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(k) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == kEmpty) return false;
      if (slots_[i].key == k) {
        out = std::move(slots_[i].payload);
        erase(i);
        return true;
      }
    }
  }

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Visits every pending (key, payload) in table order, which is
  /// unspecified across keys; callers that report leftovers sort them.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : slots_)
      if (e.key != kEmpty) fn(e.key, e.payload);
  }

 private:
  /// (src=~0, tag=-1) is not a reachable key: ranks are dense indices.
  static constexpr Key kEmpty = ~Key{0};
  struct Entry {
    Key key = kEmpty;
    Payload payload{};
  };

  void place(Key k, Payload payload) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(k) & mask;
    while (slots_[i].key != kEmpty) i = (i + 1) & mask;
    slots_[i].key = k;
    slots_[i].payload = std::move(payload);
    ++count_;
  }

  /// Backward-shift deletion: pull each later entry of the cluster into
  /// the hole unless its home slot lies cyclically in (hole, entry].
  void erase(std::size_t hole) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = hash(slots_[j].key) & mask;
      if (((j - home) & mask) < ((j - hole) & mask)) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole].key = kEmpty;
    --count_;
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : old.size() * 2, Entry{});
    count_ = 0;
    if (old.empty()) return;
    // Start after an empty slot (the load factor guarantees one) so every
    // cluster, wrapped ones included, is re-inserted oldest first.
    const std::size_t mask = old.size() - 1;
    std::size_t start = 0;
    while (old[start].key != kEmpty) ++start;
    for (std::size_t n = 1; n <= old.size(); ++n) {
      Entry& e = old[(start + n) & mask];
      if (e.key != kEmpty) place(e.key, std::move(e.payload));
    }
  }

  std::vector<Entry> slots_;
  std::size_t count_ = 0;
};

}  // namespace mb::mpi
