#ifndef COPYDETECT_CORE_PAIR_TABLE_H_
#define COPYDETECT_CORE_PAIR_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/arena.h"
#include "model/types.h"
#include "simjoin/overlap.h"

namespace copydetect {

/// Byte cap of the dense pair triangles of one scan round, all shards
/// together.
inline constexpr size_t kDensePairTableBytes = size_t{64} << 20;

/// Whether the `shards` scan shards of a round over the sources counted
/// in `overlaps` index their pairs through dense triangles: when the
/// triangles fit under kDensePairTableBytes together and at least a
/// quarter of all pairs share an item. Larger rounds keep the hash
/// layout, whose memory grows with the pairs tracked rather than with
/// the square of the sources. Sparser ones keep it too: each shard
/// clears its whole triangle every round, and below about a quarter
/// the pairs a round can track do not repay that (EXPERIMENTS.md
/// "Dense pair table" times both layouts from 9% to 100%).
inline bool UseDensePairTable(const OverlapCounts& overlaps,
                              size_t shards) {
  const size_t n = overlaps.num_sources();
  const size_t pairs = n < 2 ? 0 : n * (n - 1) / 2;
  return pairs > 0 &&
         pairs <= kDensePairTableBytes / (sizeof(uint32_t) * shards) &&
         4 * overlaps.NumPositivePairs() >= pairs;
}

/// The per-round pair-state table of the INDEX-family scans
/// (IndexDetector, BoundedScan), keyed by (lo, hi) with lo < hi.
///
/// Either layout lives in the shard's leased arena. The dense layout
/// maps a pair to its state through an upper-triangle array of 4-byte
/// cells, so a visit costs one load instead of hash probes; the states
/// themselves sit in fixed-size chunks in first-insertion order, so the
/// memory touched grows with the pairs tracked, not with the triangle,
/// and no state is ever copied. The hash layout is an ArenaHashMap of
/// the states. ForEach walks the pairs in the ArenaHashMap storage
/// order of the insertion sequence — the dense layout keys each
/// state's index into an ArenaHashMap as the pair is first inserted —
/// and ArenaHashMap's layout depends only on that key sequence. So the
/// finalize walk, and everything downstream of it, is the same bit for
/// bit whichever layout a round picks.
///
/// State must be trivially copyable and value-initialisable.
template <typename State>
class PairTable {
 public:
  /// States per chunk of the dense layout.
  static constexpr size_t kChunkStates = 256;

  PairTable(Arena* arena, SourceId num_sources, bool dense)
      : arena_(arena), map_(arena), order_(arena), dense_(dense) {
    if (!dense_) return;
    const size_t n = num_sources;
    const size_t cells = n < 2 ? 0 : n * (n - 1) / 2;
    cells_ = arena->AllocateArray<uint32_t>(cells);
    std::fill(cells_, cells_ + cells, uint32_t{0});
    // row_base_[lo] + hi is the triangle cell of (lo, hi); row 0's
    // base wraps below zero, which unsigned addition undoes.
    row_base_ = arena->AllocateArray<size_t>(n);
    for (size_t lo = 0; lo < n; ++lo) {
      row_base_[lo] = lo * (2 * n - lo - 1) / 2 - lo - 1;
    }
    // The triangle bounds the pairs, so the chunk list never grows.
    chunks_ = arena->AllocateArray<State*>(cells / kChunkStates + 1);
  }

  PairTable(const PairTable&) = delete;
  PairTable& operator=(const PairTable&) = delete;

  bool dense() const { return dense_; }

  /// State of (lo, hi), or nullptr when the pair was never inserted.
  State* Find(SourceId lo, SourceId hi) {
    if (!dense_) return map_.Find(PairKey(lo, hi));
    const uint32_t cell = cells_[row_base_[lo] + hi];
    return cell != 0 ? &Slot(cell - 1) : nullptr;
  }

  /// State of (lo, hi); a value-initialised one, with *fresh set, when
  /// the pair was never inserted.
  State* FindOrInsert(SourceId lo, SourceId hi, bool* fresh) {
    const uint64_t key = PairKey(lo, hi);
    if (!dense_) {
      State* state = map_.Find(key);
      *fresh = state == nullptr;
      return *fresh ? &map_[key] : state;
    }
    uint32_t& cell = cells_[row_base_[lo] + hi];
    *fresh = cell == 0;
    if (!*fresh) return &Slot(cell - 1);
    if (size_ % kChunkStates == 0) {
      chunks_[size_ / kChunkStates] =
          arena_->AllocateArray<State>(kChunkStates);
    }
    order_[key] = size_;
    State* state = new (&Slot(size_)) State();
    cell = ++size_;
    return state;
  }

  /// Visits every inserted pair, fn(pair_key, State&), in the order
  /// described above.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    if (!dense_) {
      map_.ForEach(fn);
      return;
    }
    order_.ForEach([&](uint64_t key, uint32_t i) { fn(key, Slot(i)); });
  }

 private:
  State& Slot(uint32_t i) {
    return chunks_[i / kChunkStates][i % kChunkStates];
  }

  Arena* arena_;
  ArenaHashMap<State> map_;
  // Dense layout: each pair's index into the chunks, keyed in
  // insertion order.
  ArenaHashMap<uint32_t> order_;
  bool dense_;
  // Dense layout: 1 + the pair's state index, 0 if absent.
  uint32_t* cells_ = nullptr;
  size_t* row_base_ = nullptr;
  State** chunks_ = nullptr;
  uint32_t size_ = 0;
};

}  // namespace copydetect

#endif  // COPYDETECT_CORE_PAIR_TABLE_H_
