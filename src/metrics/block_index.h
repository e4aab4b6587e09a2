// BlockIndex: per-block summaries of each rank's intervals, which let
// MetricBatch skip blocks that provably contribute nothing.
//
// Per rank, intervals are grouped into fixed-size blocks of consecutive
// positions; each block stores
//
//  * its last end time (t1 is non-decreasing, ExecutionTrace::validate),
//  * the total duration per interval state,
//  * coverage bitmaps: which FuncIds (plus a trailing no-function slot)
//    and which sync objects appear in the block.
//
// A (filter, metric) pair whose accepted states hold zero time in a block,
// or whose function/sync words miss every interval in it, cannot match
// anything there: block_may_contribute returns false and MetricBatch jumps
// the block. Only exactly-zero contributions are elided, so diagnosis
// values stay bit-identical to the plain interval walk.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "metrics/metric.h"
#include "simmpi/trace.h"

namespace histpc::metrics {

struct FocusFilter;

class BlockIndex {
 public:
  /// Positions per block. 128 keeps a block's summary row in one cache line
  /// neighbourhood while amortizing the probe to <1% of a block's interval
  /// work.
  static constexpr std::size_t kBlockSize = 128;

  /// Builds the summaries in one linear pass over the trace's intervals.
  explicit BlockIndex(const simmpi::ExecutionTrace& trace);

  std::size_t num_blocks(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].blocks.size();
  }
  /// Interval position one past block `b`'s last interval on `rank`.
  std::size_t block_end(int rank, std::size_t b) const;
  double block_max_t1(int rank, std::size_t b) const {
    return ranks_[static_cast<std::size_t>(rank)].blocks[b].max_t1;
  }
  /// True unless the summary proves no interval in the block can
  /// contribute to (filter, metric). A false return is a proof of zero
  /// contribution for any time window. `filter` must be finalized
  /// (TraceView::compile qualifies).
  bool block_may_contribute(int rank, std::size_t b, const FocusFilter& filter,
                            MetricKind metric) const;

 private:
  static constexpr std::size_t kNumStates = 3;  // Cpu, SyncWait, IoWait

  struct Block {
    double max_t1 = 0.0;
    std::array<double, kNumStates> state_total{};
  };

  struct RankBlocks {
    std::size_t num_intervals = 0;
    std::vector<Block> blocks;
    // Coverage bitmaps, indexed [block * words]. Function slot nfuncs
    // stands for kNoFunc, matching the FocusFilter::func_words layout.
    std::vector<std::uint64_t> func_words;
    std::vector<std::uint64_t> sync_words;
  };

  std::size_t fwords_ = 1;  ///< words per block func bitmap (nfuncs+1 bits)
  std::size_t swords_ = 0;  ///< words per block sync bitmap
  std::vector<RankBlocks> ranks_;
};

}  // namespace histpc::metrics
