#include "metrics/block_index.h"

#include <algorithm>

#include "metrics/trace_view.h"

namespace histpc::metrics {

using simmpi::ExecutionTrace;
using simmpi::Interval;
using simmpi::IntervalState;

namespace {

constexpr std::size_t kSyncWaitState = static_cast<std::size_t>(IntervalState::SyncWait);

void set_bit(std::uint64_t* words, std::size_t bit) {
  words[bit / 64] |= std::uint64_t{1} << (bit % 64);
}

}  // namespace

BlockIndex::BlockIndex(const ExecutionTrace& trace) {
  const std::size_t nfuncs = trace.functions.size();
  fwords_ = (nfuncs + 1 + 63) / 64;  // +1: trailing no-function slot
  swords_ = (trace.sync_objects.size() + 63) / 64;

  ranks_.resize(trace.ranks.size());
  for (std::size_t r = 0; r < trace.ranks.size(); ++r) {
    const std::vector<Interval>& ivs = trace.ranks[r].intervals;
    RankBlocks& rb = ranks_[r];
    const std::size_t n = ivs.size();
    const std::size_t nblocks = (n + kBlockSize - 1) / kBlockSize;
    rb.num_intervals = n;
    rb.blocks.assign(nblocks, Block{});
    rb.func_words.assign(nblocks * fwords_, 0);
    rb.sync_words.assign(nblocks * swords_, 0);
    for (std::size_t b = 0; b < nblocks; ++b) {
      const std::size_t i0 = b * kBlockSize;
      const std::size_t i1 = std::min(n, i0 + kBlockSize);
      Block& block = rb.blocks[b];
      // End times are non-decreasing, so the block's last t1 is its max.
      block.max_t1 = ivs[i1 - 1].t1;
      std::uint64_t* fw = rb.func_words.data() + b * fwords_;
      std::uint64_t* sw = rb.sync_words.data() + b * swords_;
      for (std::size_t i = i0; i < i1; ++i) {
        const Interval& iv = ivs[i];
        const std::size_t s = static_cast<std::size_t>(iv.state);
        block.state_total[s] += iv.t1 - iv.t0;
        set_bit(fw, iv.func == simmpi::kNoFunc ? nfuncs : static_cast<std::size_t>(iv.func));
        if (s == kSyncWaitState && iv.sync_object != simmpi::kNoSyncObject)
          set_bit(sw, static_cast<std::size_t>(iv.sync_object));
      }
    }
  }
}

std::size_t BlockIndex::block_end(int rank, std::size_t b) const {
  return std::min(ranks_[static_cast<std::size_t>(rank)].num_intervals, (b + 1) * kBlockSize);
}

bool BlockIndex::block_may_contribute(int rank, std::size_t b, const FocusFilter& filter,
                                      MetricKind metric) const {
  const RankBlocks& rb = ranks_[static_cast<std::size_t>(rank)];
  // Only SyncWait intervals carrying a selected object can match a
  // sync-constrained filter.
  std::array<bool, kNumStates> states = metric_states(metric);
  if (!filter.sync_unconstrained) states[0] = states[2] = false;

  // Accepted states hold zero time in the block → zero contribution
  // (zero-duration intervals clip to zero in every evaluation path).
  double total = 0.0;
  for (std::size_t s = 0; s < kNumStates; ++s)
    if (states[s]) total += rb.blocks[b].state_total[s];
  if (total == 0.0) return false;

  // Function coverage: no interval's function slot is accepted → nothing
  // in the block can match, whatever its state.
  const std::uint64_t* fw = rb.func_words.data() + b * fwords_;
  std::uint64_t hit = 0;
  for (std::size_t w = 0; w < fwords_; ++w) hit |= fw[w] & filter.func_words[w];
  if (hit == 0) return false;

  if (!filter.sync_unconstrained) {
    const std::uint64_t* sw = rb.sync_words.data() + b * swords_;
    std::uint64_t shit = 0;
    for (std::size_t w = 0; w < swords_; ++w) shit |= sw[w] & filter.sync_words[w];
    if (shit == 0) return false;
  }
  return true;
}

}  // namespace histpc::metrics
