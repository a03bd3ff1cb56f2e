// Per-rank values keyed by a rank read from a trace, which may hold
// any 32-bit rank (kInvalidRank included). Ranks below kDenseRanks
// live in a flat array, an array store per event; larger ones in an
// ordered map, so a stray rank costs one node rather than gigabytes.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "common/ids.h"

namespace eio {

template <typename T>
class RankTable {
 public:
  static constexpr RankId kDenseRanks = RankId{1} << 16;

  /// `unset` is what a rank holds before its first write.
  explicit RankTable(T unset = T{}) : unset_(unset) {}

  T& operator[](RankId rank) {
    if (rank >= kDenseRanks) {
      return sparse_.try_emplace(rank, unset_).first->second;
    }
    if (dense_.size() <= rank) dense_.resize(rank + 1, unset_);
    return dense_[rank];
  }

  /// f(rank, value) for every rank ascending, dense slots that still
  /// hold `unset` included.
  template <typename F>
  void for_each(F&& f) const {
    for (RankId r = 0; r < dense_.size(); ++r) f(r, dense_[r]);
    for (const auto& [rank, value] : sparse_) f(rank, value);
  }

  /// Every rank back to `unset`, keeping the dense capacity.
  void reset() {
    std::fill(dense_.begin(), dense_.end(), unset_);
    sparse_.clear();
  }

 private:
  T unset_;
  std::vector<T> dense_;
  std::map<RankId, T> sparse_;
};

}  // namespace eio
