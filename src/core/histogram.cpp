#include "core/histogram.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "core/grow_policy.h"

namespace harp {

GHPair* HistogramPool::Acquire(int node_id) {
  std::lock_guard<SpinMutex> lock(mutex_);
  HARP_CHECK(in_use_.find(node_id) == in_use_.end())
      << "node " << node_id << " already owns a histogram";
  // A recycled buffer keeps its previous node's contents: the producer
  // overwrites every slot in its own parallel work (see histogram.h). Only
  // growth past the high-water mark allocates, and allocation value-
  // initialises the new buffer.
  Buffer buffer;
  if (!free_list_.empty()) {
    buffer = std::move(free_list_.back());
    free_list_.pop_back();
  } else {
    buffer.resize(total_bins_);
  }
  auto [it, inserted] = in_use_.emplace(node_id, std::move(buffer));
  HARP_CHECK(inserted);
  peak_in_use_ = std::max(peak_in_use_, in_use_.size());
  return it->second.data();
}

GHPair* HistogramPool::Get(int node_id) {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(node_id);
  HARP_CHECK(it != in_use_.end()) << "node " << node_id << " has no histogram";
  return it->second.data();
}

const GHPair* HistogramPool::Get(int node_id) const {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(node_id);
  HARP_CHECK(it != in_use_.end()) << "node " << node_id << " has no histogram";
  return it->second.data();
}

bool HistogramPool::Has(int node_id) const {
  std::lock_guard<SpinMutex> lock(mutex_);
  return in_use_.find(node_id) != in_use_.end();
}

GHPair* HistogramPool::Transfer(int from, int to) {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(from);
  HARP_CHECK(it != in_use_.end()) << "node " << from << " has no histogram";
  HARP_CHECK(in_use_.find(to) == in_use_.end())
      << "node " << to << " already owns a histogram";
  Buffer buffer = std::move(it->second);
  in_use_.erase(it);
  return in_use_.emplace(to, std::move(buffer)).first->second.data();
}

void HistogramPool::Release(int node_id) {
  std::lock_guard<SpinMutex> lock(mutex_);
  auto it = in_use_.find(node_id);
  HARP_CHECK(it != in_use_.end()) << "node " << node_id << " has no histogram";
  free_list_.push_back(std::move(it->second));
  in_use_.erase(it);
}

void HistogramPool::ReleaseAll() {
  std::lock_guard<SpinMutex> lock(mutex_);
  for (auto& [id, buffer] : in_use_) {
    free_list_.push_back(std::move(buffer));
  }
  in_use_.clear();
}

size_t HistogramPool::PeakBytes() const {
  std::lock_guard<SpinMutex> lock(mutex_);
  return peak_in_use_ * total_bins_ * sizeof(GHPair);
}

// The blocked DP reduction leans on these loops vectorizing; the restrict
// qualifiers license it (callers never pass overlapping histograms).
void AddHistogram(GHPair* __restrict dst, const GHPair* __restrict src,
                  size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AssignHistogram(GHPair* __restrict dst, const GHPair* __restrict src,
                     size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = GHPair{} + src[i];
}

void SubtractHistogramInPlace(GHPair* __restrict hist,
                              const GHPair* __restrict sibling, size_t n) {
  for (size_t i = 0; i < n; ++i) hist[i] = hist[i] - sibling[i];
}

void RetainNextParents(const GrowQueue& queue, const TrainParams& params,
                       int64_t splits_left, std::vector<Candidate>* scratch,
                       HistogramPool* hists) {
  const size_t keep =
      params.use_hist_subtraction
          ? queue.NextBatchSize(params.EffectiveTopK(), splits_left)
          : 0;
  queue.SortedInto(scratch);
  for (size_t i = keep; i < scratch->size(); ++i) {
    const int node = (*scratch)[i].node_id;
    if (hists->Has(node)) hists->Release(node);
  }
}

void ClearHistogram(GHPair* hist, size_t n) {
  std::fill(hist, hist + n, GHPair{});
}

GHPair SumHistogramFeature(const GHPair* hist, uint32_t offset,
                           uint32_t num_bins) {
  GHPair sum;
  for (uint32_t b = 0; b < num_bins; ++b) sum += hist[offset + b];
  return sum;
}

}  // namespace harp
