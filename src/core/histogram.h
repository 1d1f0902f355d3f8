// Node histogram storage (the GHSum structure of Fig. 5).
//
// Each node's histogram is a flat array of TotalBins() GHPair slots
// (16 bytes each), indexed by BinOffset(feature) + bin. A pool recycles
// buffers across nodes and trees — at most two buffers per split of a batch
// live at once — and supports the parent-minus-sibling subtraction trick.
// Acquire/Release are guarded by a spin mutex so ASYNC worker threads can
// allocate node histograms concurrently.
//
// Ownership: Acquire hands out a buffer with unspecified contents and never
// writes it. Whoever produces a node's histogram writes every slot, inside
// the parallel work that touches those slots anyway (DP reduce, MP cube,
// subtraction, dequantize); serial `+=` builders ClearHistogram their own
// buffer first. See DESIGN.md, "Histogram ownership".
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/aligned.h"
#include "core/gh.h"
#include "parallel/spin_mutex.h"

namespace harp {

class GrowQueue;
struct Candidate;
struct TrainParams;

class HistogramPool {
 public:
  explicit HistogramPool(size_t total_bins) : total_bins_(total_bins) {}

  size_t total_bins() const { return total_bins_; }

  // Returns a histogram with UNSPECIFIED contents registered under
  // `node_id`; the node must not already own one. The caller writes every
  // slot before anyone reads it. Thread safe.
  GHPair* Acquire(int node_id);

  // Histogram of `node_id` (must exist). Thread safe.
  GHPair* Get(int node_id);
  const GHPair* Get(int node_id) const;

  bool Has(int node_id) const;

  // Re-registers the buffer of `from` (which must exist) under `to` (which
  // must not), contents unchanged. Thread safe.
  GHPair* Transfer(int from, int to);

  // Returns the buffer of `node_id` to the free list. Thread safe.
  void Release(int node_id);

  // Releases everything (start of a new tree).
  void ReleaseAll();

  // High-water mark of simultaneously live buffers x bytes per buffer.
  size_t PeakBytes() const;

 private:
  using Buffer = AlignedVector<GHPair>;

  size_t total_bins_;
  mutable SpinMutex mutex_;
  std::vector<Buffer> free_list_;
  std::unordered_map<int, Buffer> in_use_;
  size_t peak_in_use_ = 0;
};

// dst[i] += src[i] over `n` slots.
void AddHistogram(GHPair* dst, const GHPair* src, size_t n);

// dst[i] = GHPair{} + src[i] over `n` slots: the first contributor of a
// reduction into an unspecified buffer. Bit-identical to ClearHistogram
// followed by AddHistogram; unlike a plain copy it turns -0.0 into +0.0.
void AssignHistogram(GHPair* dst, const GHPair* src, size_t n);

// hist[i] = hist[i] - sibling[i] over `n` slots (the subtraction trick):
// the parent's buffer, transferred to the larger child, becomes the larger
// child's histogram in place.
void SubtractHistogramInPlace(GHPair* hist, const GHPair* sibling, size_t n);

// The retention rule of subtraction-aware growth, run before each batch is
// popped: with use_hist_subtraction, only the next batch's parents (the
// first GrowQueue::NextBatchSize(K, splits_left) queued candidates in pop
// order) keep their histograms; every other queued histogram is released
// (all of them without subtraction). A split whose parent kept one builds
// its smaller child and transfers the parent's buffer to the larger, any
// other split builds both, so the pool never holds more than two buffers
// per split of a batch, the peak of building both children. `scratch` is
// reused storage.
void RetainNextParents(const GrowQueue& queue, const TrainParams& params,
                       int64_t splits_left, std::vector<Candidate>* scratch,
                       HistogramPool* hists);

// Zeroes `n` slots.
void ClearHistogram(GHPair* hist, size_t n);

// Sums all slots (used to cross-check against the node's gradient total).
GHPair SumHistogramFeature(const GHPair* hist, uint32_t offset,
                           uint32_t num_bins);

}  // namespace harp
