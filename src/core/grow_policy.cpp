#include "core/grow_policy.h"

#include <algorithm>

#include "common/logging.h"

namespace harp {

bool GrowQueue::Before(const Candidate& a, const Candidate& b) const {
  if (policy_ == GrowPolicy::kDepthwise) {
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.node_id < b.node_id;
  }
  // Gain order; node-id tie-break keeps pops deterministic.
  if (a.split.gain != b.split.gain) return a.split.gain > b.split.gain;
  return a.node_id < b.node_id;
}

void GrowQueue::FixUp() {
  // Sift the newly pushed element up.
  size_t i = heap_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Candidate GrowQueue::PopTop() {
  HARP_CHECK(!heap_.empty());
  Candidate top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  // Sift down.
  size_t i = 0;
  const size_t n = heap_.size();
  for (;;) {
    const size_t l = 2 * i + 1;
    const size_t r = l + 1;
    size_t best = i;
    if (l < n && Before(heap_[l], heap_[best])) best = l;
    if (r < n && Before(heap_[r], heap_[best])) best = r;
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

size_t GrowQueue::NextBatchSize(int k, int64_t max_batch) const {
  if (max_batch <= 0) return 0;
  int64_t budget = std::min<int64_t>(max_batch, heap_.size());
  switch (policy_) {
    case GrowPolicy::kLeafwise:
      budget = std::min<int64_t>(budget, 1);
      break;
    case GrowPolicy::kTopK:
      budget = std::min<int64_t>(budget, std::max(1, k));
      break;
    case GrowPolicy::kDepthwise: {
      if (heap_.empty()) break;
      // The shallowest open level, whole: Before() pops it first.
      const int level = heap_.front().depth;
      budget = std::min<int64_t>(
          budget, std::count_if(heap_.begin(), heap_.end(),
                                [level](const Candidate& c) {
                                  return c.depth == level;
                                }));
      break;
    }
  }
  return static_cast<size_t>(budget);
}

void GrowQueue::PopBatchInto(int k, int64_t max_batch,
                             std::vector<Candidate>* out) {
  out->clear();
  const size_t size = NextBatchSize(k, max_batch);
  for (size_t i = 0; i < size; ++i) out->push_back(PopTop());
}

void GrowQueue::SortedInto(std::vector<Candidate>* out) const {
  out->assign(heap_.begin(), heap_.end());
  std::sort(out->begin(), out->end(),
            [this](const Candidate& a, const Candidate& b) {
              return Before(a, b);
            });
}

std::vector<Candidate> GrowQueue::PopBatch(int k, int64_t max_batch) {
  std::vector<Candidate> batch;
  PopBatchInto(k, max_batch, &batch);
  return batch;
}

}  // namespace harp
