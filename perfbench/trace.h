// Span recorder for the end-to-end benchmark.
//
// Spans are recorded from outside the library, around each call into a
// layer's public functions: the name is "<layer>.<call>", so a layer's
// time and self time fall out of the span list without touching the
// program. Spans live in one in-memory vector owned by the process's main
// thread and are written out once, when the stage ends. With tracing off,
// Open/Close only read the clock, so the same code path measures the
// untraced end-to-end numbers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"

namespace perfbench {

struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // index of the enclosing span, -1 = top level
  int32_t tree = -1;      // boosting iteration, where it applies
  int64_t request = -1;   // serving request id, where it applies
};

class Tracer {
 public:
  Tracer(bool enabled, std::string workload, std::string run_id)
      : enabled_(enabled),
        workload_(std::move(workload)),
        run_id_(std::move(run_id)) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  bool enabled() const { return enabled_; }

  // Starts a span at `start_ns`; returns its id (-1 when tracing is off).
  int32_t Open(const char* name, int32_t parent, int64_t start_ns) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.start_ns = start_ns;
    span.parent = parent;
    spans_.push_back(span);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id, int64_t end_ns) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }
  void Add(const Span& span) {
    if (enabled_) spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Seconds summed over every span called `name`.
  double Seconds(const std::string& name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return NsToSecD(ns);
  }
  // Durations (seconds) of every span called `name`, in record order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(NsToSecD(s.end_ns - s.start_ns));
    }
    return out;
  }

  // Self time per layer: each span's duration minus the part of it that
  // its direct children cover, summed by the layer prefix of the name.
  // Request spans (request >= 0) measure latency, not work, and overlap
  // one another, so they are left out.
  std::map<std::string, double> LayerSelfSeconds() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.request < 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request >= 0) continue;
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] += NsToSecD(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  // Writes every span as one JSON array (times relative to the first).
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"workload\":\"%s\","
                   "\"run\":\"%s\",\"tree\":%d,\"request\":%lld}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   workload_.c_str(), run_id_.c_str(), s.tree,
                   static_cast<long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  static double NsToSecD(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

  bool enabled_;
  std::string workload_;
  std::string run_id_;
  std::vector<Span> spans_;
};

// Times one call into a layer: a span when tracing, a stopwatch always.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, int32_t parent = -1)
      : tracer_(tracer), start_ns_(harp::NowNs()),
        id_(tracer.Open(name, parent, start_ns_)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { Close(); }

  int32_t id() const { return id_; }
  // Ends the span (once) and returns its duration in seconds.
  double Close() {
    if (end_ns_ == 0) {
      end_ns_ = harp::NowNs();
      tracer_.Close(id_, end_ns_);
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }

 private:
  Tracer& tracer_;
  int64_t start_ns_;
  int32_t id_;
  int64_t end_ns_ = 0;
};

}  // namespace perfbench
