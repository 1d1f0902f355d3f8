// harp_e2e: the stages of the end-to-end benchmark, one process each.
//
//   harp_e2e setup <workload> <seed> <dir> <trace> <run-id>
//       Generates the workload's inputs from <seed>, writes them to <dir>
//       and trains whatever the timed path needs as a given (served
//       models, the heap reference). Prints the setup time and a digest
//       of every file written.
//   harp_e2e model <workload> <seed> <dir> <trace> <run-id>
//       The timed product path: input on disk -> model file on disk
//       (train-*, dist-sparse), then model file + text file -> margins for
//       every held-out row. Runs in its own process so its VmHWM is the
//       peak RSS of the timed path alone.
//   harp_e2e serve <workload> <seed> <dir> <trace> <run-id> <step-s>
//       Open-loop single-row serving of the workload's model at a nominal
//       rate and, with tracing on, at rising rates until one fails
//       (<step-s> per rung), with Reload alternating the model and its
//       first-half prefix.
//   harp_e2e copy <dir>
//       STREAM-style copy probe: the machine's reachable memory bandwidth.
//
// Each stage prints one JSON line: end-to-end values ("e2e"), per-layer
// values ("layer"; only filled with tracing on), correctness checks
// ("attempted", "failed") and digests that run.py compares across
// processes. With <trace> = 1 the stage also writes its spans to
// <dir>/trace-<stage>-<run-id>.json.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harpgbdt.h"
#include "common/file_util.h"
#include "common/mmap_util.h"
#include "common/timer.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace harp;

constexpr int kThreads = 4;

// ---------------------------------------------------------------- workloads

enum class Kind { kTrainCsv, kTrainMmap, kDistSparse, kScoreServe };

struct Workload {
  Kind kind;
  SyntheticSpec spec;        // the draw that training and held-out rows share
  uint64_t seed = 0;         // --seed: which rows of the draw are used
  uint32_t train_rows = 0;
  uint32_t hold_rows = 0;    // holdout (train-*) or scoring rows
  bool libsvm = false;       // text format of the input files
  TrainParams params;        // training / served-model configuration
  int workers = 1;           // DistributedGbdt in-process workers
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  TrainParams p;
  p.num_threads = kThreads;
  if (name == "train-dense") {
    // The paper's configuration: SYNC, TopK K=32, D=8, f64 histograms.
    w->kind = Kind::kTrainCsv;
    w->train_rows = 40000;
    w->hold_rows = 40000;
    w->spec = HiggsSpec(1.0);
    p.num_trees = 100;
  } else if (name == "train-mmap") {
    w->kind = Kind::kTrainMmap;
    w->train_rows = 131072;
    w->hold_rows = 32768;
    w->spec = SynsetSpec(1.0);
    p.num_trees = 10;
    p.tree_size = 6;
    // Three trainers leave one vCPU to the RowBlockPrefetcher's sweep
    // thread; with four, its wake-ups stall barriers and the time spread
    // across repetitions doubled (0.12 vs 0.05, interleaved runs).
    p.num_threads = kThreads - 1;
    // Several advise windows over the 16 MiB bin matrix.
    p.prefetch_window_bytes = 4 << 20;
  } else if (name == "dist-sparse") {
    // bench_dist's DistSpec(0.05) shape.
    w->kind = Kind::kDistSparse;
    w->train_rows = 10000;
    w->hold_rows = 10000;
    w->libsvm = true;
    SyntheticSpec s;
    s.name = "DIST0050";
    s.features = 2000;
    s.density = 0.05;
    s.density_skew = 1.0;
    s.mean_distinct = 48.0;
    s.distinct_cv = 0.5;
    s.active_features = 16;
    s.margin_scale = 3.0;
    s.sparse_storage = true;
    s.seed = 977;
    w->spec = s;
    p.num_trees = 4;
    p.tree_size = 6;
    p.topk = 8;
    p.quantize_hist = true;
    p.comm_compress = "sparse";
    // One thread per worker (DistributedGbdt's default): the 5k-row shards
    // train as fast as with two, and the run is exposed to half as much
    // host steal.
    w->workers = 2;
  } else if (name == "score-serve") {
    w->kind = Kind::kScoreServe;
    w->train_rows = 20000;
    w->hold_rows = 250000;
    w->spec = HiggsSpec(1.0);
    p.num_trees = 100;
  } else {
    return false;
  }
  // The generator draws its plan (per-feature bin counts, the label
  // function) from spec.seed, which stays fixed per workload: reseeding
  // the plan moved holdout AUC by 5% and training time by 20% between
  // seeds. --seed instead picks which rows of the draw, a quarter larger
  // than needed, are trained on and which are held out.
  w->spec.rows = (w->train_rows + w->hold_rows) / 4 * 5;
  w->seed = seed;
  w->params = p;
  return true;
}

// ------------------------------------------------------------------ helpers

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Unlike the library's WriteStringToFile this does not fsync: set-up writes
// tens of MB of inputs, and setup_s is meant to time generating them, not
// how long the host's disk takes to flush them.
bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

std::string Hex(uint64_t v) { return StrFormat("%016llx", static_cast<unsigned long long>(v)); }

void AppendFloat(std::string* out, float v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// Every row as CSV: label first, empty field = missing.
std::string CsvText(const Dataset& ds) {
  std::string out;
  out.reserve(static_cast<size_t>(ds.num_rows()) * ds.num_features() * 8);
  for (uint32_t r = 0; r < ds.num_rows(); ++r) {
    AppendFloat(&out, ds.labels()[r]);
    uint32_t next = 0;
    ds.ForEachInRow(r, [&](uint32_t f, float v) {
      for (; next <= f; ++next) out.push_back(',');
      AppendFloat(&out, v);
    });
    for (; next < ds.num_features(); ++next) out.push_back(',');
    out.push_back('\n');
  }
  return out;
}

// Every row as LibSVM with 1-based feature ids.
std::string LibsvmText(const Dataset& ds) {
  std::string out;
  for (uint32_t r = 0; r < ds.num_rows(); ++r) {
    AppendFloat(&out, ds.labels()[r]);
    ds.ForEachInRow(r, [&](uint32_t f, float v) {
      out += StrFormat(" %u:", f + 1);
      AppendFloat(&out, v);
    });
    out.push_back('\n');
  }
  return out;
}

// Rows `rows` of `ds`, in that order, in the layout of `ds`.
Dataset Gather(const Dataset& ds, const std::vector<uint32_t>& rows) {
  const uint32_t m = ds.num_features();
  const uint32_t n = static_cast<uint32_t>(rows.size());
  std::vector<float> labels;
  labels.reserve(n);
  for (uint32_t r : rows) labels.push_back(ds.labels()[r]);
  if (ds.layout() == Dataset::Layout::kDense) {
    std::vector<float> values(static_cast<size_t>(n) * m);
    for (uint32_t i = 0; i < n; ++i) {
      std::memcpy(values.data() + static_cast<size_t>(i) * m,
                  ds.dense_data() + static_cast<size_t>(rows[i]) * m,
                  m * sizeof(float));
    }
    return Dataset::FromDense(n, m, std::move(values), std::move(labels));
  }
  std::vector<uint32_t> row_ptr = {0};
  std::vector<Entry> entries;
  for (uint32_t r : rows) {
    entries.insert(entries.end(), ds.entries().begin() + ds.row_ptr()[r],
                   ds.entries().begin() + ds.row_ptr()[r + 1]);
    row_ptr.push_back(static_cast<uint32_t>(entries.size()));
  }
  return Dataset::FromCsr(n, m, std::move(row_ptr), std::move(entries),
                          std::move(labels));
}

// Splits the draw into training and held-out rows with a Fisher-Yates
// shuffle seeded by w.seed; each part keeps the draw's row order.
void SplitDraw(const Workload& w, const Dataset& all, Dataset* train,
               Dataset* hold) {
  std::vector<uint32_t> idx(all.num_rows());
  for (uint32_t i = 0; i < all.num_rows(); ++i) idx[i] = i;
  std::mt19937_64 rng(w.seed);
  for (size_t i = idx.size() - 1; i > 0; --i) {
    std::swap(idx[i], idx[rng() % (i + 1)]);
  }
  auto part = [&](size_t begin, size_t end) {
    std::vector<uint32_t> rows(idx.begin() + begin, idx.begin() + end);
    std::sort(rows.begin(), rows.end());
    return Gather(all, rows);
  };
  *train = part(0, w.train_rows);
  *hold = part(w.train_rows, w.train_rows + w.hold_rows);
}

std::string HoldPath(const std::string& dir, const Workload& w) {
  return dir + (w.libsvm ? "/hold.svm" : "/hold.csv");
}
std::string TrainPath(const std::string& dir, const Workload& w) {
  if (w.kind == Kind::kTrainMmap) return dir + "/train.bin";
  return dir + (w.libsvm ? "/train.svm" : "/train.csv");
}

// Reads one text input through the library's reader, inside a span.
bool ReadText(Tracer& tr, const Workload& w, const std::string& path,
              ThreadPool* pool, int32_t parent, Dataset* out,
              IngestStats* ingest) {
  std::string error;
  bool ok = false;
  if (w.libsvm) {
    Scope s(tr, "data.ReadLibsvm", parent);
    LibsvmOptions opts;
    opts.num_features = w.spec.features;
    ok = ReadLibsvm(path, opts, out, &error, ingest, pool);
  } else {
    Scope s(tr, "data.ReadCsv", parent);
    ok = ReadCsv(path, CsvOptions{}, out, &error, ingest, pool);
  }
  if (!ok) std::fprintf(stderr, "read %s: %s\n", path.c_str(), error.c_str());
  return ok;
}

uint64_t ValueCount(const Dataset& ds) {
  return ds.layout() == Dataset::Layout::kDense
             ? static_cast<uint64_t>(ds.num_rows()) * ds.num_features()
             : ds.entries().size();
}

uint64_t TotalCuts(const QuantileCuts& cuts) {
  uint64_t total = 0;
  for (uint32_t f = 0; f < cuts.num_features(); ++f) total += cuts.NumCuts(f);
  return total;
}

// Model made of the first `trees` trees of `model` (boosting is
// sequential, so this is the model a `trees`-tree run would have built).
GbdtModel Prefix(const GbdtModel& model, size_t trees) {
  GbdtModel out(model.objective(), model.base_margin(), model.cuts());
  for (size_t t = 0; t < trees && t < model.NumTrees(); ++t) {
    out.AddTree(model.tree(t));
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Sorted-sample percentile (nearest rank).
double PercentileOf(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))) -
          (q > 0.0 ? 1 : 0));
  return sorted[idx];
}

// Seconds each vCPU has spent stolen by the hypervisor so far (the steal
// column of /proc/stat); empty where that is not available.
std::vector<double> StolenSeconds() {
  std::vector<double> out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr &&
         std::strncmp(line, "cpu", 3) == 0) {
    unsigned long long v[8];
    if (line[3] != ' ' &&
        std::sscanf(line, "%*s %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      out.push_back(static_cast<double>(v[7]) * tick);
    }
  }
  std::fclose(f);
  return out;
}

// Times a stretch of work and estimates how long it would have taken on an
// uncontended host. The hypervisor steals this VM's vCPUs in episodes of
// minutes; an idle vCPU accrues no steal. Lock-step parallel work stalls
// whenever any vCPU it runs on is stolen, so it was undisturbed for the
// share prod_i (1 - s_i) of its wall time, where s_i is the share of the
// stretch vCPU i spent stolen (CalmShare). Work that does not wait on every
// vCPU at once (parsing, binning, prediction, a serial load) is slowed by
// no more than the most-stolen vCPU, 1 - max_i s_i (SerialCalmShare); the
// lock-step estimate would over-correct it.
class StealClock {
 public:
  StealClock() : start_ns_(NowNs()), start_(StolenSeconds()) {}

  double WallSec() const { return NsToSec(NowNs() - start_ns_); }

  double CalmShare() const {
    double calm = 1.0;
    for (double s : Shares()) calm *= 1.0 - s;
    return calm;
  }

  double SerialCalmShare() const {
    double worst = 0.0;
    for (double s : Shares()) worst = std::max(worst, s);
    return 1.0 - worst;
  }

 private:
  std::vector<double> Shares() const {
    const double wall = WallSec();
    const std::vector<double> now = StolenSeconds();
    std::vector<double> shares;
    for (size_t i = 0; i < now.size() && i < start_.size(); ++i) {
      shares.push_back(std::clamp((now[i] - start_[i]) / wall, 0.0, 0.9));
    }
    return shares;
  }

  int64_t start_ns_;
  std::vector<double> start_;
};

double PeakRssMb() { return static_cast<double>(PeakRssBytes()) / (1 << 20); }

// One JSON line: {"e2e":{...},"layer":{...},"attempted":n,"failed":n,...}.
struct StageResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::string> digests;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }
  }

  void Print() const {
    auto dump = [](const std::map<std::string, double>& m) {
      std::string s = "{";
      for (const auto& [k, v] : m) {
        if (s.size() > 1) s += ",";
        s += StrFormat("\"%s\":%.17g", k.c_str(), std::isfinite(v) ? v : 0.0);
      }
      return s + "}";
    };
    std::string d = "{";
    for (const auto& [k, v] : digests) {
      if (d.size() > 1) d += ",";
      d += StrFormat("\"%s\":\"%s\"", k.c_str(), v.c_str());
    }
    d += "}";
    std::printf("{\"e2e\":%s,\"layer\":%s,\"digests\":%s,\"attempted\":%lld,"
                "\"failed\":%lld}\n",
                dump(e2e).c_str(), dump(layer).c_str(), d.c_str(),
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    std::fflush(stdout);
  }
};

// -------------------------------------------------------------------- setup

int RunSetup(const Workload& w, const std::string& dir, bool trace,
             const std::string& run_id, const std::string& name) {
  Tracer tr(trace, name, run_id);
  StageResult result;
  const StealClock clock;
  ThreadPool pool(kThreads);
  Dataset all;
  {
    Scope s(tr, "data.GenerateSynthetic");
    all = GenerateSynthetic(w.spec, &pool);
  }
  Dataset train;
  Dataset hold;
  SplitDraw(w, all, &train, &hold);

  std::vector<std::pair<std::string, std::string>> files;
  auto text = [&](const Dataset& ds) {
    return w.libsvm ? LibsvmText(ds) : CsvText(ds);
  };
  files.emplace_back(HoldPath(dir, w), text(hold));
  if (w.kind == Kind::kTrainCsv || w.kind == Kind::kDistSparse) {
    files.emplace_back(TrainPath(dir, w), text(train));
  }
  for (const auto& [path, bytes] : files) {
    if (!WriteFile(path, bytes)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    result.digests[path.substr(dir.size() + 1)] = Hex(Fnv1a(bytes));
  }

  if (w.kind == Kind::kTrainMmap || w.kind == Kind::kScoreServe) {
    QuantileCuts cuts;
    {
      Scope s(tr, "data.QuantileCuts::Compute");
      cuts = QuantileCuts::Compute(train, w.params.max_bins, &pool);
    }
    BinnedMatrix matrix;
    {
      Scope s(tr, "data.BinnedMatrix::Build");
      matrix = BinnedMatrix::Build(train, std::move(cuts), &pool);
    }
    std::string error;
    // train-mmap: the binned cache is the timed path's input, and a
    // heap-trained model is the reference the mmap-trained one must equal.
    // score-serve: the served model.
    const std::string model_path =
        dir + (w.kind == Kind::kTrainMmap ? "/reference.model" : "/model.txt");
    if (w.kind == Kind::kTrainMmap) {
      Scope s(tr, "data.WriteBinnedCache");
      if (!WriteBinnedCache(TrainPath(dir, w), matrix, train.labels(),
                            &error)) {
        std::fprintf(stderr, "binned cache: %s\n", error.c_str());
        return 1;
      }
    }
    GbdtModel model;
    {
      Scope s(tr, "core.GbdtTrainer::TrainBinned");
      model = GbdtTrainer(w.params).TrainBinned(matrix, train.labels());
    }
    {
      Scope s(tr, "core.SaveModel");
      if (!SaveModel(model_path, model, &error)) {
        std::fprintf(stderr, "save: %s\n", error.c_str());
        return 1;
      }
    }
    std::vector<std::string> written = {model_path};
    if (w.kind == Kind::kTrainMmap) written.push_back(TrainPath(dir, w));
    for (const std::string& path : written) {
      std::string bytes;
      if (!ReadFileToString(path, &bytes, &error)) return 1;
      result.digests[path.substr(dir.size() + 1)] = Hex(Fnv1a(bytes));
    }
  }
  const double calm = clock.CalmShare();
  result.e2e["setup_s"] = clock.WallSec() * calm;
  result.e2e["calm_share"] = calm;
  if (trace) {
    result.layer["data.cache_write_s"] = tr.Seconds("data.WriteBinnedCache");
    result.Check(tr.Write(dir + "/trace-setup-" + run_id + ".json"),
                 "trace written");
  }
  result.Print();
  return 0;
}

// ------------------------------------------------------------- model stage

// Scoring passes per repetition: at least kMinScorePasses, and more while
// they add up to less than kScoreSeconds.
constexpr int kMinScorePasses = 3;
constexpr int kMaxScorePasses = 12;
constexpr double kScoreSeconds = 0.5;
// score-serve's model file -> ready model, timed this many times: one takes
// about 60 ms, too short for one sample or for steal ticks (10 ms).
constexpr int kReadyReps = 10;

// What one scoring pass produced.
struct Scored {
  GbdtModel model;
  Dataset hold;
  BinnedMatrix hold_bins;
  std::shared_ptr<const FlatForest> flat;
  std::vector<double> margins;
  IngestStats ingest;
  double score_s = 0.0;  // the whole pass
};

// Model file + held-out text file -> margins for every row: load, parse,
// bin with the model's cuts, flatten, predict.
bool Score(Tracer& tr, const Workload& w, const std::string& dir,
           ThreadPool* pool, Scored* out) {
  *out = Scored{};
  Scope pass(tr, "bench.score");
  const int32_t root = pass.id();
  std::string error;
  {
    Scope s(tr, "core.LoadModel", root);
    if (!LoadModel(dir + "/model.txt", &out->model, &error)) {
      std::fprintf(stderr, "load: %s\n", error.c_str());
      return false;
    }
  }
  if (!ReadText(tr, w, HoldPath(dir, w), pool, root, &out->hold,
                &out->ingest)) {
    return false;
  }
  {
    Scope s(tr, "data.BinnedMatrix::Build", root);
    out->hold_bins = BinnedMatrix::Build(out->hold, out->model.cuts(), pool);
  }
  {
    Scope s(tr, "predict.GbdtModel::FlatSnapshot", root);
    out->flat = out->model.FlatSnapshot();
  }
  {
    Scope s(tr, "predict.Predictor::PredictMargins", root);
    out->margins = Predictor(*out->flat).PredictMargins(out->hold_bins, pool);
  }
  out->score_s = pass.Close();
  return true;
}

int RunModel(const Workload& w, const std::string& dir, bool trace,
             const std::string& run_id, const std::string& name) {
  Tracer tr(trace, name, run_id);
  StageResult result;
  ThreadPool pool(kThreads);
  const std::string model_path = dir + "/model.txt";
  std::string error;

  // Counters the per-layer metrics are derived from.
  GbdtModel trained;  // stays empty on score-serve, which trains nothing
  TrainStats stats;
  CommStats comm;
  IngestStats train_ingest;
  uint64_t train_parsed_values = 0;  // text fields / entries parsed
  uint64_t train_values = 0;   // values sketched and binned for training
  uint64_t total_cuts = 0;
  double time_to_model = 0.0;  // steal-adjusted, as every time reported
  double path_calm = 1.0;

  // ---- input on disk -> model file on disk
  if (w.kind != Kind::kScoreServe) {
    const StealClock clock;
    Scope path_span(tr, "bench.time_to_model");
    const int32_t root = path_span.id();
    Dataset train;
    BinnedMatrix matrix;
    std::vector<float> labels;
    if (w.kind == Kind::kTrainMmap) {
      Scope s(tr, "data.ReadBinnedCache", root);
      CacheReadOptions opts;
      opts.use_mmap = true;
      if (!ReadBinnedCache(TrainPath(dir, w), &matrix, &labels, &error,
                           opts)) {
        std::fprintf(stderr, "binned cache: %s\n", error.c_str());
        return 1;
      }
    } else if (!ReadText(tr, w, TrainPath(dir, w), &pool, root, &train,
                         &train_ingest)) {
      return 1;
    } else {
      train_parsed_values = ValueCount(train);
    }
    if (w.kind == Kind::kTrainCsv) {
      QuantileCuts cuts;
      {
        Scope s(tr, "data.QuantileCuts::Compute", root);
        cuts = QuantileCuts::Compute(train, w.params.max_bins, &pool);
      }
      Scope s(tr, "data.BinnedMatrix::Build", root);
      matrix = BinnedMatrix::Build(train, std::move(cuts), &pool);
      labels = train.labels();
      train_values = ValueCount(train);
    }
    if (w.kind == Kind::kDistSparse) {
      Scope s(tr, "distributed.DistributedGbdt::Train", root);
      DistributedResult dist =
          DistributedGbdt::Train(train, w.workers, w.params);
      trained = std::move(dist.model);
      comm = dist.comm;
    } else {
      Scope s(tr, "core.GbdtTrainer::TrainBinned", root);
      const int32_t boost_id = s.id();
      const IterCallback per_tree = [&](const IterationInfo& info) {
        if (!tr.enabled()) return;
        Span span;
        span.name = "core.tree";
        span.end_ns = NowNs();
        span.start_ns =
            span.end_ns - static_cast<int64_t>(info.tree_seconds * 1e9);
        span.parent = boost_id;
        span.tree = info.iteration;
        tr.Add(span);
      };
      trained = GbdtTrainer(w.params).TrainBinned(matrix, labels, &stats,
                                                  per_tree);
      total_cuts = TotalCuts(matrix.cuts());
    }
    {
      Scope s(tr, "core.SaveModel", root);
      if (!SaveModel(model_path, trained, &error)) {
        std::fprintf(stderr, "save: %s\n", error.c_str());
        return 1;
      }
    }
    path_span.Close();
    path_calm = clock.CalmShare();
    time_to_model = clock.WallSec() * path_calm;
  }

  // ---- model file + text file -> margins for every held-out row, a few
  // times; only the first pass is traced. One pass can be shorter than
  // 100 ms, where a single steal tick (10 ms) would move its calm share by
  // 10%, so the steal adjustment spans all passes.
  Tracer untraced(false, name, run_id);
  Scored scored;
  std::vector<double> score_times;
  double scored_s = 0.0;
  const StealClock score_clock;
  for (int pass = 0; pass < kMaxScorePasses &&
                     (pass < kMinScorePasses || scored_s < kScoreSeconds);
       ++pass) {
    if (!Score(pass == 0 ? tr : untraced, w, dir, &pool, &scored)) {
      return 1;
    }
    score_times.push_back(scored.score_s);
    scored_s += scored.score_s;
    // Peak RSS of one pass through the product path; later passes only
    // reshuffle the allocator's arenas.
    if (pass == 0) result.e2e["peak_rss_mb"] = PeakRssMb();
  }
  const Dataset& hold = scored.hold;
  const BinnedMatrix& hold_bins = scored.hold_bins;
  const GbdtModel& loaded = scored.model;
  const std::vector<double>& margins = scored.margins;
  const IngestStats& hold_ingest = scored.ingest;
  const Predictor predictor(*scored.flat);
  const double score_calm = score_clock.CalmShare();
  const double score_s = Median(score_times) * score_clock.SerialCalmShare();

  // ---- score-serve trains nothing: its path to a model is model file ->
  // model ready to score (load + flatten).
  if (w.kind == Kind::kScoreServe) {
    const StealClock clock;
    std::vector<double> ready;
    for (int i = 0; i < kReadyReps; ++i) {
      const Stopwatch watch;
      GbdtModel model;
      if (!LoadModel(model_path, &model, &error)) return 1;
      const std::shared_ptr<const FlatForest> flat = model.FlatSnapshot();
      ready.push_back(watch.ElapsedSec());
    }
    path_calm = clock.CalmShare();
    time_to_model = Median(ready) * clock.SerialCalmShare();
  }

  // ---- checks (outside the timed path)
  std::string model_bytes;
  result.Check(ReadFileToString(model_path, &model_bytes, &error),
               "model file readable");
  result.digests["model"] = Hex(Fnv1a(model_bytes));
  result.Check(SameBits(margins, predictor.PredictMargins(hold, &pool)),
               "binned margins equal raw-path margins");
  if (w.kind != Kind::kScoreServe) {
    result.Check(
        SameBits(margins, trained.PredictMarginsBinned(hold_bins, &pool)),
        "reloaded model margins equal in-memory model margins");
  }
  if (w.kind == Kind::kTrainMmap) {
    std::string reference;
    result.Check(ReadFileToString(dir + "/reference.model", &reference,
                                  &error) &&
                     reference == model_bytes,
                 "mmap-trained model equals the heap-trained reference");
  }

  result.e2e["time_to_model_s"] = time_to_model;
  result.e2e["score_rows_per_s"] = hold.num_rows() / score_s;
  result.e2e["holdout_auc"] = Auc(hold.labels(), margins);
  result.e2e["timed_s"] = time_to_model + score_s;
  result.e2e["calm_share"] = std::min(path_calm, score_calm);

  if (trace) {
    auto& L = result.layer;
    const uint64_t hold_values = ValueCount(hold);
    const double hold_cells =
        static_cast<double>(hold.num_rows()) * hold.num_features();
    // data: text parse, sketch, bin (rows x features one-byte bins
    // written, raw values read), binned-cache read.
    const double parse_s =
        tr.Seconds("data.ReadCsv") + tr.Seconds("data.ReadLibsvm");
    const double parsed_values =
        static_cast<double>(hold_values + train_parsed_values);
    L["data.parse_s"] = parse_s;
    L["data.values"] = parsed_values;
    L["data.parse_mb_per_s"] =
        static_cast<double>(train_ingest.bytes + hold_ingest.bytes) / 1e6 /
        parse_s;
    L["data.parse_ns_per_value"] = parse_s * 1e9 / parsed_values;
    const double sketch_s = tr.Seconds("data.QuantileCuts::Compute");
    L["data.sketch_s"] = sketch_s;
    L["data.sketch_ns_per_value"] =
        train_values > 0 ? sketch_s * 1e9 / train_values : 0.0;
    const double bin_s = tr.Seconds("data.BinnedMatrix::Build");
    const double binned = static_cast<double>(train_values) + hold_cells;
    L["data.bin_s"] = bin_s;
    L["data.bin_ns_per_value"] = bin_s * 1e9 / binned;
    L["_data.bin_bytes"] =
        static_cast<double>(train_values * sizeof(float)) +
        static_cast<double>(hold_values) *
            (hold.layout() == Dataset::Layout::kDense ? sizeof(float)
                                                      : sizeof(Entry)) +
        binned;  // one byte written per binned cell
    L["data.cache_read_s"] = tr.Seconds("data.ReadBinnedCache");
    L["data.mapped_mb"] = static_cast<double>(stats.mapped_bytes) / 1e6;
    L["data.prefetch_advised_mb"] =
        static_cast<double>(stats.oo_advised_bytes) / 1e6;
    L["data.prefetch_retired_mb"] =
        static_cast<double>(stats.oo_retired_bytes) / 1e6;
    L["data.minor_faults"] = static_cast<double>(stats.minor_faults);
    L["data.major_faults"] = static_cast<double>(stats.major_faults);

    // core: outside-timed boosting, per-tree spans, program-reported
    // phases. reduce_ns is timed inside build_hist_ns, so it is reported
    // but never subtracted again.
    const double boost_s = tr.Seconds("core.GbdtTrainer::TrainBinned");
    std::vector<double> tree_s = tr.Durations("core.tree");
    std::sort(tree_s.begin(), tree_s.end());
    L["core.boost_s"] = boost_s;
    L["core.tree_ms_p50"] = Median(tree_s) * 1e3;
    L["core.tree_ms_max"] = tree_s.empty() ? 0.0 : tree_s.back() * 1e3;
    const double build = NsToSec(stats.build_hist_ns);
    const double find = NsToSec(stats.find_split_ns);
    const double apply = NsToSec(stats.apply_split_ns);
    const double gradient = NsToSec(stats.gradient_ns);
    const double quantize = NsToSec(stats.quantize_ns);
    const double update = NsToSec(stats.update_ns);
    L["core.build_hist_s"] = build;
    L["core.reduce_s"] = NsToSec(stats.reduce_ns);
    L["core.find_split_s"] = find;
    L["core.apply_split_s"] = apply;
    L["core.gradient_s"] = gradient;
    L["core.quantize_s"] = quantize;
    L["core.update_s"] = update;
    L["core.unattributed_s"] =
        boost_s - (build + find + apply + gradient + quantize + update);
    L["core.hist_updates"] = static_cast<double>(stats.hist_updates);
    L["core.ns_per_hist_update"] =
        stats.hist_updates > 0 ? build * 1e9 / stats.hist_updates : 0.0;
    // Every node of every tree had its histogram searched over all cuts.
    const double candidate_bins =
        static_cast<double>(trained.TotalNodes()) * total_cuts;
    L["core.candidate_bins"] = candidate_bins;
    L["core.ns_per_candidate_bin"] =
        candidate_bins > 0 ? find * 1e9 / candidate_bins : 0.0;
    L["core.apply_bytes"] = static_cast<double>(stats.apply_bytes_moved);
    L["core.apply_gb_per_s"] =
        apply > 0 ? stats.apply_bytes_moved / apply / 1e9 : 0.0;
    L["core.nodes_split"] = static_cast<double>(stats.nodes_split);
    L["core.topk_batches"] = static_cast<double>(stats.topk_batches);
    L["core.model_save_s"] = tr.Seconds("core.SaveModel");
    L["core.model_load_s"] = tr.Seconds("core.LoadModel");
    L["core.model_bytes"] = static_cast<double>(model_bytes.size());

    // parallel: the pool's synchronization counters over training.
    L["parallel.utilization"] =
        stats.wall_ns > 0 ? stats.sync.Utilization(stats.wall_ns) : 0.0;
    L["parallel.barrier_overhead"] =
        stats.wall_ns > 0 ? stats.sync.BarrierOverhead() : 0.0;
    L["parallel.phase_barriers"] = static_cast<double>(stats.sync.phase_barriers);
    L["parallel.regions_per_batch"] =
        stats.topk_batches > 0 ? static_cast<double>(stats.grow_region_launches) /
                                     stats.topk_batches
                               : 0.0;

    // predict
    const double margins_s = tr.Seconds("predict.Predictor::PredictMargins");
    L["predict.flatten_s"] = tr.Seconds("predict.GbdtModel::FlatSnapshot");
    L["predict.margins_s"] = margins_s;
    L["predict.rows_per_s"] = hold.num_rows() / margins_s;
    L["predict.ns_per_row_tree"] =
        margins_s * 1e9 / (static_cast<double>(hold.num_rows()) *
                           static_cast<double>(loaded.NumTrees()));

    // distributed: communication counters summed over ranks.
    const double trees = static_cast<double>(std::max<size_t>(1, trained.NumTrees()));
    L["distributed.train_s"] = tr.Seconds("distributed.DistributedGbdt::Train");
    L["distributed.hist_wire_mb"] = comm.hist_wire_bytes / 1e6;
    L["distributed.hist_dense_mb"] = comm.hist_dense_bytes / 1e6;
    L["distributed.compression_ratio"] =
        comm.hist_wire_bytes > 0
            ? static_cast<double>(comm.hist_dense_bytes) / comm.hist_wire_bytes
            : 0.0;
    L["distributed.allreduce_mb"] = comm.allreduce_bytes / 1e6;
    L["distributed.broadcast_mb"] = comm.broadcast_bytes / 1e6;
    L["distributed.wire_mb_per_tree"] = comm.hist_wire_bytes / 1e6 / trees;

    for (const auto& [layer, self_s] : tr.LayerSelfSeconds()) {
      if (layer != "bench") L[layer + ".self_s"] = self_s;
    }
    L["trace.spans"] = static_cast<double>(tr.spans().size());
    const std::string path = dir + "/trace-model-" + run_id + ".json";
    result.Check(tr.Write(path), "trace written");
  }
  result.Print();
  return 0;
}

// ------------------------------------------------------------- serve stage

// Open-loop schedule: request i is due at start + i / rate, whatever the
// server is doing. Latency runs from the due time to the callback, so a
// stall also charges the requests queued behind it.
//
// The rate search starts at the nominal rate, doubles until a rung fails
// and then bisects (geometrically) between the highest passing and the
// lowest failing rate until they are within kRateResolution of each other,
// kBisections times.
constexpr double kNominalRate = 25000.0;
constexpr double kMaxRate = kNominalRate * 512;
constexpr double kRateResolution = 1.05;
constexpr int kBisections = 3;
constexpr double kP99LimitUs = 50000.0;
// A rung whose last tenth of requests waited longer than this at the
// median has a growing backlog: the offered rate exceeds capacity.
constexpr double kBacklogLimitUs = 5000.0;
// A rung during which some vCPU was stolen for more than this share of the
// time is run again, at most kRungTries times: steal cuts the capacity the
// search is after.
constexpr double kRungCalm = 0.8;
constexpr int kRungTries = 3;
constexpr int64_t kReloadEvery = 4096;  // requests between model swaps
constexpr int64_t kSampleEvery = 64;    // request spans kept when tracing
constexpr int64_t kWindowRequests = 10000;  // p99 window: 100 beyond it

struct ServeState {
  uint32_t num_rows = 0;
  const std::vector<double>* expect[2] = {nullptr, nullptr};
  std::vector<int64_t> due;
  std::vector<int64_t> latency;
  std::vector<uint32_t> gen_at_submit;  // model generation current at submit
  std::atomic<uint32_t> gen_started{0};  // reloads begun so far
  std::atomic<int64_t> done{0};
  std::atomic<int64_t> wrong{0};
};

struct StepResult {
  double achieved = 0.0;  // requests completed per second of the step
  int64_t sent = 0;
  int64_t wrong = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double late_max_ms = 0.0;
  double calm = 1.0;  // share of the step no vCPU was stolen
  bool pass = false;
  ServeStats stats;
  std::vector<double> reload_us;
  double submit_s = 0.0;  // summed SubmitWithCallback call time (traced)
};

StepResult RunStep(const GbdtModel* models[2], const std::vector<float>& rows,
                   ServeState& st, double rate, double seconds, Tracer& tr) {
  StepResult out;
  const int64_t n = static_cast<int64_t>(rate * seconds);
  st.due.assign(n, 0);
  st.latency.assign(n, 0);
  st.gen_at_submit.assign(n, 0);
  st.gen_started.store(0);
  st.done.store(0);
  st.wrong.store(0);

  const StealClock clock;
  Scope step(tr, "bench.serve_step");
  ServeConfig config;
  config.num_threads = 2;
  std::unique_ptr<ModelServer> server;
  {
    Scope s(tr, "serve.ModelServer::ModelServer", step.id());
    server = std::make_unique<ModelServer>(*models[0], config);
  }
  const uint32_t width = server->row_width();
  const double interval_ns = 1e9 / rate;
  const int64_t start = NowNs() + 1000000;
  int64_t late_max = 0;
  uint32_t gen = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t due = start + static_cast<int64_t>(i * interval_ns);
    st.due[i] = due;
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > 200000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 100000));
      } else {
        std::this_thread::yield();
      }
    }
    late_max = std::max(late_max, NowNs() - due);
    if (i > 0 && i % kReloadEvery == 0) {
      ++gen;
      st.gen_started.store(gen, std::memory_order_release);
      Scope s(tr, "serve.ModelServer::Reload", step.id());
      server->Reload(*models[gen & 1]);
      out.reload_us.push_back(s.Close() * 1e6);
    }
    st.gen_at_submit[i] = gen;
    const uint32_t r = static_cast<uint32_t>(i % st.num_rows);
    const int64_t submit_start = tr.enabled() ? NowNs() : 0;
    server->SubmitWithCallback(
        rows.data() + static_cast<size_t>(r) * width, width,
        [&st, i, r](double margin) {
          st.latency[i] = NowNs() - st.due[i];
          // The generation that served the row lies between the one
          // current at submit and the newest reload begun since.
          const uint32_t g0 = st.gen_at_submit[i];
          const uint32_t g1 = st.gen_started.load(std::memory_order_acquire);
          bool ok = false;
          for (uint32_t g = g0; g <= std::min(g1, g0 + 1) && !ok; ++g) {
            ok = std::memcmp(&margin, &(*st.expect[g & 1])[r],
                             sizeof(double)) == 0;
          }
          if (!ok) st.wrong.fetch_add(1, std::memory_order_relaxed);
          st.done.fetch_add(1, std::memory_order_release);
        });
    if (tr.enabled()) {
      const int64_t submit_end = NowNs();
      out.submit_s += (submit_end - submit_start) * 1e-9;
      if (i % kSampleEvery == 0) {
        Span span;
        span.name = "serve.ModelServer::SubmitWithCallback";
        span.start_ns = submit_start;
        span.end_ns = submit_end;
        span.parent = step.id();
        span.request = i;
        tr.Add(span);
      }
    }
  }
  // Wait for the tail; Shutdown serves anything still queued.
  const int64_t give_up = NowNs() + 2000000000LL;
  while (st.done.load(std::memory_order_acquire) < n && NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    Scope s(tr, "serve.ModelServer::Shutdown", step.id());
    server->Shutdown();
  }
  {
    Scope s(tr, "serve.ModelServer::Stats", step.id());
    out.stats = server->Stats();
  }
  step.Close();
  out.calm = clock.CalmShare();

  int64_t last_done = start;
  std::vector<double> lat_us(n);
  for (int64_t i = 0; i < n; ++i) {
    lat_us[i] = st.latency[i] * 1e-3;
    last_done = std::max(last_done, st.due[i] + st.latency[i]);
    if (tr.enabled() && i % kSampleEvery == 0) {
      Span span;
      span.name = "serve.request";
      span.start_ns = st.due[i];
      span.end_ns = st.due[i] + st.latency[i];
      span.parent = step.id();
      span.request = i;
      tr.Add(span);
    }
  }
  // p99 per window of kWindowRequests consecutive requests, median over
  // windows: one scheduler stall on a shared host spoils one window, not
  // the step.
  std::vector<double> window_p99;
  for (int64_t w0 = 0; w0 < n; w0 += kWindowRequests) {
    std::vector<double> window(lat_us.begin() + w0,
                               lat_us.begin() + std::min(n, w0 + kWindowRequests));
    std::sort(window.begin(), window.end());
    window_p99.push_back(PercentileOf(window, 0.99));
  }
  const std::vector<double> lat_us_by_request = lat_us;
  std::sort(lat_us.begin(), lat_us.end());
  out.sent = n;
  out.wrong = st.wrong.load() + (n - st.done.load());
  out.p50_us = PercentileOf(lat_us, 0.50);
  out.p99_us = Median(window_p99);
  out.late_max_ms = late_max * 1e-6;
  out.achieved = n / ((last_done - start) * 1e-9);
  std::vector<double> tail(lat_us_by_request.end() - std::max<int64_t>(1, n / 10),
                           lat_us_by_request.end());
  out.pass = out.p99_us <= kP99LimitUs && Median(tail) <= kBacklogLimitUs;
  std::fprintf(stderr,
               "serve %.0f rows/s: done %.0f rows/s, p99 %.0f us, tail p50 "
               "%.0f us, calm %.2f, %s\n",
               rate, out.achieved, out.p99_us, Median(tail), out.calm,
               out.pass ? "pass" : "fail");
  return out;
}

int RunServe(const Workload& w, const std::string& dir, bool trace,
             const std::string& run_id, const std::string& name,
             double step_seconds) {
  Tracer tr(trace, name, run_id);
  StageResult result;
  std::string error;
  GbdtModel model_a;
  if (!LoadModel(dir + "/model.txt", &model_a, &error)) {
    std::fprintf(stderr, "load: %s\n", error.c_str());
    return 1;
  }
  const GbdtModel model_b = Prefix(model_a, (model_a.NumTrees() + 1) / 2);
  const GbdtModel* models[2] = {&model_a, &model_b};

  // Requests are held-out rows densified to the model's width, as a
  // serving client sends them; at most 16 MiB of them, cycled.
  ThreadPool pool(kThreads);
  Dataset hold;
  if (!ReadText(tr, w, HoldPath(dir, w), &pool, -1, &hold, nullptr)) return 1;
  const uint32_t width = model_a.cuts().num_features();
  const uint32_t num_rows = std::min<uint32_t>(
      hold.num_rows(), std::max<uint32_t>(1, (16u << 20) / (width * 4)));
  std::vector<float> rows(static_cast<size_t>(num_rows) * width, kMissingValue);
  for (uint32_t r = 0; r < num_rows; ++r) {
    hold.ForEachInRow(r, [&](uint32_t f, float v) {
      if (f < width) rows[static_cast<size_t>(r) * width + f] = v;
    });
  }
  const Dataset dense = Dataset::FromDense(
      num_rows, width, rows, std::vector<float>(num_rows, 0.0f));
  const std::vector<double> expect_a =
      Predictor(*model_a.FlatSnapshot()).PredictMargins(dense, &pool);
  const std::vector<double> expect_b =
      Predictor(*model_b.FlatSnapshot()).PredictMargins(dense, &pool);

  ServeState st;
  st.num_rows = num_rows;
  st.expect[0] = &expect_a;
  st.expect[1] = &expect_b;

  // The nominal rung runs four times as long as the others, for a p99 with
  // hundreds of samples beyond it.
  std::vector<StepResult> steps;
  auto run_rung = [&](double rate, double seconds) {
    for (int t = 0; t < kRungTries; ++t) {
      steps.push_back(RunStep(models, rows, st, rate, seconds, tr));
      if (steps.back().calm >= kRungCalm) break;
    }
    return steps.back();
  };
  const StepResult nominal = run_rung(kNominalRate, 4 * step_seconds);
  // Rows/s completed on the highest passing rung, one per bisection. The
  // search is a per-layer metric, so it runs with tracing on only.
  std::vector<double> found;
  if (trace && nominal.pass) {
    double lo = kNominalRate;  // highest passing rate
    double lo_rps = nominal.achieved;
    double hi = 0.0;           // lowest failing rate, once one failed
    while (hi == 0.0 && lo < kMaxRate) {
      const double rate = 2 * lo;
      if (run_rung(rate, step_seconds).pass) {
        lo = rate;
        lo_rps = steps.back().achieved;
      } else {
        hi = rate;
      }
    }
    // Within a few percent of capacity a rung passes or fails by chance,
    // so one bisection lands anywhere in a band of about 10%; the median
    // of several is steadier.
    for (int k = 0; k < (hi > 0.0 ? kBisections : 1); ++k) {
      double a = lo, a_rps = lo_rps, b = hi;
      while (b > 0.0 && b / a > kRateResolution) {
        const double rate = std::sqrt(a * b);
        if (run_rung(rate, step_seconds).pass) {
          a = rate;
          a_rps = steps.back().achieved;
        } else {
          b = rate;
        }
      }
      found.push_back(a_rps);
    }
  }

  int64_t sent = 0, wrong = 0, unfreed = 0;
  std::vector<double> reload_us;
  for (const StepResult& s : steps) {
    sent += s.sent;
    wrong += s.wrong;
    unfreed += s.stats.snapshots_retired - s.stats.snapshots_freed;
    reload_us.insert(reload_us.end(), s.reload_us.begin(), s.reload_us.end());
  }
  result.attempted = sent;
  result.failed = wrong;
  if (wrong > 0) std::fprintf(stderr, "CHECK FAILED: %lld served margins wrong or missing\n",
                              static_cast<long long>(wrong));

  result.Check(unfreed == 0, "every retired snapshot freed");

  if (trace) {
    auto& L = result.layer;
    const ServeStats& ns = nominal.stats;
    L["serve.max_rps"] = Median(found);
    L["serve.sent"] = static_cast<double>(sent);
    L["serve.ok"] = static_cast<double>(sent - wrong);
    L["serve.failed"] = static_cast<double>(wrong);
    L["serve.request_p50_us"] = nominal.p50_us;
    L["serve.request_p99_us"] = nominal.p99_us;
    L["serve.nominal_samples"] = static_cast<double>(nominal.sent);
    L["serve.queue_p50_us"] = ns.queue_ns.PercentileNs(0.50) * 1e-3;
    L["serve.queue_p99_us"] = ns.queue_ns.PercentileNs(0.99) * 1e-3;
    L["serve.service_p50_us"] = ns.service_ns.PercentileNs(0.50) * 1e-3;
    L["serve.service_p99_us"] = ns.service_ns.PercentileNs(0.99) * 1e-3;
    L["serve.batch_fill"] = ns.avg_batch_fill;
    L["serve.deadline_seal_frac"] =
        ns.batches_served > 0
            ? static_cast<double>(ns.deadline_seals) / ns.batches_served
            : 0.0;
    L["serve.admission_contended_frac"] =
        ns.admission_lock.acquires > 0
            ? static_cast<double>(ns.admission_lock.contended) /
                  ns.admission_lock.acquires
            : 0.0;
    std::sort(reload_us.begin(), reload_us.end());
    L["serve.reload_p50_us"] = Median(reload_us);
    L["serve.reload_max_us"] = reload_us.empty() ? 0.0 : reload_us.back();
    L["serve.snapshots_unfreed"] = static_cast<double>(unfreed);
    L["serve.generator_late_max_ms"] = nominal.late_max_ms;
    double submit_s = 0.0;
    for (const StepResult& s : steps) submit_s += s.submit_s;
    // Submit spans carry a request id and are sampled, so the self time
    // adds the exact summed call time instead.
    L["serve.self_s"] = tr.LayerSelfSeconds()["serve"] + submit_s;
    L["trace.serve_spans"] = static_cast<double>(tr.spans().size());
    result.Check(tr.Write(dir + "/trace-serve-" + run_id + ".json"),
                 "trace written");
  }
  result.Print();
  return 0;
}

// ---------------------------------------------------------------- copy probe

// STREAM-style copy on every core: each array is at least 4x the
// last-level cache, so the probe measures memory, not cache. Bandwidth
// counts bytes read plus bytes written, as STREAM does.
int RunCopy(const std::string& dir) {
  Tracer tr(true, "host", "copy");
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const size_t bytes =
      std::max<size_t>(448u << 20, 4 * static_cast<size_t>(std::max(0L, llc)));
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::vector<double> gbps;
  for (int pass = 0; pass < 6; ++pass) {
    Scope s(tr, "host.copy");
    std::vector<std::thread> threads;
    const size_t chunk = bytes / kThreads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::memcpy(dst.data() + t * chunk, src.data() + t * chunk, chunk);
      });
    }
    for (auto& th : threads) th.join();
    if (pass > 0) gbps.push_back(2.0 * bytes / s.Close() / 1e9);
  }
  StageResult result;
  result.Check(dst[bytes / 2] == 1, "copy landed");
  result.layer["host.copy_gb_per_s"] = Median(gbps);
  result.layer["host.copy_array_mib"] = static_cast<double>(bytes >> 20);
  result.layer["host.llc_mib"] = static_cast<double>(std::max(0L, llc) >> 20);
  result.layer["host.self_s"] = tr.LayerSelfSeconds()["host"];
  result.Check(tr.Write(dir + "/trace-copy.json"), "trace written");
  result.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string stage = argc > 1 ? argv[1] : "";
  if (stage == "copy" && argc == 3) return RunCopy(argv[2]);
  if (argc < 7) {
    std::fprintf(stderr,
                 "usage: harp_e2e setup|model|serve <workload> <seed> <dir> "
                 "<trace> <run-id> [step-seconds]\n"
                 "       harp_e2e copy <dir>\n");
    return 2;
  }
  const std::string name = argv[2];
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const std::string dir = argv[4];
  const bool trace = std::strcmp(argv[5], "1") == 0;
  Workload w;
  if (!MakeWorkload(name, seed, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", name.c_str());
    return 2;
  }
  if (stage == "setup") return RunSetup(w, dir, trace, argv[6], name);
  if (stage == "model") return RunModel(w, dir, trace, argv[6], name);
  if (stage == "serve" && argc == 8) {
    return RunServe(w, dir, trace, argv[6], name, std::atof(argv[7]));
  }
  std::fprintf(stderr, "bad arguments\n");
  return 2;
}
