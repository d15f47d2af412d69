#ifndef STM_PERFBENCH_BENCH_H_
#define STM_PERFBENCH_BENCH_H_

// Shared types of the perfbench workloads: the run configuration, the
// per-stage result, timing/percentile helpers and the span tracer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set size of this process in MiB.
double PeakRssMb();

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 20.0;  // measurement budget of the stage
  bool traced = false;    // record spans and per-layer metrics
  // Test hook: "serve-answer", "f1-drop" or "recall" plants a defect the
  // stage's correctness checks must catch; empty in real runs.
  std::string plant;
  std::string work_dir;   // scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct StageResult {
  uint64_t attempted = 0;  // operations: documents, requests, queries
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  // The BENCHMARK.json end_to_end slots, filled by every workload.
  std::vector<Metric> e2e;
  // The workload's own end-to-end figures, by their descriptive names.
  std::vector<Metric> named;
  // Per-layer metrics; filled only when RunConfig::traced.
  std::vector<Metric> layers;
  // Digest of the generated inputs (same seed => same digest).
  uint64_t inputs_digest = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// FNV-1a over raw bytes, for input digests.
uint64_t Fnv1a(uint64_t hash, const void* data, size_t bytes);

// The three workloads. Each one sets itself up several times (setup_s is
// the median), then measures for about `config.seconds`.
StageResult RunPipeline(const RunConfig& config);
StageResult RunServeOpen(const RunConfig& config);
StageResult RunCorpusStream(const RunConfig& config);

// ---- tracing ----
//
// Spans wrap the benchmark's own calls into library modules. A span name
// is "<layer>.<call>"; the layer is the module (plm, la, nn, index,
// cluster, embedding, text, core, serve, common). Recording costs one
// relaxed load when tracing is off. Spans stay in memory until the run
// ends, then go out as Chrome trace-event JSON.

struct SpanRecord {
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    // index of the enclosing span on the same thread
  uint64_t request_id = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  // Nanoseconds on the trace clock (steady_clock since process start).
  static int64_t ToNs(Clock::time_point t);
  static int64_t NowNs() { return ToNs(Clock::now()); }
  // Opens a span on the calling thread; -1 when tracing is off.
  static int64_t Begin(const char* name, uint64_t request_id);
  static void End(int64_t index);
  // Records a finished span measured across threads (a request's life
  // from its scheduled send to its answer); no parent.
  static void Record(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t request_id);
  static std::vector<SpanRecord> Snapshot();

 private:
  static std::atomic<bool> enabled_;
};

class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0)
      : index_(Tracer::Begin(name, request_id)) {}
  ~Span() { Tracer::End(index_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

// Runs `fn` inside a span named `name`; returns its wall time in seconds.
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  Span span(name);
  const Clock::time_point start = Clock::now();
  fn();
  return SecondsSince(start);
}

// Per layer: total span time minus the part covered by child spans.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

// Writes `spans` as a Chrome trace-event JSON file; false on I/O error.
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

}  // namespace perfbench

#endif  // STM_PERFBENCH_BENCH_H_
