#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// ---- tracer ----

std::atomic<bool> Tracer::enabled_{false};

namespace {

const Clock::time_point kTraceEpoch = Clock::now();

std::mutex& SpansMutex() {
  static std::mutex mu;
  return mu;
}

std::vector<SpanRecord>& Spans() {
  static std::vector<SpanRecord> spans;
  return spans;
}

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

// Open spans of the calling thread, innermost last.
std::vector<int64_t>& OpenSpans() {
  thread_local std::vector<int64_t> open;
  return open;
}

}  // namespace

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

int64_t Tracer::ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kTraceEpoch)
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled()) return -1;
  std::vector<int64_t>& open = OpenSpans();
  SpanRecord span;
  span.name = name;
  span.parent = open.empty() ? -1 : open.back();
  span.request_id = request_id;
  span.thread = ThreadNumber();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(SpansMutex());
    index = static_cast<int64_t>(Spans().size());
    span.start_ns = NowNs();
    Spans().push_back(span);
  }
  open.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(SpansMutex());
    Spans()[static_cast<size_t>(index)].end_ns = end;
  }
  OpenSpans().pop_back();
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request_id) {
  if (!enabled()) return;
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.request_id = request_id;
  span.thread = ThreadNumber();
  std::lock_guard<std::mutex> lock(SpansMutex());
  Spans().push_back(span);
}

std::vector<SpanRecord> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(SpansMutex());
  return Spans();
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  // Children of one parent run on the parent's thread, nested and
  // disjoint, so their summed duration is the covered part.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    const int64_t own = spans[i].end_ns - spans[i].start_ns - child_ns[i];
    self[layer] += static_cast<double>(own) * 1e-9;
  }
  return self;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string name = s.name;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"parent\": %lld, \"request_id\": %llu}}%s\n",
                 s.name, name.substr(0, name.find('.')).c_str(), s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
