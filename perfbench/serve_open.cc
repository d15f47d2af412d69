// The `serve-open` workload: open-loop single-document classification
// through serve::Server on the PLM simple-match route (fp32, default
// ServeOptions). It is the only workload that exercises admission,
// coalescing and queueing, running the frozen encoder in small concurrent
// batches.
//
// Open-loop discipline: each phase's Poisson arrival schedule is fixed
// from the seed before the phase starts; latency runs from each request's
// scheduled send time to its answer; the generator reports how late it
// sent; the collector blocks on a condition variable and on the futures;
// every rate is an absolute number of requests per second.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/serve_adapters.h"
#include "index/ann.h"
#include "la/matrix.h"
#include "plm/minilm.h"
#include "plm/quantized_minilm.h"
#include "serve/serve.h"
#include "text/vocabulary.h"

namespace perfbench {
namespace {

constexpr size_t kVocab = 1000;
constexpr size_t kMaxSeq = 48;
constexpr size_t kPoolDocs = 512;
constexpr size_t kClasses = 8;
constexpr int kSetups = 5;

// p99 limit of a ladder rung, measured from the scheduled send time.
constexpr double kLatencyLimitMs = 25.0;
// The reference rate, about a quarter of the fp32 capacity measured when
// the benchmark was written, and the ladder above it: absolute rates from
// 3000 req/s in 6% steps (rounded to 10 req/s) up to about 16000 req/s.
constexpr double kReferenceRate = 1500.0;
constexpr int kLadderRungs = 30;
double LadderRate(int rung) {
  return 10.0 * std::round(300.0 * std::pow(1.06, rung));
}
// A rung ends early once this many requests are outstanding, below the
// default queue depth (256), so the server never sheds.
constexpr int64_t kAbortOutstanding = 240;
// Phases are cut into windows; a phase's p99 is the median of the
// windows' p99s, so one stall of the host does not decide a rung.
constexpr int kWindows = 3;
constexpr std::chrono::microseconds kSpinAhead(500);
// Outstanding requests left when a rung's last request is sent; above
// this the backlog is growing.
constexpr int64_t kBacklogLimit = 128;
// Closed-loop burst: requests kept in flight, and how many to send.
constexpr size_t kBurstWindow = 192;
constexpr size_t kBurstRequests = 4000;

// 70% short, 25% medium, 5% near max_seq.
std::vector<std::vector<int32_t>> SkewedDocs(stm::Rng& rng) {
  std::vector<std::vector<int32_t>> docs(kPoolDocs);
  for (auto& doc : docs) {
    const double r = rng.Uniform();
    size_t len = 0;
    if (r < 0.70) {
      len = 4 + rng.UniformInt(9);
    } else if (r < 0.95) {
      len = 13 + rng.UniformInt(16);
    } else {
      len = kMaxSeq - 12 + rng.UniformInt(13);
    }
    doc.resize(len);
    for (int32_t& id : doc) {
      id = stm::text::kNumSpecialTokens +
           static_cast<int32_t>(
               rng.UniformInt(kVocab - stm::text::kNumSpecialTokens));
    }
  }
  return docs;
}

// Wraps the registered adapter to time each Classify call (traced runs)
// or to plant one wrong answer (the benchmark's own test).
class TimedServable : public stm::serve::Classifier {
 public:
  TimedServable(std::shared_ptr<const stm::serve::Classifier> inner,
                bool plant_wrong_answer)
      : inner_(std::move(inner)), plant_(plant_wrong_answer) {}

  std::string name() const override { return inner_->name(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  Input input() const override { return inner_->input(); }

  stm::serve::Prediction Classify(const std::vector<int32_t>& ids,
                                  const float* pooled,
                                  const stm::la::Matrix* hidden)
      const override {
    const Clock::time_point start = Clock::now();
    stm::serve::Prediction prediction;
    {
      Span span("core.PooledCosineServable.Classify");
      prediction = inner_->Classify(ids, pooled, hidden);
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    if (plant_ && ++calls_ % 50 == 0 && !prediction.scores.empty()) {
      prediction.scores[0] += 1.0f;
    }
    classify_us_.push_back(us);
    return prediction;
  }

  std::vector<double> TakeClassifyUs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(classify_us_, {});
  }

 private:
  std::shared_ptr<const stm::serve::Classifier> inner_;
  const bool plant_;
  mutable std::mutex mu_;
  mutable size_t calls_ = 0;
  mutable std::vector<double> classify_us_;
};

struct Setup {
  std::vector<std::vector<int32_t>> docs;
  std::unique_ptr<stm::plm::MiniLm> model;
  stm::la::Matrix panel;  // batch-path reference scores, docs x classes
  std::shared_ptr<TimedServable> timed;  // null when serving the adapter
  std::unique_ptr<stm::serve::Server> server;
  size_t warmup_wrong = 0;  // warm-up answers that differ from `panel`
};

bool MatchesReference(const Setup& setup, size_t doc,
                      const stm::serve::Prediction& prediction);

Setup MakeSetup(const RunConfig& run) {
  Setup setup;
  stm::Rng rng(run.seed * 0x9E3779B97F4A7C15ULL + 5);
  setup.docs = SkewedDocs(rng);
  std::vector<std::vector<int32_t>> names(kClasses);
  for (auto& name : names) {
    for (int t = 0; t < 2; ++t) {
      name.push_back(stm::text::kNumSpecialTokens +
                     static_cast<int32_t>(rng.UniformInt(
                         kVocab - stm::text::kNumSpecialTokens)));
    }
  }
  stm::plm::MiniLmConfig config;
  config.vocab_size = kVocab;
  config.dim = 40;
  config.layers = 2;
  config.heads = 4;
  config.ffn_dim = 80;
  config.max_seq = kMaxSeq;
  config.seed = 17;
  {
    // Random init: serving cost does not depend on training.
    Span span("plm.MiniLm");
    setup.model = std::make_unique<stm::plm::MiniLm>(config);
  }
  {
    Span span("plm.PoolBatch.reference");
    const stm::la::Matrix class_reps = setup.model->PoolBatch(names);
    setup.panel = stm::ann::SimilarityPanel(
        setup.model->PoolBatch(setup.docs), class_reps);
  }
  std::shared_ptr<const stm::serve::Classifier> adapter =
      stm::core::MakePlmSimpleMatchServable(setup.model.get(), names);
  if (run.traced || run.plant == "serve-answer") {
    setup.timed = std::make_shared<TimedServable>(
        adapter, run.plant == "serve-answer");
    adapter = setup.timed;
  }
  setup.server = std::make_unique<stm::serve::Server>(
      setup.model.get(), stm::serve::ServeOptions{});
  if (!setup.server->Register("match", adapter).ok()) {
    setup.server.reset();
    return setup;
  }
  // Warm-up: freeze/pack the encoder and start the drain workers.
  for (size_t i = 0; i < 64; ++i) {
    const auto answer = setup.server->Serve("match", setup.docs[i]);
    if (!answer.ok() || !MatchesReference(setup, i, *answer)) {
      ++setup.warmup_wrong;
    }
  }
  (void)setup.server->TakeLatenciesMs();
  if (setup.timed) (void)setup.timed->TakeClassifyUs();
  return setup;
}

// True when `prediction` carries exactly the batch path's bits for `doc`.
bool MatchesReference(const Setup& setup, size_t doc,
                      const stm::serve::Prediction& prediction) {
  if (prediction.scores.size() != kClasses) return false;
  int want = 0;
  float best = -2.0f;
  for (size_t c = 0; c < kClasses; ++c) {
    const float ref = setup.panel.At(doc, c);
    if (ref > best) {
      best = ref;
      want = static_cast<int>(c);
    }
    if (std::memcmp(&ref, &prediction.scores[c], sizeof(float)) != 0) {
      return false;
    }
  }
  return prediction.label == want;
}

struct PhaseResult {
  double rate = 0.0;
  size_t sent = 0;
  size_t failed = 0;
  size_t wrong = 0;
  size_t within_limit = 0;  // right answers within kLatencyLimitMs
  bool aborted = false;
  int64_t backlog_end = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;  // scheduled send -> answer
  std::vector<double> due_s;       // scheduled send, from phase start
  std::vector<double> late_ms;     // actual send - scheduled send
  std::vector<double> submit_us;   // duration of Server::Submit

  // Median over `windows` equal time windows of each window's p99.
  double WindowedP99(int windows) const {
    std::vector<std::vector<double>> split(static_cast<size_t>(windows));
    for (size_t i = 0; i < latency_ms.size(); ++i) {
      const size_t w = std::min<size_t>(
          split.size() - 1, static_cast<size_t>(due_s[i] / seconds * windows));
      split[w].push_back(latency_ms[i]);
    }
    std::vector<double> p99s;
    for (const auto& window : split) p99s.push_back(Quantile(window, 0.99));
    return Median(p99s);
  }

  double within_limit_share() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(within_limit) /
                           static_cast<double>(sent);
  }
  bool passes() const {
    return !aborted && failed == 0 && wrong == 0 &&
           backlog_end <= kBacklogLimit &&
           WindowedP99(kWindows) <= kLatencyLimitMs;
  }
};

// One open-loop phase at `rate` req/s for `seconds`.
PhaseResult OpenLoopPhase(const Setup& setup, double rate, double seconds,
                          uint64_t phase_seed, uint64_t* next_request_id) {
  // The schedule and the document of every request, fixed up front.
  stm::Rng rng(phase_seed);
  std::vector<int64_t> offset_ns;
  std::vector<uint32_t> doc_of;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    offset_ns.push_back(static_cast<int64_t>(t * 1e9));
    doc_of.push_back(static_cast<uint32_t>(rng.UniformInt(kPoolDocs)));
  }

  struct Pending {
    std::future<stm::StatusOr<stm::serve::Prediction>> future;
    Clock::time_point due;
    uint32_t doc = 0;
    uint64_t id = 0;
  };
  PhaseResult result;
  result.rate = rate;
  result.seconds = seconds;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool closed = false;
  std::atomic<int64_t> outstanding{0};
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);

  std::thread collector([&] {
    for (;;) {
      Pending pending;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !handoff.empty() || closed; });
        if (handoff.empty()) return;
        pending = std::move(handoff.front());
        handoff.pop_front();
      }
      const stm::StatusOr<stm::serve::Prediction> answer =
          pending.future.get();
      const Clock::time_point done = Clock::now();
      outstanding.fetch_sub(1, std::memory_order_relaxed);
      const double ms =
          std::chrono::duration<double, std::milli>(done - pending.due)
              .count();
      result.latency_ms.push_back(ms);
      result.due_s.push_back(
          std::chrono::duration<double>(pending.due - start).count());
      if (!answer.ok()) {
        ++result.failed;
      } else if (!MatchesReference(setup, pending.doc, *answer)) {
        ++result.wrong;
      } else if (ms <= kLatencyLimitMs) {
        ++result.within_limit;
      }
      Tracer::Record("gen.request", Tracer::ToNs(pending.due),
                     Tracer::ToNs(done), pending.id);
    }
  });

  for (size_t i = 0; i < offset_ns.size(); ++i) {
    Pending pending;
    pending.due = start + std::chrono::nanoseconds(offset_ns[i]);
    pending.doc = doc_of[i];
    pending.id = (*next_request_id)++;
    // Sleep until just before the send time, then spin: a vCPU woken from
    // halt can run milliseconds late on a shared host.
    std::this_thread::sleep_until(pending.due - kSpinAhead);
    Clock::time_point sent = Clock::now();
    while (sent < pending.due) sent = Clock::now();
    if (outstanding.load(std::memory_order_relaxed) >= kAbortOutstanding) {
      result.aborted = true;
      break;
    }
    result.late_ms.push_back(
        std::chrono::duration<double, std::milli>(sent - pending.due)
            .count());
    {
      Span span("serve.Server.Submit", pending.id);
      pending.future = setup.server->Submit("match", setup.docs[pending.doc]);
    }
    result.submit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - sent)
            .count());
    outstanding.fetch_add(1, std::memory_order_relaxed);
    ++result.sent;
    {
      std::lock_guard<std::mutex> lock(mu);
      handoff.push_back(std::move(pending));
    }
    cv.notify_one();
  }
  result.backlog_end = outstanding.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  collector.join();
  return result;
}

// Closed loop with kBurstWindow requests in flight: the drain rate when
// the queue never runs dry.
double BurstPhase(const Setup& setup, uint64_t seed, PhaseResult* result) {
  stm::Rng rng(seed);
  std::deque<std::pair<std::future<stm::StatusOr<stm::serve::Prediction>>,
                       uint32_t>>
      in_flight;
  auto collect_one = [&] {
    const stm::StatusOr<stm::serve::Prediction> answer =
        in_flight.front().first.get();
    if (!answer.ok()) {
      ++result->failed;
    } else if (!MatchesReference(setup, in_flight.front().second, *answer)) {
      ++result->wrong;
    }
    in_flight.pop_front();
  };
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < kBurstRequests; ++i) {
    if (in_flight.size() == kBurstWindow) collect_one();
    const uint32_t doc = static_cast<uint32_t>(rng.UniformInt(kPoolDocs));
    in_flight.emplace_back(setup.server->Submit("match", setup.docs[doc]),
                           doc);
    ++result->sent;
  }
  while (!in_flight.empty()) collect_one();
  return static_cast<double>(kBurstRequests) / SecondsSince(start);
}

}  // namespace

StageResult RunServeOpen(const RunConfig& run) {
  StageResult result;
  stm::plm::SetQuantInference(0);

  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.server.reset();  // stop it before its model goes away
    setup_s.push_back(
        Timed("setup.serve-open", [&] { setup = MakeSetup(run); }));
  }
  if (!setup.server) {
    result.Check(false, "serve-open: Register failed");
    return result;
  }
  result.Check(setup.warmup_wrong == 0,
               "serve-open: " + std::to_string(setup.warmup_wrong) +
                   " warm-up answers failed or differ from PoolBatch + "
                   "SimilarityPanel");
  uint64_t digest = 0xCBF29CE484222325ULL;
  for (const auto& doc : setup.docs) {
    digest = Fnv1a(digest, doc.data(), doc.size() * 4);
  }
  result.inputs_digest = digest;

  const double seconds = std::max(1.0, run.seconds);
  uint64_t next_request_id = 1;
  const stm::serve::Server::Stats before = setup.server->stats();
  PhaseResult reference =
      OpenLoopPhase(setup, kReferenceRate, 0.25 * seconds,
                    run.seed * 1000 + 1, &next_request_id);
  const stm::serve::Server::Stats after_reference = setup.server->stats();
  const double ewma_batch_ms = setup.server->health().ewma_batch_ms;
  std::vector<double> classify_us;
  if (setup.timed) classify_us = setup.timed->TakeClassifyUs();

  // The ladder climbs until a rung fails twice in a row; max_qps is the
  // last rung that passed with every lower one (the reference rate
  // included).
  std::vector<PhaseResult> phases = {reference};
  double max_qps = reference.passes() ? kReferenceRate : 0.0;
  for (int r = 0; r < 2 * kLadderRungs && max_qps > 0.0; ++r) {
    const double rate = LadderRate(r / 2);
    if (r % 2 == 1 && phases.back().passes()) continue;  // no retry needed
    phases.push_back(OpenLoopPhase(setup, rate, 0.06 * seconds,
                                   run.seed * 1000 + 2 + r,
                                   &next_request_id));
    if (phases.back().passes()) {
      max_qps = rate;
    } else if (r % 2 == 1) {
      break;
    }
  }
  PhaseResult burst;
  const double burst_qps = BurstPhase(setup, run.seed * 1000 + 999, &burst);
  phases.push_back(burst);

  for (const PhaseResult& phase : phases) {
    result.attempted += phase.sent;
    result.failed += phase.failed + phase.wrong;
    result.Check(phase.wrong == 0,
                 "serve-open: " + std::to_string(phase.wrong) +
                     " served answers differ from PoolBatch + "
                     "SimilarityPanel");
  }
  for (const PhaseResult& phase : phases) {
    if (phase.rate == 0.0) continue;
    std::printf("serve rung %.0f req/s: sent %zu failed %zu p99 %.3f ms "
                "backlog %lld%s -> %s\n",
                phase.rate, phase.sent, phase.failed,
                phase.WindowedP99(kWindows),
                static_cast<long long>(phase.backlog_end),
                phase.aborted ? " (ended early)" : "",
                phase.passes() ? "pass" : "fail");
  }

  const double p50 = Quantile(reference.latency_ms, 0.5);
  const double p99 = reference.WindowedP99(static_cast<int>(
      std::max(1.0, std::round(reference.seconds))));
  const double late_p99 = Quantile(reference.late_ms, 0.99);
  result.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"capacity_per_s", max_qps, "1/s"},
      {"answer_per_s", burst_qps, "1/s"},
      {"p50_ms", p50, "ms"},
      {"tail_ms", p99, "ms"},
      {"quality", reference.within_limit_share(), "ratio"},
  };
  result.named = {
      {"serve_p50_ms", p50, "ms"},
      {"serve_p99_ms", p99, "ms"},
      {"serve_max_qps", max_qps, "req/s"},
      {"serve_burst_qps", burst_qps, "req/s"},
      {"serve_within_limit_share", reference.within_limit_share(), "ratio"},
      {"serve_reference_requests", static_cast<double>(reference.sent),
       "count"},
      {"gen_late_ms_p99", late_p99, "ms"},
  };

  if (run.traced) {
    const stm::serve::Server::Stats stats = setup.server->stats();
    const double batches =
        static_cast<double>(after_reference.batches - before.batches);
    const double fill =
        batches > 0
            ? static_cast<double>(after_reference.completed -
                                  before.completed) /
                  batches
            : 0.0;
    auto layer = [&](const char* name, double value, const char* unit) {
      result.layers.push_back({name, value, unit});
    };
    layer("serve.batch_fill", fill, "req/batch");
    layer("serve.batch_ms", ewma_batch_ms, "ms");
    layer("serve.max_queue", static_cast<double>(after_reference.max_queue),
          "count");
    layer("serve.submit_us.p99", Quantile(reference.submit_us, 0.99), "us");
    layer("serve.classify_us.p50", Quantile(classify_us, 0.5), "us");
    layer("serve.shed", static_cast<double>(stats.shed), "count");
    layer("serve.deadline_exceeded",
          static_cast<double>(stats.deadline_exceeded), "count");
    layer("gen.late_ms.p99", late_p99, "ms");

    // PoolBatch replayed on batches of the measured mean fill.
    const size_t batch = std::max<size_t>(1, std::lround(fill));
    stm::Rng rng(run.seed + 77);
    std::vector<double> batch_ms;
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<std::vector<int32_t>> docs;
      for (size_t i = 0; i < batch; ++i) {
        docs.push_back(setup.docs[rng.UniformInt(kPoolDocs)]);
      }
      Span span("plm.PoolBatch.fill");
      const Clock::time_point start = Clock::now();
      (void)setup.model->PoolBatch(docs);
      batch_ms.push_back(SecondsSince(start) * 1e3);
    }
    layer("plm.pool_batch_ms.fill", Median(batch_ms), "ms");
  }
  setup.server->Shutdown();
  return result;
}

}  // namespace perfbench
