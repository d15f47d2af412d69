// The `corpus-stream` workload: ingest a corpus, most of whose documents
// repeat, into a sharded store through a timing Env; stream TF-IDF over
// the store; pool every shard through the frozen int8 encoder with an
// EncodeCache installed; build the ANN index through IndexBuilder at a
// size where `auto` picks the LSH tier; answer a fixed set of top-10
// queries. It is the only workload with shared work (cache hits beside
// encoder misses), disk writes beside mmap reads, int8 kernels and the
// LSH tier.

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/env.h"
#include "common/rng.h"
#include "index/ann.h"
#include "la/matrix.h"
#include "plm/encode_cache.h"
#include "plm/minilm.h"
#include "plm/quantized_minilm.h"
#include "text/corpus_store.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"

namespace perfbench {
namespace {

constexpr size_t kDocs = 120000;
constexpr size_t kDistinct = 12000;  // so about 90% of the documents repeat
constexpr size_t kVocab = 5000;
constexpr size_t kMinLen = 8;
constexpr size_t kMaxLen = 48;
constexpr size_t kQueries = 2000;
constexpr size_t kTopK = 10;
constexpr size_t kLabels = 4;
constexpr int kSetups = 5;
// Lowest acceptable mean recall@10 of the LSH tier against the brute
// tier on the same rows: 0.75 x the lowest value recorded over seeds
// 31-35 and 41-60 (0.516).
constexpr double kRecallFloor = 0.387;

// Env that times and counts the calls the corpus store makes.
class TimingEnv : public stm::Env {
 public:
  explicit TimingEnv(stm::Env* base) : base_(base) {}

  stm::StatusOr<std::string> ReadFile(const std::string& path) override {
    Span span("common.Env.ReadFile");
    const Clock::time_point start = Clock::now();
    auto data = base_->ReadFile(path);
    map_ns_ += ElapsedNs(start);
    return data;
  }
  stm::Status WriteFileAtomic(const std::string& path,
                              std::string_view data) override {
    Span span("common.Env.WriteFileAtomic");
    const Clock::time_point start = Clock::now();
    stm::Status status = base_->WriteFileAtomic(path, data);
    write_ns_ += ElapsedNs(start);
    write_bytes_ += static_cast<int64_t>(data.size());
    return status;
  }
  stm::Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  stm::Status Rename(const std::string& from,
                     const std::string& to) override {
    return base_->Rename(from, to);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  stm::StatusOr<std::unique_ptr<stm::FileView>> MapFile(
      const std::string& path) override {
    Span span("common.Env.MapFile");
    const Clock::time_point start = Clock::now();
    auto view = base_->MapFile(path);
    map_ns_ += ElapsedNs(start);
    return view;
  }
  stm::StatusOr<std::unique_ptr<stm::SequentialFile>> OpenSequential(
      const std::string& path) override {
    return base_->OpenSequential(path);
  }
  stm::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  stm::StatusOr<std::vector<std::string>> ListDir(
      const std::string& path) override {
    return base_->ListDir(path);
  }

  double write_ms() const { return static_cast<double>(write_ns_) * 1e-6; }
  double write_mb() const {
    return static_cast<double>(write_bytes_) / (1024.0 * 1024.0);
  }
  double map_ms() const { return static_cast<double>(map_ns_) * 1e-6; }

 private:
  static int64_t ElapsedNs(Clock::time_point start) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
  }

  stm::Env* const base_;
  std::atomic<int64_t> write_ns_{0};
  std::atomic<int64_t> write_bytes_{0};
  std::atomic<int64_t> map_ns_{0};
};

struct Setup {
  std::vector<std::vector<int32_t>> distinct;
  std::vector<uint32_t> doc_of;  // corpus position -> distinct doc
  std::vector<std::vector<int32_t>> queries;  // fresh documents
  stm::text::Vocabulary vocab;
  std::unique_ptr<stm::plm::MiniLm> model;
};

std::vector<int32_t> RandomDoc(stm::Rng& rng) {
  std::vector<int32_t> doc(kMinLen + rng.UniformInt(kMaxLen - kMinLen + 1));
  for (int32_t& id : doc) {
    id = stm::text::kNumSpecialTokens +
         static_cast<int32_t>(
             rng.UniformInt(kVocab - stm::text::kNumSpecialTokens));
  }
  return doc;
}

Setup MakeSetup(uint64_t seed) {
  Setup setup;
  stm::Rng rng(seed * 0xD1B54A32D192ED03ULL + 11);
  for (size_t i = 0; i < kDistinct; ++i) {
    setup.distinct.push_back(RandomDoc(rng));
  }
  for (size_t i = 0; i < kDocs; ++i) {
    setup.doc_of.push_back(static_cast<uint32_t>(rng.UniformInt(kDistinct)));
  }
  for (size_t i = 0; i < kQueries; ++i) setup.queries.push_back(RandomDoc(rng));
  for (size_t w = stm::text::kNumSpecialTokens; w < kVocab; ++w) {
    setup.vocab.AddToken("w" + std::to_string(w), 0);
  }
  stm::plm::MiniLmConfig config;
  config.vocab_size = kVocab;
  config.dim = 32;
  config.layers = 2;
  config.heads = 4;
  config.ffn_dim = 64;
  config.max_seq = 32;
  config.seed = 11;
  {
    Span span("plm.MiniLm");
    setup.model = std::make_unique<stm::plm::MiniLm>(config);
  }
  // Warm-up: build the frozen int8 snapshot.
  Span span("plm.PoolBatch.warmup");
  (void)setup.model->PoolBatch({setup.distinct[0]});
  return setup;
}

void RemoveStore(stm::Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : names.value()) {
    (void)env->Delete(dir + "/" + name);
  }
}

struct Cycle {
  double window_s = 0.0;  // first Add to Finish
  double write_s = 0.0, tfidf_s = 0.0, pool_s = 0.0, add_s = 0.0,
         finish_s = 0.0;
  double write_ms = 0.0, write_mb = 0.0, map_ms = 0.0;
  size_t cache_hits = 0, cache_lookups = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  stm::la::Matrix rows;  // pooled row of every document, in corpus order
  stm::ann::Index index;
};

Cycle StreamCycle(Setup& setup, const std::string& dir,
                  const stm::ann::IndexOptions& index_options) {
  Cycle cycle;
  TimingEnv env(stm::Env::Default());
  RemoveStore(&env, dir);
  if (!env.CreateDir(dir).ok()) {
    cycle.errors.push_back("corpus-stream: cannot create " + dir);
    return cycle;
  }
  const size_t dim = setup.model->config().dim;
  const Clock::time_point window_start = Clock::now();
  std::vector<std::string> labels;
  for (size_t l = 0; l < kLabels; ++l) labels.push_back("c" + std::to_string(l));
  cycle.write_s = Timed("text.CorpusShardWriter", [&] {
    stm::text::CorpusShardWriter writer(&env, dir);
    for (size_t i = 0; i < kDocs; ++i) {
      const std::vector<int32_t>& doc = setup.distinct[setup.doc_of[i]];
      const int32_t label = static_cast<int32_t>(setup.doc_of[i] % kLabels);
      if (!writer.Add(doc.data(), doc.size(), &label, 1).ok()) ++cycle.failed;
    }
    const stm::Status finished = writer.Finish(setup.vocab, labels);
    if (!finished.ok()) cycle.errors.push_back("Finish: " + finished.ToString());
  });
  auto opened = stm::text::ShardedCorpus::Open(
      &env, dir, stm::text::CorpusStoreOptions{});
  if (!opened.ok()) {
    cycle.errors.push_back("Open: " + opened.status().ToString());
    return cycle;
  }
  const std::unique_ptr<stm::text::ShardedCorpus> store =
      std::move(opened).value();
  cycle.tfidf_s = Timed("text.TfIdf.stream", [&] {
    const stm::text::TfIdf tfidf(*store);
    for (size_t s = 0; s < store->num_shards(); ++s) {
      if (!tfidf.TransformShard(*store, s).ok()) ++cycle.failed;
    }
  });
  auto cache = std::make_shared<stm::plm::EncodeCache>(
      stm::plm::EncodeCache::Config{size_t{64} << 20, "", &env});
  setup.model->SetEncodeCache(cache);
  stm::ann::IndexBuilder builder(dim, kDocs, index_options);
  cycle.rows = stm::la::Matrix(kDocs, dim);
  std::vector<std::vector<int32_t>> shard_docs;
  for (size_t s = 0; s < store->num_shards(); ++s) {
    shard_docs.clear();
    const stm::Status visited =
        store->VisitShard(s, [&](size_t, const stm::text::DocView& view) {
          shard_docs.emplace_back(view.tokens, view.tokens + view.num_tokens);
        });
    if (!visited.ok()) {
      cycle.errors.push_back("VisitShard: " + visited.ToString());
      break;
    }
    stm::la::Matrix pooled;
    cycle.pool_s += Timed("plm.PoolBatch.int8", [&] {
      pooled = setup.model->PoolBatch(shard_docs);
    });
    cycle.add_s +=
        Timed("index.IndexBuilder.Add", [&] { builder.Add(pooled); });
    std::memcpy(cycle.rows.Row(store->ShardDocRange(s).first), pooled.data(),
                pooled.size() * sizeof(float));
  }
  if (builder.added() == kDocs) {
    cycle.finish_s = Timed("index.IndexBuilder.Finish",
                           [&] { cycle.index = builder.Finish(); });
  }
  cycle.window_s = SecondsSince(window_start);
  const stm::plm::EncodeCache::Stats stats = cache->stats();
  cycle.cache_hits = stats.hits();
  cycle.cache_lookups = stats.hits() + stats.misses;
  setup.model->SetEncodeCache(nullptr);
  cycle.write_ms = env.write_ms();
  cycle.write_mb = env.write_mb();
  cycle.map_ms = env.map_ms();
  RemoveStore(&env, dir);
  return cycle;
}

// Share of corpus documents that repeat an earlier one.
double RepeatShare(const Setup& setup) {
  std::vector<bool> seen(kDistinct, false);
  size_t repeats = 0;
  for (uint32_t d : setup.doc_of) {
    repeats += seen[d];
    seen[d] = true;
  }
  return static_cast<double>(repeats) / static_cast<double>(kDocs);
}

uint64_t RowsDigest(const stm::la::Matrix& rows) {
  return Fnv1a(0xCBF29CE484222325ULL, rows.data(), rows.size() * 4);
}

}  // namespace

StageResult RunCorpusStream(const RunConfig& run) {
  StageResult result;
  stm::plm::SetQuantInference(1);

  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(
        Timed("setup.corpus-stream", [&] { setup = MakeSetup(run.seed); }));
  }
  uint64_t digest = 0xCBF29CE484222325ULL;
  digest = Fnv1a(digest, setup.doc_of.data(), setup.doc_of.size() * 4);
  for (const auto& doc : setup.distinct) {
    digest = Fnv1a(digest, doc.data(), doc.size() * 4);
  }
  result.inputs_digest = digest;

  stm::ann::IndexOptions index_options;  // defaults: `auto` tier selection
  if (run.plant == "recall") {
    index_options.bits = 64;
    index_options.rerank = kTopK;
  }
  const std::string dir = run.work_dir + "/store";
  const stm::la::Matrix query_reps = setup.model->PoolBatch(setup.queries);
  stm::la::Matrix one(1, query_reps.cols());
  // Cycles (fresh store, fresh cache, fresh index, same documents) until
  // the budget is spent. Each cycle answers the whole query set with
  // single top-10 lookups on its own index, so the query figures are
  // medians over cycles, not one index's memory placement.
  std::vector<Cycle> cycles;
  std::vector<double> cycle_qps, cycle_p50_ms, cycle_p99_ms;
  std::vector<std::vector<stm::ann::Neighbor>> lsh_top(kQueries);
  uint64_t first_rows_digest = 0;
  const Clock::time_point measure_start = Clock::now();
  do {
    cycles.push_back(StreamCycle(setup, dir, index_options));
    Cycle& cycle = cycles.back();
    result.attempted += kDocs;
    result.failed += cycle.failed;
    for (const std::string& error : cycle.errors) {
      result.Check(false, "corpus-stream: " + error);
    }
    result.Check(cycle.index.rows() == kDocs,
                 "corpus-stream: index rows != documents");
    const uint64_t rows_digest = RowsDigest(cycle.rows);
    if (cycles.size() == 1) first_rows_digest = rows_digest;
    result.Check(rows_digest == first_rows_digest,
                 "corpus-stream: pooled rows differ between cycles");
    if (!result.errors.empty()) return result;

    std::vector<double> query_ms;
    double query_s = 0.0;
    for (size_t q = 0; q < kQueries; ++q) {
      std::memcpy(one.data(), query_reps.Row(q), one.size() * sizeof(float));
      std::vector<std::vector<stm::ann::Neighbor>> top;
      const double s = Timed("index.Index.TopK",
                             [&] { top = cycle.index.TopK(one, kTopK); });
      query_s += s;
      query_ms.push_back(s * 1e3);
      lsh_top[q] = std::move(top[0]);
    }
    result.attempted += kQueries;
    cycle_qps.push_back(static_cast<double>(kQueries) / query_s);
    cycle_p50_ms.push_back(Quantile(query_ms, 0.5));
    cycle_p99_ms.push_back(Quantile(query_ms, 0.99));
    // Only the last cycle's rows and index are needed from here on.
    if (cycles.size() > 1) {
      cycles[cycles.size() - 2].rows = stm::la::Matrix();
      cycles[cycles.size() - 2].index = stm::ann::Index();
    }
  } while (SecondsSince(measure_start) < run.seconds);
  const Cycle& last = cycles.back();
  result.Check(last.index.lsh_enabled(),
               "corpus-stream: auto did not pick the LSH tier");

  // Sampled rows, most of them served by the cache, must equal a
  // cache-less encode of the same documents.
  {
    stm::Rng rng(run.seed + 101);
    std::vector<size_t> sample;
    std::vector<std::vector<int32_t>> docs;
    for (int i = 0; i < 64; ++i) {
      sample.push_back(rng.UniformInt(kDocs));
      docs.push_back(setup.distinct[setup.doc_of[sample.back()]]);
    }
    const stm::la::Matrix fresh = setup.model->PoolBatch(docs);
    size_t differ = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      differ += std::memcmp(fresh.Row(i), last.rows.Row(sample[i]),
                            fresh.cols() * sizeof(float)) != 0;
    }
    result.Check(differ == 0, "corpus-stream: " + std::to_string(differ) +
                                  " cache-served rows differ from a "
                                  "cache-less encode");
  }

  // Recall@10 against the brute tier on the same rows.
  stm::ann::IndexOptions brute_options;
  brute_options.mode = stm::ann::AnnMode::kOff;
  const stm::ann::Index brute = stm::ann::Index::Build(last.rows, brute_options);
  const auto exact = brute.TopK(query_reps, kTopK);
  double recall_sum = 0.0;
  for (size_t q = 0; q < kQueries; ++q) {
    size_t hits = 0;
    for (const stm::ann::Neighbor& want : exact[q]) {
      for (const stm::ann::Neighbor& got : lsh_top[q]) {
        hits += got.id == want.id;
      }
    }
    recall_sum += static_cast<double>(hits) / static_cast<double>(kTopK);
  }
  const double recall = recall_sum / static_cast<double>(kQueries);
  result.Check(recall >= kRecallFloor,
               "corpus-stream: recall@10 " + std::to_string(recall) +
                   " below the floor " + std::to_string(kRecallFloor));

  std::vector<double> docs_per_s, write_dps, tfidf_dps, pool_dps, add_dps,
      finish_ms;
  for (const Cycle& cycle : cycles) {
    docs_per_s.push_back(static_cast<double>(kDocs) / cycle.window_s);
    write_dps.push_back(static_cast<double>(kDocs) / cycle.write_s);
    tfidf_dps.push_back(static_cast<double>(kDocs) / cycle.tfidf_s);
    pool_dps.push_back(static_cast<double>(kDocs) / cycle.pool_s);
    add_dps.push_back(static_cast<double>(kDocs) / cycle.add_s);
    finish_ms.push_back(cycle.finish_s * 1e3);
  }
  const double retrieve_qps = Median(cycle_qps);
  result.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"capacity_per_s", Median(docs_per_s), "1/s"},
      {"answer_per_s", retrieve_qps, "1/s"},
      {"p50_ms", Median(cycle_p50_ms), "ms"},
      {"tail_ms", Median(cycle_p99_ms), "ms"},
      {"quality", recall, "ratio"},
  };
  result.named = {
      {"stream_docs_per_s", Median(docs_per_s), "doc/s"},
      {"retrieve_qps", retrieve_qps, "query/s"},
      {"retrieve_recall_at10", recall, "ratio"},
      {"stream_cycles", static_cast<double>(cycles.size()), "count"},
      {"repeat_share", RepeatShare(setup), "ratio"},
  };
  if (run.traced) {
    auto layer = [&](const char* name, double value, const char* unit) {
      result.layers.push_back({name, value, unit});
    };
    layer("text.write_docs_per_s", Median(write_dps), "doc/s");
    layer("common.env.write_mb", last.write_mb, "MiB");
    layer("common.env.write_ms", last.write_ms, "ms");
    layer("common.env.map_ms", last.map_ms, "ms");
    layer("text.tfidf_docs_per_s", Median(tfidf_dps), "doc/s");
    layer("plm.pool_docs_per_s.int8", Median(pool_dps), "doc/s");
    layer("plm.cache_hit_ratio",
          static_cast<double>(last.cache_hits) /
              static_cast<double>(last.cache_lookups),
          "ratio");
    layer("plm.cache_lookups", static_cast<double>(last.cache_lookups),
          "count");
    layer("index.add_docs_per_s", Median(add_dps), "doc/s");
    layer("index.finish_ms", Median(finish_ms), "ms");
    layer("index.lsh", last.index.lsh_enabled() ? 1.0 : 0.0, "flag");
    layer("index.query_ms.p50", Median(cycle_p50_ms), "ms");
  }
  return result;
}

}  // namespace perfbench
