// The `pipeline` workload: the paper's end-to-end path. One AGNews-style
// synthetic dataset, a bench-shaped MiniLm pre-trained for a fixed number
// of MLM+RTD steps, then WeSTClass, ConWea, LOTClass and X-Class on the
// corpus with that model. It is the only workload that runs autograd,
// the optimizer, SGNS, clustering and classifier training.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/cluster.h"
#include "core/conwea.h"
#include "core/lotclass.h"
#include "core/westclass.h"
#include "core/xclass.h"
#include "datasets/specs.h"
#include "embedding/sgns.h"
#include "eval/metrics.h"
#include "index/ann.h"
#include "la/matrix.h"
#include "nn/text_classifier.h"
#include "plm/batch_scheduler.h"
#include "plm/minilm.h"
#include "plm/quantized_minilm.h"
#include "text/tfidf.h"

namespace perfbench {
namespace {

constexpr size_t kDocs = 2000;
constexpr int kPretrainSteps = 200;
constexpr size_t kPretrainBatch = 8;
constexpr int kSetups = 5;

// Lowest macro-F1 each method may score: 0.75 x the lowest value recorded
// over seeds 31-35 and 41-60 at these sizes (WeSTClass 0.980, ConWea
// 0.967, LOTClass 0.253, X-Class 0.163), i.e. the quality bound of
// BENCHMARK.json below the recorded value. Order matches ClassifyPass.
constexpr double kF1Floors[] = {0.735, 0.725, 0.190, 0.122};

stm::plm::MiniLmConfig ModelConfig(size_t vocab) {
  stm::plm::MiniLmConfig config;
  config.vocab_size = vocab;
  config.dim = 40;
  config.layers = 2;
  config.heads = 4;
  config.ffn_dim = 80;
  config.max_seq = 40;
  return config;
}

struct Setup {
  stm::datasets::SyntheticDataset data;
  std::unique_ptr<stm::plm::MiniLm> model;
};

Setup MakeSetup(uint64_t seed) {
  Setup setup;
  {
    Span span("datasets.Generate");
    stm::datasets::SyntheticSpec spec = stm::datasets::AgNewsSpec(seed);
    spec.num_docs = kDocs;
    setup.data = stm::datasets::Generate(spec);
  }
  Span span("plm.MiniLm");
  setup.model = std::make_unique<stm::plm::MiniLm>(
      ModelConfig(setup.data.corpus.vocab().size()));
  return setup;
}

uint64_t DigestOf(const stm::datasets::SyntheticDataset& data) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (const auto& doc : data.corpus.docs()) {
    hash = Fnv1a(hash, doc.tokens.data(), doc.tokens.size() * 4);
  }
  for (const auto& doc : data.pretrain_docs) {
    hash = Fnv1a(hash, doc.data(), doc.size() * 4);
  }
  return hash;
}

struct MethodRun {
  const char* name;
  double seconds = 0.0;
  std::vector<int> pred;
};

// One classification pass: the four methods, each timed around Run().
std::vector<MethodRun> ClassifyPass(const Setup& setup) {
  const stm::datasets::SyntheticDataset& data = setup.data;
  stm::plm::MiniLm* model = setup.model.get();
  std::vector<MethodRun> runs;
  auto timed = [&](const char* name, const char* span_name,
                   const std::function<std::vector<int>()>& run) {
    MethodRun method{name, 0.0, {}};
    method.seconds = Timed(span_name, [&] { method.pred = run(); });
    runs.push_back(std::move(method));
  };
  timed("westclass", "core.WestClass.Run", [&] {
    stm::core::WestClassConfig config;
    config.classifier = "bow";
    config.seed = 92;
    stm::core::WestClass method(data.corpus, config);
    return method.Run(stm::core::Supervision::kLabels, data.supervision);
  });
  timed("conwea", "core.ConWea.Run", [&] {
    stm::core::ConWeaConfig config;
    config.max_occurrences = 20;
    config.seed = 93;
    stm::core::ConWea method(data.corpus, model, config);
    return method.Run(data.supervision);
  });
  timed("lotclass", "core.LotClass.Run", [&] {
    stm::core::LotClassConfig config;
    config.seed = 94;
    stm::core::LotClass method(data.corpus, model, config);
    return method.Run(data.leaf_name_tokens);
  });
  timed("xclass", "core.XClass.Run", [&] {
    stm::core::XClassConfig config;
    config.seed = 95;
    stm::core::XClass method(data.corpus, model, config);
    return method.Run(data.leaf_name_tokens);
  });
  return runs;
}

// ---- per-layer replays (traced runs only) ----

// One GEMM call shape, replayed `count` times per pretraining step.
struct GemmShape {
  char op;  // 'n' Gemm, 't' GemmBt, 'a' GemmAt
  size_t m, k, n, count;
};

// The GEMMs of one MLM+RTD pretraining step, reconstructed from the model
// shapes: two forward passes (MLM and RTD), each with its backward pass,
// through every projection and attention head, plus the tied MLM head.
// An estimate: the autograd graph's exact call list is not visible from
// outside the library.
std::vector<GemmShape> PretrainStepGemms(const stm::plm::MiniLmConfig& c,
                                         size_t batch, size_t masked_rows) {
  const size_t rows = batch * c.max_seq;
  const size_t d = c.dim;
  const size_t s = c.max_seq;
  const size_t hd = c.dim / c.heads;
  const size_t heads = batch * c.heads * c.layers * 2;
  std::vector<GemmShape> shapes;
  const size_t projections[4][2] = {
      {d, 3 * d}, {d, d}, {d, c.ffn_dim}, {c.ffn_dim, d}};
  for (const auto& p : projections) {
    const size_t count = c.layers * 2;
    shapes.push_back({'n', rows, p[0], p[1], count});  // y = x W
    shapes.push_back({'t', rows, p[1], p[0], count});  // dx = dy W^T
    shapes.push_back({'a', p[0], rows, p[1], count});  // dW = x^T dy
  }
  shapes.push_back({'t', s, hd, s, heads});  // scores = q k^T
  shapes.push_back({'n', s, s, hd, heads});  // ctx = p v
  shapes.push_back({'t', s, hd, s, heads});  // dp = dctx v^T
  shapes.push_back({'a', s, s, hd, heads});  // dv = p^T dctx
  shapes.push_back({'n', s, s, hd, heads});  // dq = ds k
  shapes.push_back({'a', s, s, hd, heads});  // dk = ds^T q
  const size_t vocab = c.vocab_size;
  shapes.push_back({'t', masked_rows, d, vocab, 1});  // logits = h E^T
  shapes.push_back({'n', masked_rows, vocab, d, 1});  // dh = dlogits E
  shapes.push_back({'a', vocab, masked_rows, d, 1});  // dE = dlogits^T h
  return shapes;
}

struct GemmReplay {
  double step_ms = 0.0;
  double gflops = 0.0;
};

GemmReplay ReplayPretrainGemms(const std::vector<GemmShape>& shapes) {
  struct Operands {
    stm::la::Matrix a, b, c;
  };
  std::vector<Operands> operands;
  double flops = 0.0;
  for (const GemmShape& g : shapes) {
    Operands o;
    // a is m x k (k x m for GemmAt); b is k x n (n x k for GemmBt).
    o.a = g.op == 'a' ? stm::la::Matrix(g.k, g.m, 0.5f)
                      : stm::la::Matrix(g.m, g.k, 0.5f);
    o.b = g.op == 't' ? stm::la::Matrix(g.n, g.k, 0.25f)
                      : stm::la::Matrix(g.k, g.n, 0.25f);
    o.c = stm::la::Matrix(g.m, g.n);
    operands.push_back(std::move(o));
    flops += 2.0 * static_cast<double>(g.m * g.k * g.n * g.count);
  }
  auto step = [&] {
    for (size_t i = 0; i < shapes.size(); ++i) {
      Operands& o = operands[i];
      for (size_t r = 0; r < shapes[i].count; ++r) {
        switch (shapes[i].op) {
          case 'n': stm::la::Gemm(o.a, o.b, o.c); break;
          case 't': stm::la::GemmBt(o.a, o.b, o.c); break;
          default: stm::la::GemmAt(o.a, o.b, o.c); break;
        }
      }
    }
  };
  step();  // warm caches and packing buffers
  std::vector<double> per_step_ms;
  for (int rep = 0; rep < 5; ++rep) {
    Span span("la.Gemm.replay");
    const Clock::time_point start = Clock::now();
    int steps = 0;
    do {
      step();
      ++steps;
    } while (SecondsSince(start) < 0.1);
    per_step_ms.push_back(SecondsSince(start) * 1e3 / steps);
  }
  GemmReplay replay;
  replay.step_ms = Median(per_step_ms);
  replay.gflops = flops / (replay.step_ms * 1e-3) * 1e-9;
  return replay;
}

void LayerReplays(const Setup& setup, const std::vector<MethodRun>& pass,
                  double pretrain_step_ms, StageResult& result) {
  const stm::datasets::SyntheticDataset& data = setup.data;
  stm::plm::MiniLm& model = *setup.model;
  const stm::plm::MiniLmConfig& config = model.config();
  auto layer = [&](const char* name, double value, const char* unit) {
    result.layers.push_back({name, value, unit});
  };
  std::vector<std::vector<int32_t>> docs;
  size_t real_tokens = 0;
  for (const auto& doc : data.corpus.docs()) {
    docs.push_back(doc.tokens);
    real_tokens += std::min(doc.tokens.size(), config.max_seq);
  }

  // la: one step's GEMMs replayed on the active tier.
  const double mean_len = static_cast<double>(real_tokens) /
                          static_cast<double>(docs.size());
  const size_t masked_rows = static_cast<size_t>(
      std::max(1.0, 0.15 * mean_len * static_cast<double>(kPretrainBatch)));
  const GemmReplay gemm = ReplayPretrainGemms(
      PretrainStepGemms(config, kPretrainBatch, masked_rows));
  layer("la.gemm_gflops.pretrain", gemm.gflops, "GFLOP/s");
  layer("la.gemm_share.pretrain", gemm.step_ms / pretrain_step_ms, "ratio");

  // plm: bulk encode, bucket plan, MLM top-k.
  std::vector<stm::la::Matrix> hidden;
  layer("plm.encode_docs_per_s",
        static_cast<double>(docs.size()) /
            Timed("plm.EncodeBatch", [&] { hidden = model.EncodeBatch(docs); }),
        "doc/s");
  {
    std::vector<size_t> lengths;
    for (const auto& doc : docs) {
      lengths.push_back(std::max<size_t>(
          1, std::min(doc.size(), config.max_seq)));
    }
    Span span("plm.PlanBuckets");
    const stm::plm::BatchPlan plan =
        stm::plm::PlanBuckets(lengths, stm::plm::GetBatchOptions());
    layer("plm.bucket_pad_fraction",
          1.0 - static_cast<double>(plan.real_tokens) /
                    static_cast<double>(plan.padded_tokens),
          "ratio");
    layer("plm.buckets", static_cast<double>(plan.buckets.size()), "count");
  }
  {
    const size_t sample = std::min<size_t>(100, docs.size());
    const Clock::time_point start = Clock::now();
    for (size_t d = 0; d < sample; ++d) {
      const size_t len = std::min(docs[d].size(), config.max_seq);
      std::vector<int32_t> window(docs[d].begin(), docs[d].begin() + len);
      std::vector<size_t> positions(len);
      for (size_t t = 0; t < len; ++t) positions[t] = t;
      Span span("plm.PredictTopKAt");
      (void)model.PredictTopKAt(window, positions, 20);
    }
    layer("plm.predict_topk_ms", SecondsSince(start) * 1e3 / sample, "ms");
  }

  // index: X-Class's token x class top-1 shape.
  const stm::la::Matrix class_reps = model.PoolBatch(data.leaf_name_tokens);
  {
    const size_t sample = std::min<size_t>(400, hidden.size());
    const Clock::time_point start = Clock::now();
    for (size_t d = 0; d < sample; ++d) {
      if (hidden[d].rows() == 0) continue;
      Span span("index.TopKSimilar");
      (void)stm::ann::TopKSimilar(hidden[d], class_reps, 1);
    }
    layer("index.topk_ms", SecondsSince(start) * 1e3 / sample, "ms");
  }

  // cluster: GMM and k-means on pooled document reps.
  const stm::la::Matrix reps = model.PoolBatch(docs);
  layer("cluster.gmm_ms", 1e3 * Timed("cluster.GmmFit", [&] {
          (void)stm::cluster::GmmFit(reps, class_reps,
                                     stm::cluster::GmmOptions{});
        }),
        "ms");
  stm::cluster::KMeansOptions kmeans;
  kmeans.k = class_reps.rows();
  kmeans.spherical = true;
  layer("cluster.kmeans_ms", 1e3 * Timed("cluster.KMeans", [&] {
          (void)stm::cluster::KMeans(reps, kmeans);
        }),
        "ms");

  // embedding, text, nn.
  stm::embedding::SgnsConfig sgns;
  sgns.epochs = 6;
  layer("embedding.sgns_s", Timed("embedding.WordEmbeddings.Train", [&] {
          (void)stm::embedding::WordEmbeddings::Train(
              docs, data.corpus.vocab().size(), sgns);
        }),
        "s");
  layer("text.tfidf_ms", 1e3 * Timed("text.TfIdf", [&] {
          const stm::text::TfIdf tfidf(data.corpus);
          (void)tfidf.TransformAll(data.corpus);
        }),
        "ms");
  stm::nn::ClassifierConfig classifier_config;
  classifier_config.vocab_size = data.corpus.vocab().size();
  classifier_config.num_classes = data.corpus.num_labels();
  stm::nn::BowLogRegClassifier classifier(classifier_config);
  layer("nn.classifier_fit_ms", 1e3 * Timed("nn.BowLogRegClassifier.Fit", [&] {
          classifier.Fit(docs, pass.back().pred, 8);
        }),
        "ms");
}

}  // namespace

StageResult RunPipeline(const RunConfig& run) {
  StageResult result;
  stm::plm::SetQuantInference(0);

  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    Setup fresh;
    setup_s.push_back(
        Timed("setup.pipeline", [&] { fresh = MakeSetup(run.seed); }));
    const uint64_t digest = DigestOf(fresh.data);
    if (i > 0) {
      result.Check(digest == result.inputs_digest,
                   "pipeline: set-up is not deterministic in the seed");
    }
    result.inputs_digest = digest;
    setup = std::move(fresh);
  }
  const stm::datasets::SyntheticDataset& data = setup.data;
  const std::vector<int> gold = data.corpus.GoldLabels();
  const size_t classes = data.corpus.num_labels();

  const Clock::time_point measure_start = Clock::now();
  stm::plm::PretrainConfig pretrain;
  pretrain.steps = kPretrainSteps;
  pretrain.batch = kPretrainBatch;
  double loss = 0.0;
  const double pretrain_s = Timed("plm.MiniLm.Pretrain", [&] {
    loss = setup.model->Pretrain(data.pretrain_docs, pretrain);
  });
  result.Check(std::isfinite(loss), "pipeline: pretraining loss not finite");

  // Classification passes until the budget is spent; later passes must
  // reproduce the first one's predictions exactly.
  std::vector<MethodRun> first;
  std::vector<double> pass_docs_per_s, pass_p50_ms, pass_tail_ms;
  do {
    std::vector<MethodRun> pass = ClassifyPass(setup);
    double total = 0.0;
    std::vector<double> method_ms;
    for (MethodRun& method : pass) {
      total += method.seconds;
      method_ms.push_back(method.seconds * 1e3);
      result.attempted += method.pred.size();
      for (int label : method.pred) {
        if (label < 0 || static_cast<size_t>(label) >= classes) {
          ++result.failed;
        }
      }
    }
    pass_docs_per_s.push_back(static_cast<double>(kDocs * pass.size()) /
                              total);
    pass_p50_ms.push_back(Median(method_ms));
    pass_tail_ms.push_back(*std::max_element(method_ms.begin(),
                                             method_ms.end()));
    if (first.empty()) {
      first = std::move(pass);
    } else {
      for (size_t m = 0; m < pass.size(); ++m) {
        result.Check(pass[m].pred == first[m].pred,
                     std::string("pipeline: ") + pass[m].name +
                         " predictions differ between passes");
      }
    }
  } while (SecondsSince(measure_start) < run.seconds);

  if (run.plant == "f1-drop") {
    std::fill(first[0].pred.begin(), first[0].pred.end(), 0);
  }
  double f1_sum = 0.0;
  for (size_t m = 0; m < first.size(); ++m) {
    const double f1 = stm::eval::MacroF1(first[m].pred, gold, classes);
    f1_sum += f1;
    result.named.push_back(
        {std::string(first[m].name) + "_macro_f1", f1, "ratio"});
    result.named.push_back(
        {std::string(first[m].name) + "_run_s", first[m].seconds, "s"});
    result.Check(f1 >= kF1Floors[m],
                 std::string("pipeline: ") + first[m].name + " macro-F1 " +
                     std::to_string(f1) + " below its floor " +
                     std::to_string(kF1Floors[m]));
  }
  const double macro_f1 = f1_sum / static_cast<double>(first.size());
  const double pretrain_seqs_per_s =
      static_cast<double>(kPretrainSteps * kPretrainBatch) / pretrain_s;

  result.e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"capacity_per_s", pretrain_seqs_per_s, "1/s"},
      {"answer_per_s", Median(pass_docs_per_s), "1/s"},
      {"p50_ms", Median(pass_p50_ms), "ms"},
      {"tail_ms", Median(pass_tail_ms), "ms"},
      {"quality", macro_f1, "ratio"},
  };
  result.named.insert(
      result.named.begin(),
      {{"pretrain_seqs_per_s", pretrain_seqs_per_s, "seq/s"},
       {"pretrain_mlm_loss", loss, "nats"},
       {"classify_docs_per_s", Median(pass_docs_per_s), "doc/s"},
       {"classify_macro_f1", macro_f1, "ratio"},
       {"classify_passes", static_cast<double>(pass_docs_per_s.size()),
        "count"}});

  if (run.traced) {
    const double step_ms = pretrain_s * 1e3 / kPretrainSteps;
    result.layers.push_back({"plm.pretrain_step_ms", step_ms, "ms"});
    result.layers.push_back({"plm.pretrain_mlm_loss", loss, "nats"});
    const char* method_layers[] = {"core.westclass_s", "core.conwea_s",
                                   "core.lotclass_s", "core.xclass_s"};
    for (size_t m = 0; m < first.size(); ++m) {
      result.layers.push_back({method_layers[m], first[m].seconds, "s"});
    }
    LayerReplays(setup, first, step_ms, result);
  }
  return result;
}

}  // namespace perfbench
