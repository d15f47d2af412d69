// perfbench: the repository benchmark. One command runs one workload from
// a seed, checks its outputs, and prints every metric by name with its
// unit; the last stdout line is the JSON result.
//
//   perfbench --workload pipeline|serve-open|corpus-stream --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--plant WHAT]
//
// --trace 0 measures the named workload with tracing off and reports the
// BENCHMARK.json end-to-end metrics. --trace 1 runs the named workload
// untraced, then all three workloads with spans on, each on a third of the
// budget, and reports every per-layer metric, each layer's self time, and
// the tracing overhead against the untraced pass; the spans go to
// DIR/trace-<workload>.json as Chrome trace events.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "la/gemm_kernels.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string plant;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pipeline|serve-open|corpus-stream --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--plant "
               "serve-answer|f1-drop|recall]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--plant") {
      if (value != "serve-answer" && value != "f1-drop" && value != "recall") {
        Usage("bad --plant");
      }
      args.plant = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "pipeline" && args.workload != "serve-open" &&
      args.workload != "corpus-stream") {
    Usage("bad --workload");
  }
  return args;
}

const char* kWorkloads[] = {"pipeline", "serve-open", "corpus-stream"};
// Library modules whose self time the traced run reports.
const char* kLayers[] = {"plm",  "la",   "nn",   "index", "cluster",
                         "embedding", "text", "core", "serve", "common"};

// STM_NUM_THREADS of every workload. Pretraining does not scale with
// threads, serving gets its concurrency from the drain workers, and on a
// shared 4-vCPU host one pool thread measured both faster and steadier
// than four: a parallel region waits for its slowest vCPU, and the host
// steals more time the more vCPUs are busy.
constexpr size_t kThreads = 1;

StageResult RunStage(const std::string& workload, const Args& args,
                     bool traced, double seconds) {
  RunConfig config;
  config.seed = args.seed;
  config.seconds = seconds;
  config.traced = traced;
  config.plant = args.plant;
  config.work_dir = args.out_dir + "/work-" + std::to_string(getpid());
  std::filesystem::create_directories(config.work_dir);
  setenv("STM_NUM_THREADS", std::to_string(kThreads).c_str(), 1);
  stm::ThreadPool::Reset(kThreads);
  Tracer::SetEnabled(traced);
  StageResult result;
  if (workload == "pipeline") {
    result = RunPipeline(config);
  } else if (workload == "serve-open") {
    result = RunServeOpen(config);
  } else {
    result = RunCorpusStream(config);
  }
  Tracer::SetEnabled(false);
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);
  return result;
}

// The benchmark pins its own configuration: every STM_* knob except the
// ISA tier is cleared, so a stray environment cannot change what runs.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    const std::string name = entry.substr(0, entry.find('='));
    if (name.rfind("STM_", 0) == 0 && name != "STM_ISA") names.push_back(name);
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintHeader(const Args& args) {
  std::printf(
      "# run {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"isa\": %s, \"fp_regime\": %s, "
      "\"stm_num_threads\": %zu, \"nproc\": %u, \"cpu\": %s, "
      "\"compiler\": %s, \"build_type\": %s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Number(args.seconds).c_str(),
      args.trace ? 1 : 0, JsonString(stm::la::GemmKernelIsa()).c_str(),
      JsonString(stm::la::GemmKernelFpRegime()).c_str(),
      kThreads, std::thread::hardware_concurrency(),
      JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str());
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-28s %.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Adds the process-wide slots to a stage's end-to-end metrics.
std::vector<Metric> EndToEnd(const StageResult& stage) {
  std::vector<Metric> metrics = stage.e2e;
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  const double fail_share =
      stage.attempted == 0 ? 1.0
                           : static_cast<double>(stage.failed) /
                                 static_cast<double>(stage.attempted);
  metrics.push_back({"ok_share", 1.0 - fail_share, "ratio"});
  return metrics;
}

int Run(const Args& args) {
  PinEnvironment();
  PrintHeader(args);
  std::fflush(stdout);

  std::vector<StageResult> stages;
  std::vector<Metric> metrics;
  // A traced run repeats the named workload untraced, then runs all three
  // workloads traced, each on a third of the budget.
  const double budget = args.trace ? args.seconds / 3 : args.seconds;
  const StageResult untraced =
      RunStage(args.workload, args, false, budget);
  stages.push_back(untraced);
  const std::vector<Metric> e2e = EndToEnd(untraced);
  PrintMetrics("workload", untraced.named);
  std::printf("workload %-28s %.6g ratio (failed %llu of %llu)\n",
              "fail_share", 1.0 - e2e.back().value,
              static_cast<unsigned long long>(untraced.failed),
              static_cast<unsigned long long>(untraced.attempted));
  std::printf("# inputs digest %016llx\n",
              static_cast<unsigned long long>(untraced.inputs_digest));

  if (!args.trace) {
    metrics = e2e;
    PrintMetrics("e2e", metrics);
  } else {
    // Every traced run covers all three workloads, so the per-layer
    // metric set is the same whichever workload is named.
    for (const char* workload : kWorkloads) {
      StageResult traced = RunStage(workload, args, true, budget);
      if (workload == args.workload) {
        const std::vector<Metric> traced_e2e = EndToEnd(traced);
        for (size_t i = 0; i + 2 < e2e.size(); ++i) {
          std::printf("overhead %-20s untraced %.6g traced %.6g %s "
                      "(%+.2f%%)\n",
                      e2e[i].name.c_str(), e2e[i].value, traced_e2e[i].value,
                      e2e[i].unit.c_str(),
                      100.0 * (traced_e2e[i].value / e2e[i].value - 1.0));
        }
      }
      metrics.insert(metrics.end(), traced.layers.begin(),
                     traced.layers.end());
      stages.push_back(std::move(traced));
    }
    const std::vector<SpanRecord> spans = Tracer::Snapshot();
    std::map<std::string, double> self = SelfSecondsByLayer(spans);
    for (const auto& [layer, seconds] : self) {
      std::printf("self %-12s %.6f s\n", layer.c_str(), seconds);
    }
    for (const char* layer : kLayers) {
      metrics.push_back({std::string(layer) + ".self_s", self[layer], "s"});
    }
    const std::string path =
        args.out_dir + "/trace-" + args.workload + ".json";
    if (WriteChromeTrace(spans, path)) {
      std::printf("# trace %s (%zu spans)\n", path.c_str(), spans.size());
    } else {
      stages.front().Check(false, "cannot write " + path);
    }
    PrintMetrics("layer", metrics);
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const StageResult& stage : stages) {
    attempted += stage.attempted;
    failed += stage.failed;
    for (const std::string& error : stage.errors) {
      std::printf("CHECK FAILED: %s\n", error.c_str());
      correct = false;
    }
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
