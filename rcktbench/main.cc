// rckt_bench: the benchmark's main program (started by run.py).
//
//   rckt_bench --workload NAME --seed N --seconds S --trace 0|1
//              --ktcli PATH --models DIR --work DIR [--source-id ID]
//   rckt_bench --selftest
//
// Prints a report line (stamp, per-op counts, every figure with its sample
// count) and, last, one JSON object with `correct`, `attempted`, `failed`
// and `metrics`: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cpu.h"
#include "serve/json.h"
#include "workloads.h"

#ifndef RCKTBENCH_BUILD_TYPE
#define RCKTBENCH_BUILD_TYPE "unknown"
#endif

namespace rcktbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// One name per slot on every workload; README.md maps each slot to the
// figure it carries on each workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"secondary_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"tensor.gemm_train_gflops", "GFLOP/s"},
    {"tensor.gemm_head_ns", "ns"},
    {"tensor.gemm_calls_per_epoch", "count"},
    {"tensor.gemm_flops_per_epoch", "FLOP"},
    {"autograd.fused_fwd_ms_per_epoch", "ms"},
    {"autograd.fused_bwd_ms_per_epoch", "ms"},
    {"rckt.dkt.train_step_ms", "ms"},
    {"rckt.sakt.train_step_ms", "ms"},
    {"rckt.dkt.score_batch_ms", "ms"},
    {"rckt.sakt.score_batch_ms", "ms"},
    {"rckt.fanout_passes_per_epoch", "count"},
    {"rckt.fanout_pooled_ms_per_epoch", "ms"},
    {"rckt.fanout_stacked_ms_per_score_round", "ms"},
    {"rckt.encoder.dkt.step_us", "us"},
    {"rckt.encoder.sakt.step_us", "us"},
    {"rckt.encoder.sakt.replay_ms", "ms"},
    {"data.simulate_ms", "ms"},
    {"serve.engine.predict_us", "us"},
    {"serve.engine.update_us", "us"},
    {"serve.engine.explain_ms", "ms"},
    {"serve.engine.recourse_ms", "ms"},
    {"serve.engine.batch_predict_us_per_req", "us"},
    {"serve.shard.roundtrip_us", "us"},
    {"serve.shard.queue_wait_us", "us"},
    {"serve.shard.batch_size_mean", "count"},
    {"serve.session.replays", "count"},
    {"serve.session.evictions", "count"},
    {"serve.wire.overhead_us", "us"},
    {"serve.wire.echo_us", "us"},
    {"obs.trace_overhead_s", "s"},
};

bool ParseArgs(int argc, char** argv, Options* options, bool* selftest,
               std::string* source_id) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      *selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options->trace = value == "1";
    } else if (arg == "--ktcli") {
      options->ktcli = value;
    } else if (arg == "--models") {
      options->models = value;
    } else if (arg == "--work") {
      options->work = value;
    } else if (arg == "--source-id") {
      *source_id = value;
    } else {
      return false;
    }
  }
  return true;
}

void WriteMetric(serve::JsonWriter& w, const Metric& m) {
  w.Key(m.name).BeginObject();
  w.Key("value").Double(std::isfinite(m.value) ? m.value : 0.0);
  w.Key("unit").String(m.unit);
  w.EndObject();
}

int Main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  std::string source_id = "unknown";
  if (!ParseArgs(argc, argv, &options, &selftest, &source_id)) {
    std::fprintf(stderr, "rckt_bench: bad arguments\n");
    return 2;
  }
  std::vector<std::string> selftest_failures = SelfTest();
  if (selftest) {
    for (const auto& f : selftest_failures) std::fprintf(stderr, "%s\n", f.c_str());
    std::printf("selftest: %s\n", selftest_failures.empty() ? "ok" : "FAILED");
    return selftest_failures.empty() ? 0 : 1;
  }
  const bool known = options.workload == "train_offline" ||
                     options.workload == "serve_closed_dkt";
  if (!known || options.seconds <= 0.0 || options.ktcli.empty() ||
      options.models.empty() || options.work.empty()) {
    std::fprintf(stderr, "rckt_bench: need --workload "
                         "train_offline|serve_closed_dkt, --seconds > 0, "
                         "--ktcli, --models, --work\n");
    return 2;
  }
  if (!MakeDirs(options.work)) {
    std::fprintf(stderr, "rckt_bench: cannot create %s\n",
                 options.work.c_str());
    return 2;
  }

  // A traced run reports only per-layer figures; its untraced workload
  // part (which still runs every correctness check) is capped so the
  // traced replay and the probes fit in the same run.
  if (options.trace) options.seconds = std::min(options.seconds, 8.0);
  const bool train = options.workload == "train_offline";
  RunResult result =
      train ? RunTrainOffline(options) : RunServeClosedDkt(options);
  if (options.trace) {
    const int threads = train ? std::stoi(result.facts["pool_threads"]) : 1;
    RunLayerProbes(options, threads, &result);
  }
  for (const auto& f : selftest_failures) result.errors.push_back(f);

  // Every metric the final line must carry is present.
  std::vector<Metric> final_metrics;
  const MetricSpec* begin = options.trace ? std::begin(kPerLayer)
                                          : std::begin(kEndToEnd);
  const MetricSpec* end = options.trace ? std::end(kPerLayer)
                                        : std::end(kEndToEnd);
  for (const MetricSpec* s = begin; s != end; ++s) {
    const Metric* m = result.Find(s->name);
    if (m == nullptr || !std::isfinite(m->value)) {
      result.errors.push_back(std::string("metric missing: ") + s->name);
      final_metrics.push_back({s->name, 0.0, s->unit, 0});
    } else {
      final_metrics.push_back(*m);
    }
  }

  int64_t attempted = 0, failed = 0;
  for (const auto& [op, count] : result.ops) {
    attempted += count.attempted;
    failed += count.failed;
  }
  if (attempted == 0) result.errors.push_back("no operation was attempted");
  const bool correct = result.errors.empty();

  serve::JsonWriter report;
  report.BeginObject().Key("report").BeginObject();
  report.Key("workload").String(options.workload);
  report.Key("seed").Int(static_cast<int64_t>(options.seed));
  report.Key("seconds").Double(options.seconds);
  report.Key("trace").Bool(options.trace);
  report.Key("nproc").Int(OnlineCpus());
  report.Key("cpu").String(kt::cpu::IdString());
  report.Key("build_type").String(RCKTBENCH_BUILD_TYPE);
  report.Key("source").String(source_id);
  report.Key("facts").BeginObject();
  for (const auto& [key, value] : result.facts) report.Key(key).String(value);
  report.EndObject();
  report.Key("ops").BeginObject();
  for (const auto& [op, count] : result.ops) {
    report.Key(op).BeginObject();
    report.Key("attempted").Int(count.attempted);
    report.Key("failed").Int(count.failed);
    report.EndObject();
  }
  report.EndObject();
  report.Key("figures").BeginArray();
  for (const Metric& m : result.metrics) {
    report.BeginObject();
    report.Key("name").String(m.name);
    report.Key("value").Double(m.value);
    report.Key("unit").String(m.unit);
    report.Key("samples").Int(m.samples);
    report.EndObject();
  }
  report.EndArray();
  report.Key("errors").BeginArray();
  for (const auto& e : result.errors) report.String(e);
  report.EndArray();
  report.EndObject().EndObject();
  std::printf("%s\n", report.str().c_str());
  for (const auto& e : result.errors) {
    std::fprintf(stderr, "rckt_bench: %s\n", e.c_str());
  }

  serve::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").Int(attempted);
  w.Key("failed").Int(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : final_metrics) WriteMetric(w, m);
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace rcktbench

int main(int argc, char** argv) { return rcktbench::Main(argc, argv); }
