// Per-layer probes for traced runs. Each probe times calls into one
// module's public functions from the benchmark's own code, or reads the
// kt::obs counters and trace spans the program records, so the
// end-to-end figures decompose along the layer chain
//   GEMM -> fused op -> encoder step -> engine op -> shard queue -> wire.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "core/parallel.h"
#include "core/rng.h"
#include "data/scenarios.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "server_process.h"
#include "tensor/gemm.h"
#include "workloads.h"

namespace rcktbench {

using namespace kt;

namespace {

// How far, in percent of the client predict median, engine time plus
// shard queue wait plus the reactor echo may miss that median (README.md).
constexpr double kDecompositionTolerancePct = 15.0;

// ---- tensor ------------------------------------------------------------------

void ProbeGemm(int threads, RunResult* result) {
  struct Shape {
    int64_t m, k, n;
  };
  // The stacked training shapes of the d=32 encoders: an LSTM gate GEMM
  // over the four fanned-out passes of a 32-row batch, and an attention
  // projection over those rows times a 50-step window.
  const std::vector<Shape> train_shapes = {{128, 32, 128}, {6400, 32, 32}};
  auto fill = [](std::vector<float>& v, uint64_t seed) {
    Rng rng(seed);
    for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  };
  SetNumThreads(threads);
  std::vector<double> gflops;
  for (int sample = 0; sample < 7; ++sample) {
    double flops = 0.0, seconds = 0.0;
    for (const Shape& s : train_shapes) {
      std::vector<float> a(static_cast<size_t>(s.m * s.k));
      std::vector<float> b(static_cast<size_t>(s.k * s.n));
      std::vector<float> c(static_cast<size_t>(s.m * s.n));
      fill(a, 1);
      fill(b, 2);
      const int64_t iters = std::max<int64_t>(1, 8000000 / (s.m * s.k * s.n));
      const Clock::time_point t0 = Clock::now();
      for (int64_t i = 0; i < iters; ++i) {
        Gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
      }
      seconds += SecondsSince(t0);
      flops += 2.0 * static_cast<double>(s.m * s.k * s.n * iters);
    }
    gflops.push_back(flops / seconds / 1e9);
  }
  result->Add("tensor.gemm_train_gflops", Median(gflops), "GFLOP/s", 7);

  // The predict head's first layer at one request: [1, 2d] x [2d, d].
  std::vector<float> a(64), b(64 * 32), c(32);
  fill(a, 3);
  fill(b, 4);
  std::vector<double> head_ns;
  for (int sample = 0; sample < 9; ++sample) {
    const int64_t iters = 4000;
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < iters; ++i) {
      Gemm(a.data(), b.data(), c.data(), 1, 64, 32);
    }
    head_ns.push_back(MicrosBetween(t0, Clock::now()) * 1000.0 /
                      static_cast<double>(iters));
  }
  result->Add("tensor.gemm_head_ns", Median(head_ns), "ns", 9);
}

// ---- data --------------------------------------------------------------------

void ProbeSimulate(uint64_t seed, RunResult* result) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    const data::Dataset d =
        data::StudentSimulator(TrainDataConfig(seed)).Generate();
    ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    if (d.sequences.empty()) result->errors.push_back("simulator: empty");
  }
  result->Add("data.simulate_ms", Median(ms), "ms", 5);
}

// ---- autograd + rckt: one untraced and one traced training round ---------

// Self time per span name from a Chrome trace written by kt::obs: a span's
// duration minus the part its same-thread child spans cover.
std::map<std::string, double> SelfTimesUs(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  struct Span {
    std::string name;
    double ts, dur, child = 0.0;
  };
  std::map<int, std::vector<Span>> by_thread;
  const std::string key = "{\"name\":\"";
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1)) {
    char name[128];
    int tid = 0;
    double ts = 0.0, dur = 0.0;
    if (std::sscanf(json.c_str() + pos,
                    "{\"name\":\"%127[^\"]\",\"cat\":\"kt\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%lf,\"dur\":%lf}",
                    name, &tid, &ts, &dur) == 4) {
      by_thread[tid].push_back({name, ts, dur});
    }
  }
  std::map<std::string, double> self;
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<Span*> stack;
    for (Span& s : spans) {
      while (!stack.empty() &&
             stack.back()->ts + stack.back()->dur <= s.ts + 1e-3) {
        stack.pop_back();
      }
      if (!stack.empty()) stack.back()->child += s.dur;
      stack.push_back(&s);
    }
    for (const Span& s : spans) self[s.name] += s.dur - s.child;
  }
  return self;
}

double HistogramSumMs(const char* name) {
  return obs::Histogram::Get(name)->Snapshot().sum / 1000.0;
}

void ProbeTrainingRound(const Options& options, int threads,
                        RunResult* result) {
  SetNumThreads(threads);
  std::unique_ptr<TrainSetup> setup = BuildTrainSetup(options.seed);
  Rng dkt_shuffle(options.seed * 31 + 7);
  Rng sakt_shuffle(options.seed * 31 + 8);

  // Untraced round: per-call timings.
  Clock::time_point t0 = Clock::now();
  const EpochStats dkt = RunEpoch(*setup->dkt, *setup, 0, dkt_shuffle);
  const EpochStats sakt = RunEpoch(*setup->sakt, *setup, 0, sakt_shuffle);
  const ScoreStats dkt_score = RunScorePass(*setup->dkt, *setup);
  const ScoreStats sakt_score = RunScorePass(*setup->sakt, *setup);
  const double untraced_s = SecondsSince(t0);
  result->Add("rckt.dkt.train_step_ms", Median(dkt.step_ms), "ms",
              static_cast<int64_t>(dkt.step_ms.size()));
  result->Add("rckt.sakt.train_step_ms", Median(sakt.step_ms), "ms",
              static_cast<int64_t>(sakt.step_ms.size()));
  result->Add("rckt.dkt.score_batch_ms", Median(dkt_score.batch_ms), "ms",
              static_cast<int64_t>(dkt_score.batch_ms.size()));
  result->Add("rckt.sakt.score_batch_ms", Median(sakt_score.batch_ms), "ms",
              static_cast<int64_t>(sakt_score.batch_ms.size()));

  // Traced round: counters and spans of one epoch of each encoder.
  const std::string trace_path = options.work + "/train_trace.json";
  obs::ResetAllMetrics();
  obs::StartTracing(trace_path);
  t0 = Clock::now();
  RunEpoch(*setup->dkt, *setup, 1, dkt_shuffle);
  RunEpoch(*setup->sakt, *setup, 1, sakt_shuffle);
  const int64_t gemm_calls = obs::Counter::Get("gemm.calls")->Value();
  const int64_t gemm_flops = obs::Counter::Get("gemm.flops")->Value();
  const int64_t passes = obs::Counter::Get("rckt.fanout_passes")->Value();
  const double pooled_ms = HistogramSumMs("rckt/fanout_pooled");
  const Status written = obs::WriteTrace(trace_path);
  // Live dropout sends training through the per-pass (pooled) fan-out;
  // scoring takes the stacked one, so its span is read over the passes.
  const double stacked_before = HistogramSumMs("rckt/fanout_stacked");
  RunScorePass(*setup->dkt, *setup);
  RunScorePass(*setup->sakt, *setup);
  const double stacked_ms =
      HistogramSumMs("rckt/fanout_stacked") - stacked_before;
  const double traced_s = SecondsSince(t0);
  obs::StopTracing();
  obs::SetEnabled(false);
  result->Check(written.ok(), "cannot write " + trace_path);

  double fwd_us = 0.0, bwd_us = 0.0;
  for (const auto& [name, us] : SelfTimesUs(trace_path)) {
    if (name.rfind("fused/", 0) != 0) continue;
    const bool bwd = name.size() > 4 && name.substr(name.size() - 4) == "_bwd";
    (bwd ? bwd_us : fwd_us) += us;
  }
  // "Per epoch" counts one epoch of RCKT-DKT plus one of RCKT-SAKT.
  result->Add("tensor.gemm_calls_per_epoch", static_cast<double>(gemm_calls),
              "count");
  result->Add("tensor.gemm_flops_per_epoch", static_cast<double>(gemm_flops),
              "FLOP");
  result->Add("autograd.fused_fwd_ms_per_epoch", fwd_us / 1000.0, "ms");
  result->Add("autograd.fused_bwd_ms_per_epoch", bwd_us / 1000.0, "ms");
  result->Add("rckt.fanout_passes_per_epoch", static_cast<double>(passes),
              "count");
  result->Add("rckt.fanout_pooled_ms_per_epoch", pooled_ms, "ms");
  result->Add("rckt.fanout_stacked_ms_per_score_round", stacked_ms, "ms");
  if (result->Find("obs.trace_overhead_s") == nullptr) {
    result->Add("obs.trace_overhead_s", traced_s - untraced_s, "s");
  }
}

// ---- rckt encoders -------------------------------------------------------------

// A [1, T, d] embedded interaction sequence for `model`.
Tensor EmbeddedSequence(const rckt::RCKT& model,
                        const data::ResponseSequence& seq, int64_t length) {
  const int64_t d = model.config().dim;
  Tensor out(Shape{1, length, d});
  for (int64_t t = 0; t < length; ++t) {
    const Tensor row =
        InteractionRow(model, seq.interactions[static_cast<size_t>(t)]);
    std::memcpy(out.data() + t * d, row.data(),
                static_cast<size_t>(d) * sizeof(float));
  }
  return out;
}

Tensor RowOf(const Tensor& seq, int64_t t) {
  const int64_t d = seq.shape()[2];
  Tensor row(Shape{1, d});
  std::memcpy(row.data(), seq.data() + t * d,
              static_cast<size_t>(d) * sizeof(float));
  return row;
}

Tensor Prefix(const Tensor& seq, int64_t length) {
  const int64_t d = seq.shape()[2];
  Tensor out(Shape{1, length, d});
  std::memcpy(out.data(), seq.data(),
              static_cast<size_t>(length * d) * sizeof(float));
  return out;
}

void ProbeEncoders(const Options& options, RunResult* result) {
  std::string error;
  auto dkt = LoadServeModel(options.models + "/dkt.ktw", &error);
  auto sakt = LoadServeModel(options.models + "/sakt.ktw", &error);
  if (dkt == nullptr || sakt == nullptr) {
    result->errors.push_back("encoder probe: " + error);
    return;
  }
  const data::StudentSimulator simulator(
      ScenarioConfig("scenario_base", options.seed));
  const data::ResponseSequence seq = simulator.GenerateStudent(101, 1);

  {  // DKT: O(1) step after a 49-step history (history length 50 after).
    const rckt::BiEncoder& enc = dkt->bi_encoder();
    const Tensor a = EmbeddedSequence(*dkt, seq, 101);
    auto stream = enc.NewForwardStream();
    enc.ReplayForward(*stream, Prefix(a, 49));
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const Tensor row = RowOf(a, 49 + i % 50);
      const Clock::time_point t0 = Clock::now();
      enc.StepForward(*stream, row);
      us.push_back(MicrosBetween(t0, Clock::now()));
    }
    result->Add("rckt.encoder.dkt.step_us", Median(us), "us", 200);
  }
  {  // SAKT: the 100th step over a 99-entry KV cache, and a full replay.
    const rckt::BiEncoder& enc = sakt->bi_encoder();
    const Tensor a = EmbeddedSequence(*sakt, seq, 100);
    auto base = enc.NewForwardStream();
    enc.ReplayForward(*base, Prefix(a, 99));
    const Tensor row = RowOf(a, 99);
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      auto stream = enc.CloneStreamPrefix(*base, 99);
      const Clock::time_point t0 = Clock::now();
      enc.StepForward(*stream, row);
      us.push_back(MicrosBetween(t0, Clock::now()));
    }
    result->Add("rckt.encoder.sakt.step_us", Median(us), "us", 200);
    std::vector<double> ms;
    for (int i = 0; i < 30; ++i) {
      auto stream = enc.NewForwardStream();
      const Clock::time_point t0 = Clock::now();
      enc.ReplayForward(*stream, a);
      ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    }
    result->Add("rckt.encoder.sakt.replay_ms", Median(ms), "ms", 30);
  }
}

// ---- serve: engine, shard queue, wire ------------------------------------------

serve::ServeRequest Request(const std::string& line) {
  return serve::DecodeLine(line).request;
}

void ProbeServe(const Options& options, RunResult* result) {
  std::string error;
  const std::string model_path = options.models + "/" + kServeModel;
  const std::string csv = options.models + "/base.csv";
  auto model = LoadServeModel(model_path, &error);
  const data::Dataset windows = LoadConceptWindows(csv, &error);
  if (model == nullptr || windows.sequences.empty()) {
    result->errors.push_back("serve probe: " + error);
    return;
  }
  const data::StudentSimulator simulator(
      ScenarioConfig(kServeScenario, options.seed));
  std::vector<data::ResponseSequence> students;
  for (int64_t i = 0; i < 16; ++i) {
    students.push_back(simulator.GenerateStudentAuto(static_cast<uint64_t>(i)));
  }
  auto id = [](size_t i) { return "probe-s" + std::to_string(i); };

  // Engine: the workload's traffic through InferenceEngine::Execute.
  serve::InferenceEngine engine(*model, ServeEngineOptions(*model));
  engine.LoadConceptMap(windows);
  std::vector<double> predict_us, update_us, explain_ms, recourse_ms;
  int64_t failed = 0;
  auto timed = [&](const std::string& line, std::vector<double>* out,
                   double scale) {
    const serve::ServeRequest request = Request(line);
    const Clock::time_point t0 = Clock::now();
    const serve::ServeResponse response = engine.Execute(request);
    if (out != nullptr) out->push_back(MicrosBetween(t0, Clock::now()) * scale);
    if (!response.ok) ++failed;
  };
  for (size_t i = 0; i < students.size(); ++i) {
    const bool measured = i < 8;
    for (const auto& it : students[i].interactions) {
      timed(serve::PredictLine(id(i), it.question, it.concepts),
            measured ? &predict_us : nullptr, 1.0);
      timed(serve::UpdateLine(id(i), it.question, it.concepts, it.response),
            measured ? &update_us : nullptr, 1.0);
    }
    if (!measured) continue;
    const auto& last = students[i].interactions.back();
    serve::JsonWriter w;
    w.BeginObject().Key("op").String("explain").Key("student").String(id(i));
    w.Key("question").Int(last.question).EndObject();
    timed(w.str(), &explain_ms, 1e-3);
    timed(serve::RecourseLine(id(i), last.question, last.concepts, 2, 3, -1.0,
                              {}, false),
          &recourse_ms, 1e-3);
  }
  std::vector<serve::ServeRequest> batch;
  for (size_t i = 0; i < students.size(); ++i) {
    const auto& last = students[i].interactions.back();
    batch.push_back(
        Request(serve::PredictLine(id(i), last.question, last.concepts)));
  }
  std::vector<double> batch_us;
  for (int rep = 0; rep < 50; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const auto replies = engine.ExecuteBatch(batch);
    batch_us.push_back(MicrosBetween(t0, Clock::now()) /
                       static_cast<double>(batch.size()));
    for (const auto& r : replies) failed += r.ok ? 0 : 1;
  }
  result->Check(failed == 0, "serve engine probe: failed requests");
  const double engine_predict = Median(predict_us);
  result->Add("serve.engine.predict_us", engine_predict, "us",
              static_cast<int64_t>(predict_us.size()));
  result->Add("serve.engine.update_us", Median(update_us), "us",
              static_cast<int64_t>(update_us.size()));
  result->Add("serve.engine.explain_ms", Median(explain_ms), "ms",
              static_cast<int64_t>(explain_ms.size()));
  result->Add("serve.engine.recourse_ms", Median(recourse_ms), "ms",
              static_cast<int64_t>(recourse_ms.size()));
  result->Add("serve.engine.batch_predict_us_per_req", Median(batch_us), "us",
              50);

  // Shard queue: blocking predicts through a ShardSet with the server's
  // default coalescing options (no reactor, no socket).
  const data::ResponseSequence& warm = students[0];
  std::vector<double> roundtrip_us;
  {
    serve::ShardSetOptions shard_options;
    shard_options.shards = 2;
    shard_options.engine = ServeEngineOptions(*model);
    serve::ShardSet shards(*model, shard_options, &windows);
    for (const auto& it : warm.interactions) {
      if (!shards.SubmitSync(Request(serve::UpdateLine(
                                 "probe-shard", it.question, it.concepts,
                                 it.response)))
               .ok) {
        ++failed;
      }
    }
    for (int i = 0; i < 200; ++i) {
      const auto& it =
          warm.interactions[static_cast<size_t>(i) % warm.interactions.size()];
      const serve::ServeRequest request = Request(
          serve::PredictLine("probe-shard", it.question, it.concepts));
      const Clock::time_point t0 = Clock::now();
      failed += shards.SubmitSync(request).ok ? 0 : 1;
      roundtrip_us.push_back(MicrosBetween(t0, Clock::now()));
    }
    shards.Stop();
  }
  const double roundtrip = Median(roundtrip_us);
  result->Add("serve.shard.roundtrip_us", roundtrip, "us", 200);
  result->Add("serve.shard.queue_wait_us", roundtrip - engine_predict, "us",
              200);

  // Wire: the same predicts over TCP to a fresh `ktcli serve`, and a
  // request line the reactor answers itself (unknown op: no shard work).
  std::vector<double> client_us, echo_us;
  {
    ServerProcess server;
    double setup = 0.0;
    const std::vector<std::string> args = {
        "--load", model_path, "--data", csv, "--shards", "2", "--threads",
        "1"};
    const std::string log = options.work + "/probe_serve.log";
    std::remove(log.c_str());
    if (!StartServer(server, options.ktcli, args, log, "wire_probe_start",
                     &setup, result)) {
      return;
    }
    serve::LineClient client;
    std::string reply;
    bool ok = client.Connect(server.port(), &error);
    for (const auto& it : warm.interactions) {
      ok = ok && client.RoundTrip(serve::UpdateLine("probe-wire", it.question,
                                                    it.concepts, it.response),
                                  &reply, &error);
    }
    for (int i = 0; ok && i < 200; ++i) {
      const auto& it =
          warm.interactions[static_cast<size_t>(i) % warm.interactions.size()];
      Clock::time_point t0 = Clock::now();
      ok = client.RoundTrip(
          serve::PredictLine("probe-wire", it.question, it.concepts), &reply,
          &error);
      client_us.push_back(MicrosBetween(t0, Clock::now()));
      ok = ok && reply.find("\"ok\":true") != std::string::npos;
      t0 = Clock::now();
      ok = ok && client.RoundTrip("{\"op\":\"ping\"}", &reply, &error);
      echo_us.push_back(MicrosBetween(t0, Clock::now()));
      ok = ok && reply.find("\"ok\":false") != std::string::npos;
    }
    result->CountOp("wire_probe", ok);
    result->Check(ok, "wire probe failed: " + error);
    std::string why;
    const bool down = server.Shutdown(&why);
    result->CountOp("shutdown", down);
    result->Check(down, "wire probe shutdown: " + why);
  }
  const double client_p50 = Median(client_us);
  const double echo = Median(echo_us);
  result->Add("serve.wire.overhead_us", client_p50 - roundtrip, "us", 200);
  result->Add("serve.wire.echo_us", echo, "us", 200);
  // The client predict median of the workload itself when it served
  // traffic, else the probe's own.
  const Metric* served = result->Find("client.predict_p50_us");
  const double e2e = served != nullptr ? served->value : client_p50;
  // engine + queue wait + echo = round trip + echo: the part of the client
  // median that the engine, the shard queue and the reactor's own echo
  // time do not account for.
  const double residual = 100.0 * (e2e - roundtrip - echo) / e2e;
  result->Add("serve.decomposition_residual_pct", residual, "%");
  result->Check(std::fabs(residual) <= kDecompositionTolerancePct,
                "client predict p50 of " + std::to_string(e2e) +
                    " us is not accounted for by engine + queue wait + echo "
                    "(" + std::to_string(roundtrip + echo) +
                    " us) within the tolerance");
}

}  // namespace

void RunLayerProbes(const Options& options, int threads, RunResult* result) {
  ProbeGemm(threads, result);
  ProbeSimulate(options.seed, result);
  ProbeTrainingRound(options, threads, result);
  SetNumThreads(threads);
  ProbeEncoders(options, result);
  ProbeServe(options, result);
  if (result->Find("serve.shard.batch_size_mean") == nullptr) {
    // Workloads without a traced server run no shard batches.
    result->Add("serve.shard.batch_size_mean", 0.0, "count");
    result->Add("serve.session.replays", 0.0, "count");
    result->Add("serve.session.evictions", 0.0, "count");
  }
}

}  // namespace rcktbench
