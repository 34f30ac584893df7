// The benchmark's two workloads and the per-layer probe suite.
//
//   train_offline     in-process RCKT-DKT + RCKT-SAKT training and test
//                     scoring on the assist09 simulator stand-in;
//   serve_closed_dkt  a fresh `ktcli serve` on a DKT model, two closed-loop
//                     connections streaming `zipf` traffic, then explain and
//                     recourse checks outside the timed section.
//
// Every workload is time-boxed but attempts whole rounds (a training round
// is one epoch of each encoder plus one scoring pass of each; a serving
// round is one student's whole stream).
#ifndef RCKTBENCH_WORKLOADS_H_
#define RCKTBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/dataset.h"
#include "data/simulator.h"
#include "rckt/rckt_model.h"
#include "rckt/samples.h"
#include "serve/engine.h"

namespace rcktbench {

namespace data = kt::data;
namespace rckt = kt::rckt;
namespace serve = kt::serve;
using kt::Rng;
using kt::Tensor;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ktcli;   // the ktcli binary built from this checkout
  std::string models;  // serve models + their training log (run.py makes them)
  std::string work;    // scratch directory for logs and trace files
};

// ---- shared set-up ---------------------------------------------------------

// Model shape shared by the training workload and the serve models (the
// `ktcli train` defaults).
rckt::RcktConfig BenchRcktConfig(rckt::EncoderKind encoder, uint64_t seed);

// Everything one training set-up builds: data, samples, batches, models.
struct TrainSetup {
  data::FoldSplit split;  // the prefix samples point into its sequences
  // Disjoint training chunks of the same batch shapes; epoch e trains
  // on chunk e modulo their number.
  std::vector<std::vector<rckt::PrefixSample>> epochs;
  std::vector<data::Batch> test_batches;
  std::unique_ptr<rckt::RCKT> dkt;
  std::unique_ptr<rckt::RCKT> sakt;
  int64_t test_samples = 0;
};
// Generates the assist09 stand-in from `seed`, windows and splits it,
// enumerates prefix samples and builds both models.
std::unique_ptr<TrainSetup> BuildTrainSetup(uint64_t seed);
data::SimulatorConfig TrainDataConfig(uint64_t seed);

// Training epoch `index` of `model`: one pass over its chunk.
struct EpochStats {
  double seconds = 0.0;
  double mean_loss = 0.0;
  int64_t steps = 0;
  bool finite = true;
  std::vector<double> step_ms;
};
EpochStats RunEpoch(rckt::RCKT& model, const TrainSetup& setup, size_t index,
                    Rng& shuffle);

// One ScoreTargets pass over the setup's test batches.
struct ScoreStats {
  double seconds = 0.0;
  std::vector<float> scores;  // batch order, row order
  std::vector<int> labels;
  std::vector<double> batch_ms;
  bool finite = true;
};
ScoreStats RunScorePass(rckt::RCKT& model, const TrainSetup& setup);

// The serve workload's model file (under Options::models) and traffic.
inline constexpr const char* kServeModel = "dkt.ktw";
inline constexpr const char* kServeScenario = "zipf";

// Loads a KTW2 model written by `ktcli train --save` (architecture from
// its metadata chunk). Null with *error set on failure.
std::unique_ptr<rckt::RCKT> LoadServeModel(const std::string& path,
                                           std::string* error);
// The serve training log windowed as `ktcli serve --data` windows it
// (question -> concepts fallback map).
data::Dataset LoadConceptWindows(const std::string& csv, std::string* error);
// Engine options as `ktcli serve` sets them by default.
serve::EngineOptions ServeEngineOptions(const rckt::RCKT& model);
// Scenario traffic config for a workload seed.
data::SimulatorConfig ScenarioConfig(const std::string& scenario,
                                     uint64_t seed);

// The engine's embedded interaction row a = e(q, concepts) + r_emb[r].
Tensor InteractionRow(const rckt::RCKT& model, const data::Interaction& it);

// ---- workloads ---------------------------------------------------------------

RunResult RunTrainOffline(const Options& options);
RunResult RunServeClosedDkt(const Options& options);

// Per-layer probes (trace runs): times calls into each module's public
// functions and reads the kt::obs counters and spans. `threads` is the
// workload's pool size.
void RunLayerProbes(const Options& options, int threads, RunResult* result);

}  // namespace rcktbench

#endif  // RCKTBENCH_WORKLOADS_H_
