// train_offline: in-process RCKT training and test scoring.
#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/parallel.h"
#include "core/rng.h"
#include "data/presets.h"
#include "workloads.h"

namespace rcktbench {

using namespace kt;

rckt::RcktConfig BenchRcktConfig(rckt::EncoderKind encoder, uint64_t seed) {
  rckt::RcktConfig config;  // dim 32, 1 layer, 2 heads, dropout 0.1
  config.encoder = encoder;
  config.seed = seed;
  // Learning rates that learn within a few epochs on this data (the
  // attention encoder is unstable at the recurrent one's rate).
  config.lr = encoder == rckt::EncoderKind::kDKT ? 1e-2f : 3e-3f;
  return config;
}

data::SimulatorConfig TrainDataConfig(uint64_t seed) {
  data::SimulatorConfig config = data::Assist09Preset(1.0);  // 420 students
  config.seed = 1000 + seed;
  return config;
}

namespace {

// The prefix targets an epoch and a scoring pass draw on, and how many
// samples of each they take: the stride-6 (training) or stride-2 (test)
// targets of a full 50-step window plus its last position. Every seed then
// gives batches of the same shapes, so the work and the peak memory of an
// epoch or a pass do not depend on how long the seed's sequences run; only
// the data in them does.
constexpr int64_t kTrainPerTarget = 32;
constexpr int64_t kTestPerTarget = 24;
constexpr size_t kTrainChunks = 2;

std::vector<int64_t> FullWindowTargets(int64_t stride) {
  std::vector<int64_t> targets;
  for (int64_t t = 4; t < 49; t += stride) targets.push_back(t);
  targets.push_back(49);
  return targets;
}

// Shuffles `samples` with `seed` and deals them into `chunks` chunks that
// each hold exactly `per_target` samples of every target in `targets`.
// Empty when some target has too few samples.
std::vector<std::vector<rckt::PrefixSample>> ChunkByTarget(
    std::vector<rckt::PrefixSample> samples,
    const std::vector<int64_t>& targets, int64_t per_target, size_t chunks,
    uint64_t seed) {
  Rng rng(seed);
  rng.Shuffle(samples);
  std::map<int64_t, std::vector<rckt::PrefixSample>> by_target;
  for (const rckt::PrefixSample& s : samples) {
    by_target[s.target].push_back(s);
  }
  std::vector<std::vector<rckt::PrefixSample>> out(chunks);
  const size_t q = static_cast<size_t>(per_target);
  for (const int64_t t : targets) {
    const std::vector<rckt::PrefixSample>& bucket = by_target[t];
    if (bucket.size() < chunks * q) return {};
    for (size_t c = 0; c < chunks; ++c) {
      out[c].insert(out[c].end(), bucket.begin() + c * q,
                    bucket.begin() + (c + 1) * q);
    }
  }
  return out;
}

}  // namespace

std::unique_ptr<TrainSetup> BuildTrainSetup(uint64_t seed) {
  auto setup = std::make_unique<TrainSetup>();
  const data::Dataset raw =
      data::StudentSimulator(TrainDataConfig(seed)).Generate();
  const data::Dataset windows = data::SplitIntoWindows(raw, 50, 5);
  Rng split_rng(seed * 7 + 3);
  const auto folds = data::KFoldAssignment(
      static_cast<int64_t>(windows.sequences.size()), 5, split_rng);
  setup->split = data::MakeFold(windows, folds, 0, 0.0, split_rng);
  setup->epochs = ChunkByTarget(
      rckt::MakePrefixSamples(setup->split.train, 6, 4), FullWindowTargets(6),
      kTrainPerTarget, kTrainChunks, seed * 13 + 1);
  auto test_chunks = ChunkByTarget(
      rckt::MakePrefixSamples(setup->split.test, 2, 4), FullWindowTargets(2),
      kTestPerTarget, 1, seed * 13 + 2);
  if (setup->epochs.empty() || test_chunks.empty()) return setup;
  std::vector<rckt::PrefixSample> test = std::move(test_chunks.front());
  setup->test_samples = static_cast<int64_t>(test.size());
  for (const auto& group :
       rckt::GroupIntoBatches(std::move(test), 32, nullptr)) {
    setup->test_batches.push_back(rckt::MakePrefixBatch(group));
  }
  const int64_t nq = windows.num_questions;
  const int64_t nc = windows.num_concepts;
  setup->dkt = std::make_unique<rckt::RCKT>(
      nq, nc, BenchRcktConfig(rckt::EncoderKind::kDKT, seed));
  setup->sakt = std::make_unique<rckt::RCKT>(
      nq, nc, BenchRcktConfig(rckt::EncoderKind::kSAKT, seed));
  return setup;
}

EpochStats RunEpoch(rckt::RCKT& model, const TrainSetup& setup, size_t index,
                    Rng& shuffle) {
  EpochStats stats;
  double loss_sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (const auto& group :
       rckt::GroupIntoBatches(setup.epochs[index % setup.epochs.size()], 32,
                              &shuffle)) {
    const data::Batch batch = rckt::MakePrefixBatch(group);
    const Clock::time_point t0 = Clock::now();
    const float loss = model.TrainStep(batch);
    stats.step_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    if (!std::isfinite(loss)) stats.finite = false;
    loss_sum += loss;
    ++stats.steps;
  }
  stats.seconds = SecondsSince(start);
  stats.mean_loss = loss_sum / static_cast<double>(std::max<int64_t>(
                                   stats.steps, 1));
  return stats;
}

namespace {

int TargetLabel(const data::Batch& batch, int64_t row) {
  return batch.responses[static_cast<size_t>(
      batch.FlatIndex(row, batch.max_len - 1))];
}

}  // namespace

ScoreStats RunScorePass(rckt::RCKT& model, const TrainSetup& setup) {
  ScoreStats stats;
  const Clock::time_point start = Clock::now();
  for (const data::Batch& batch : setup.test_batches) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<float> scores = model.ScoreTargets(batch);
    stats.batch_ms.push_back(MicrosBetween(t0, Clock::now()) / 1000.0);
    for (int64_t b = 0; b < batch.batch_size; ++b) {
      const float s = scores[static_cast<size_t>(b)];
      if (!std::isfinite(s)) stats.finite = false;
      stats.scores.push_back(s);
      stats.labels.push_back(TargetLabel(batch, b));
    }
  }
  stats.seconds = SecondsSince(start);
  return stats;
}

namespace {

// Every run trains at least kMinRounds rounds. The AUC check reads the
// pass after the last of them: later rounds overfit the small training
// set, and how many a run reaches depends on the machine's speed, so only
// the first rounds are the same on every run.
constexpr size_t kMinRounds = 3;

// Log loss of the generator's direct prediction (no dropout, no
// counterfactual passes) on training chunk 0: a deterministic reading of
// the training objective's main term. An epoch's mean TrainStep loss moves
// by about as much from dropout noise as it falls in a few epochs.
double GeneratorLogLoss(rckt::RCKT& model, const TrainSetup& setup) {
  double sum = 0.0;
  int64_t n = 0;
  for (const auto& group : rckt::GroupIntoBatches(setup.epochs[0], 32,
                                                  nullptr)) {
    const data::Batch batch = rckt::MakePrefixBatch(group);
    const std::vector<float> p = model.GeneratorScoreTargets(batch);
    for (int64_t b = 0; b < batch.batch_size; ++b) {
      const double q = std::clamp(static_cast<double>(p[b]), 1e-7, 1 - 1e-7);
      sum -= TargetLabel(batch, b) != 0 ? std::log(q) : std::log(1.0 - q);
      ++n;
    }
  }
  return sum / static_cast<double>(std::max<int64_t>(n, 1));
}

// Property checks of one trained model after the timed section. `passes`
// holds one scoring pass per round, in round order; `initial_log_loss` is
// GeneratorLogLoss before the first epoch.
void CheckModel(const char* name, rckt::RCKT& model, const TrainSetup& setup,
                const std::vector<EpochStats>& epochs,
                const std::vector<ScoreStats>& passes, double initial_log_loss,
                int threads, RunResult* result) {
  const std::string tag = name;
  const ScoreStats& last_pass = passes.back();
  std::string losses;
  for (const EpochStats& e : epochs) {
    losses += std::to_string(e.mean_loss).substr(0, 6) + " ";
  }
  result->facts[tag + ".loss_by_round"] = losses;
  // Training must lower its objective on chunk 0 by at least 1 %, read
  // either as the mean TrainStep loss of epoch 3 against epoch 1 (both
  // train chunk 0) or as the generator's log loss after training against
  // before. Neither reading alone is reliable for both encoders: RCKT-DKT's
  // total loss levels off after one epoch while its generator keeps
  // improving, and RCKT-SAKT the other way round (README.md).
  const double trained_log_loss = GeneratorLogLoss(model, setup);
  const double epoch_ratio = epochs[2].mean_loss / epochs[0].mean_loss;
  const double generator_ratio = trained_log_loss / initial_log_loss;
  result->facts[tag + ".loss_ratios"] = std::to_string(epoch_ratio) + " " +
                                        std::to_string(generator_ratio);
  result->Check(std::min(epoch_ratio, generator_ratio) <= 0.99,
                tag + ": training lowered neither the epoch loss nor the "
                      "generator log loss on its training data by 1 %");
  const double auc = RankSumAuc(passes[kMinRounds - 1].scores,
                                passes[kMinRounds - 1].labels);
  result->facts[tag + ".checked_test_auc"] = std::to_string(auc);
  result->Check(auc > 0.5, tag + ": rank-sum test AUC " +
                               std::to_string(auc) + " is not above 0.5");

  // ScoreTargets is sigmoid((sum Delta+ - sum Delta-) / t) over a t-step
  // history; ExplainTargets sums the same influences per position. The
  // reduction orders differ, so the two agree to rounding, not bitwise.
  size_t offset = 0;
  int64_t disagreements = 0;
  for (const data::Batch& batch : setup.test_batches) {
    const auto explanations = model.ExplainTargets(batch);
    const double t = static_cast<double>(batch.max_len - 1);
    for (const auto& ex : explanations) {
      const double sig =
          1.0 / (1.0 + std::exp(-static_cast<double>(ex.score) / t));
      const double s = last_pass.scores[offset++];
      if (std::fabs(sig - s) > 1e-4 ||
          ex.predicted_correct != (ex.score >= 0.0f)) {
        ++disagreements;
      }
    }
  }
  result->Check(disagreements == 0,
                tag + ": " + std::to_string(disagreements) +
                    " ScoreTargets values differ from sigmoid(explain score)");

  // Thread-count invariance on the first test batch.
  const data::Batch& first = setup.test_batches.front();
  SetNumThreads(1);
  const std::vector<float> serial = model.ScoreTargets(first);
  SetNumThreads(threads);
  const std::vector<float> pooled = model.ScoreTargets(first);
  const std::vector<float> timed(
      last_pass.scores.begin(),
      last_pass.scores.begin() + static_cast<ptrdiff_t>(first.batch_size));
  result->Check(CountBitMismatches(serial, pooled) == 0,
                tag + ": first test batch differs between 1 and " +
                    std::to_string(threads) + " threads");
  result->Check(CountBitMismatches(pooled, timed) == 0,
                tag + ": first test batch differs from the timed pass");
}

}  // namespace

RunResult RunTrainOffline(const Options& options) {
  RunResult result;
  // Two pool threads: at four, on a 4-core host, RCKT-SAKT epochs and
  // scoring are no faster and the epoch times' run-to-run spread triples
  // (README.md, "Steadiness").
  const int threads = std::min(OnlineCpus(), 2);
  SetNumThreads(threads);
  result.facts["pool_threads"] = std::to_string(threads);
  result.facts["shards"] = "0";

  // Set-up, kSetups times; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<TrainSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();
    const Clock::time_point t0 = Clock::now();
    setup = BuildTrainSetup(options.seed);
    setup_s.push_back(SecondsSince(t0));
  }
  result.facts["train_chunks"] = std::to_string(setup->epochs.size());
  result.facts["test_samples"] = std::to_string(setup->test_samples);
  if (setup->test_batches.empty() || setup->epochs.empty()) {
    result.errors.push_back("train_offline: empty split");
    return result;
  }

  const double dkt_initial = GeneratorLogLoss(*setup->dkt, *setup);
  const double sakt_initial = GeneratorLogLoss(*setup->sakt, *setup);
  Rng dkt_shuffle(options.seed * 31 + 7);
  Rng sakt_shuffle(options.seed * 31 + 8);
  std::vector<EpochStats> dkt_epochs, sakt_epochs;
  std::vector<ScoreStats> dkt_scores, sakt_scores;
  // Peak RSS is read after the first kMinRounds rounds, so it
  // describes a fixed amount of work rather than the run's length.
  double peak_rss = 0.0;
  const Clock::time_point start = Clock::now();
  while (dkt_epochs.size() < kMinRounds ||
         SecondsSince(start) < options.seconds) {
    const size_t round = dkt_epochs.size();
    dkt_epochs.push_back(RunEpoch(*setup->dkt, *setup, round, dkt_shuffle));
    sakt_epochs.push_back(RunEpoch(*setup->sakt, *setup, round, sakt_shuffle));
    dkt_scores.push_back(RunScorePass(*setup->dkt, *setup));
    sakt_scores.push_back(RunScorePass(*setup->sakt, *setup));
    if (dkt_epochs.size() == kMinRounds) peak_rss = PeakRssMiB("self");
  }

  std::vector<double> dkt_epoch_s, sakt_epoch_s, dkt_sps, sakt_sps, both_sps;
  std::vector<double> dkt_step_ms, sakt_step_ms, dkt_batch_ms, sakt_batch_ms;
  const double n_test = static_cast<double>(setup->test_samples);
  for (size_t r = 0; r < dkt_epochs.size(); ++r) {
    for (const auto* e : {&dkt_epochs[r], &sakt_epochs[r]}) {
      const std::string op =
          e == &dkt_epochs[r] ? "train_step.dkt" : "train_step.sakt";
      result.ops[op].attempted += e->steps;
      if (!e->finite) ++result.ops[op].failed;
    }
    for (const auto* s : {&dkt_scores[r], &sakt_scores[r]}) {
      const std::string op = s == &dkt_scores[r] ? "score.dkt" : "score.sakt";
      result.ops[op].attempted += static_cast<int64_t>(s->batch_ms.size());
      if (!s->finite) ++result.ops[op].failed;
    }
    dkt_epoch_s.push_back(dkt_epochs[r].seconds);
    sakt_epoch_s.push_back(sakt_epochs[r].seconds);
    dkt_sps.push_back(n_test / dkt_scores[r].seconds);
    sakt_sps.push_back(n_test / sakt_scores[r].seconds);
    both_sps.push_back(2.0 * n_test /
                       (dkt_scores[r].seconds + sakt_scores[r].seconds));
    dkt_step_ms.insert(dkt_step_ms.end(), dkt_epochs[r].step_ms.begin(),
                       dkt_epochs[r].step_ms.end());
    sakt_step_ms.insert(sakt_step_ms.end(), sakt_epochs[r].step_ms.begin(),
                        sakt_epochs[r].step_ms.end());
    dkt_batch_ms.insert(dkt_batch_ms.end(), dkt_scores[r].batch_ms.begin(),
                        dkt_scores[r].batch_ms.end());
    sakt_batch_ms.insert(sakt_batch_ms.end(), sakt_scores[r].batch_ms.begin(),
                         sakt_scores[r].batch_ms.end());
  }
  const int64_t rounds = static_cast<int64_t>(dkt_epochs.size());
  for (const auto* passes : {&dkt_scores, &sakt_scores}) {
    std::string aucs;
    for (const ScoreStats& pass : *passes) {
      aucs += std::to_string(RankSumAuc(pass.scores, pass.labels)).substr(0, 5);
      aucs += " ";
    }
    result.facts[passes == &dkt_scores ? "RCKT-DKT.auc_by_round"
                                       : "RCKT-SAKT.auc_by_round"] = aucs;
  }
  result.facts["rounds"] = std::to_string(rounds);
  for (const auto* times : {&dkt_epoch_s, &sakt_epoch_s}) {
    std::string list;
    for (const double t : *times) list += std::to_string(t).substr(0, 5) + " ";
    result.facts[times == &dkt_epoch_s ? "RCKT-DKT.epoch_s_by_round"
                                       : "RCKT-SAKT.epoch_s_by_round"] = list;
  }

  CheckModel("RCKT-DKT", *setup->dkt, *setup, dkt_epochs, dkt_scores,
             dkt_initial, threads, &result);
  CheckModel("RCKT-SAKT", *setup->sakt, *setup, sakt_epochs, sakt_scores,
             sakt_initial, threads, &result);

  // End-to-end figures under their own names (report line).
  result.Add("setup_s", Median(setup_s), "s", kSetups);
  result.Add("train_dkt_epoch_s", Median(dkt_epoch_s), "s", rounds);
  result.Add("train_sakt_epoch_s", Median(sakt_epoch_s), "s", rounds);
  result.Add("score_dkt_samples_per_s", Median(dkt_sps), "samples/s", rounds);
  result.Add("score_sakt_samples_per_s", Median(sakt_sps), "samples/s",
             rounds);
  result.Add("peak_rss_mb", peak_rss, "MiB");
  // The gated slots (see README: one metric name per slot on every
  // workload).
  result.Add("throughput_per_s", Median(both_sps), "1/s", rounds);
  result.Add("latency_p50_ms", Median(dkt_epoch_s) * 1000.0, "ms", rounds);
  result.Add("secondary_p50_ms", Median(sakt_epoch_s) * 1000.0, "ms", rounds);
  // Per-call timings of the same epochs (report only).
  result.Add("train_step_dkt_p50_ms", Median(dkt_step_ms), "ms",
             static_cast<int64_t>(dkt_step_ms.size()));
  result.Add("train_step_sakt_p50_ms", Median(sakt_step_ms), "ms",
             static_cast<int64_t>(sakt_step_ms.size()));
  result.Add("score_batch_dkt_p50_ms", Median(dkt_batch_ms), "ms",
             static_cast<int64_t>(dkt_batch_ms.size()));
  result.Add("score_batch_sakt_p50_ms", Median(sakt_batch_ms), "ms",
             static_cast<int64_t>(sakt_batch_ms.size()));
  return result;
}

}  // namespace rcktbench
