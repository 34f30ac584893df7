// Helpers shared by the benchmark's workloads: exact statistics over the
// benchmark's own samples, the run report, and small process utilities.
//
// Percentiles here are order statistics of the recorded samples, never
// kt::obs histogram reads (those return log2 bucket edges).
#ifndef RCKTBENCH_BENCH_UTIL_H_
#define RCKTBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcktbench {

using Clock = std::chrono::steady_clock;

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 15;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Nearest-rank percentile (q in [0, 1]) of `values`: the smallest sample
// with at least q*n samples at or below it, so the result is always one of
// the recorded values. NaN for an empty input.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// Area under the ROC curve by the Mann-Whitney rank sum, with tied scores
// given their average rank. NaN when either class is absent.
double RankSumAuc(const std::vector<float>& scores,
                  const std::vector<int>& labels);

// Positions where the two vectors differ bit for bit (a length mismatch
// counts every unmatched position).
int64_t CountBitMismatches(const std::vector<float>& a,
                           const std::vector<float>& b);

// One end-to-end or per-layer figure. `samples` is the number of
// measurements the value summarizes (0 when it is a count or a single
// measurement).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

// Operations one run attempted and how many of them failed, per op kind.
struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

// Everything a workload hands back to main().
struct RunResult {
  std::vector<Metric> metrics;
  std::map<std::string, OpCount> ops;
  // Correctness-check failures, one line each; empty means correct.
  std::vector<std::string> errors;
  // Free-form facts about the run (pool threads, shard count, ...).
  std::map<std::string, std::string> facts;

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void CountOp(const std::string& op, bool ok) {
    ++ops[op].attempted;
    if (!ok) ++ops[op].failed;
  }
  // The figure named `name`, or null.
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

// Peak resident set (VmHWM) of process `pid` ("self" for this process),
// in MiB; 0 when unreadable.
double PeakRssMiB(const std::string& pid);

// Number of online CPUs.
int OnlineCpus();

// Reserves a currently free loopback TCP port (bind to port 0, read it
// back, close). 0 on failure.
int FreeLoopbackPort();

// The calling process's working-directory-relative path helpers.
bool MakeDirs(const std::string& path);

// Runs the helper self-test (percentiles, rank-sum AUC, the parity
// negative control). Returns the failures, empty when all pass.
std::vector<std::string> SelfTest();

}  // namespace rcktbench

#endif  // RCKTBENCH_BENCH_UTIL_H_
