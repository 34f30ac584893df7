#include "bench_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>

namespace rcktbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(rank - 1)];
}

double RankSumAuc(const std::vector<float>& scores,
                  const std::vector<int>& labels) {
  const size_t n = scores.size();
  if (n == 0 || labels.size() != n) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double positive_rank_sum = 0.0;
  int64_t positives = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    // Positions i..j (0-based) share the average of ranks i+1..j+1.
    const double rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) {
      if (labels[order[k]] != 0) {
        positive_rank_sum += rank;
        ++positives;
      }
    }
    i = j + 1;
  }
  const int64_t negatives = static_cast<int64_t>(n) - positives;
  if (positives == 0 || negatives == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double p = static_cast<double>(positives);
  const double u = positive_rank_sum - p * (p + 1.0) / 2.0;
  return u / (p * static_cast<double>(negatives));
}

int64_t CountBitMismatches(const std::vector<float>& a,
                           const std::vector<float>& b) {
  const size_t common = std::min(a.size(), b.size());
  int64_t mismatches = static_cast<int64_t>(std::max(a.size(), b.size()) -
                                            common);
  for (size_t i = 0; i < common; ++i) {
    uint32_t x = 0, y = 0;
    std::memcpy(&x, &a[i], sizeof(x));
    std::memcpy(&y, &b[i], sizeof(y));
    if (x != y) ++mismatches;
  }
  return mismatches;
}

double PeakRssMiB(const std::string& pid) {
  const std::string path = "/proc/" + pid + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n >= 1) return static_cast<int>(n);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int FreeLoopbackPort() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  int port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

bool MakeDirs(const std::string& path) {
  std::string prefix;
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    prefix = path.substr(0, pos);
    if (prefix.empty()) continue;
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back("selftest: " + what);
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };

  // Nearest-rank percentiles over {1..5} in shuffled order.
  const std::vector<double> five = {5, 1, 3, 2, 4};
  expect(Percentile(five, 0.5) == 3, "median of 1..5 is 3");
  expect(Percentile(five, 0.2) == 1, "p20 of 1..5 is 1");
  expect(Percentile(five, 0.25) == 2, "p25 of 1..5 is 2");
  expect(Percentile(five, 0.99) == 5, "p99 of 1..5 is 5");
  expect(Percentile(five, 0.0) == 1, "p0 of 1..5 is the minimum");
  // Over 1..1000 the p99 is the 990th value, not a bucket edge.
  std::vector<double> thousand(1000);
  for (size_t i = 0; i < thousand.size(); ++i) {
    thousand[i] = static_cast<double>(1000 - i);
  }
  expect(Percentile(thousand, 0.99) == 990, "p99 of 1..1000 is 990");
  expect(Percentile(thousand, 0.5) == 500, "median of 1..1000 is 500");
  expect(std::isnan(Percentile({}, 0.5)), "empty percentile is NaN");

  // Rank-sum AUC, hand-computed: 3 of 4 (pos, neg) pairs ordered.
  expect(near(RankSumAuc({0.1f, 0.4f, 0.35f, 0.8f}, {0, 0, 1, 1}), 0.75),
         "AUC of the textbook 4-point case is 0.75");
  // One tied (pos, neg) pair counts one half: 3.5 / 4.
  expect(near(RankSumAuc({0.2f, 0.5f, 0.5f, 0.9f}, {0, 0, 1, 1}), 0.875),
         "AUC with one tied pair is 0.875");
  expect(near(RankSumAuc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1}), 0.5),
         "AUC of all-tied scores is 0.5");
  expect(near(RankSumAuc({0.9f, 0.8f, 0.1f}, {0, 0, 1}), 0.0),
         "AUC of a reversed ranking is 0");
  expect(std::isnan(RankSumAuc({0.1f, 0.2f}, {1, 1})),
         "AUC with one class absent is NaN");

  // Parity negative control: one ulp on one probability must register.
  const std::vector<float> served = {0.25f, 0.5f, 0.731058598f, 0.9f};
  std::vector<float> nudged = served;
  nudged[2] = std::nextafter(nudged[2], 1.0f);
  expect(CountBitMismatches(served, served) == 0,
         "identical vectors compare equal");
  expect(CountBitMismatches(served, nudged) == 1,
         "a one-ulp change fails the parity check");
  return failures;
}

}  // namespace rcktbench
