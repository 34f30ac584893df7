// serve_closed_dkt: a fresh `ktcli serve` per run, driven by the
// benchmark's own NDJSON client, then checked against computations made
// apart from the serving path.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/parallel.h"
#include "data/io.h"
#include "data/scenarios.h"
#include "nn/serialize.h"
#include "serve/json.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "server_process.h"
#include "workloads.h"

namespace rcktbench {

using namespace kt;

// ---- shared serve set-up -----------------------------------------------------

std::unique_ptr<rckt::RCKT> LoadServeModel(const std::string& path,
                                           std::string* error) {
  bool has_meta = false;
  nn::ModelMeta meta;
  Status status = nn::ReadModuleMeta(path, &has_meta, &meta);
  if (!status.ok() || !has_meta) {
    *error = "cannot read model metadata from " + path;
    return nullptr;
  }
  rckt::RcktConfig config;
  config.encoder = static_cast<rckt::EncoderKind>(meta.encoder_kind);
  config.dim = meta.dim;
  config.num_layers = meta.num_layers;
  config.num_heads = meta.num_heads;
  auto model = std::make_unique<rckt::RCKT>(meta.num_questions,
                                            meta.num_concepts, config);
  status = nn::LoadModule(*model, path);
  if (!status.ok()) {
    *error = "cannot load " + path + ": " + status.ToString();
    return nullptr;
  }
  return model;
}

data::Dataset LoadConceptWindows(const std::string& csv, std::string* error) {
  auto raw = data::LoadCsv(csv);
  if (!raw.ok()) {
    *error = raw.status().ToString();
    return data::Dataset();
  }
  return data::SplitIntoWindows(raw.value(), 50, 5);
}

serve::EngineOptions ServeEngineOptions(const rckt::RCKT& model) {
  serve::EngineOptions options;
  options.session_budget_bytes = 64ull << 20;
  options.num_questions =
      model.embedder().question_embedding().num_embeddings();
  options.num_concepts = model.embedder().concept_embedding().num_embeddings();
  return options;
}

data::SimulatorConfig ScenarioConfig(const std::string& scenario,
                                     uint64_t seed) {
  data::SimulatorConfig config =
      data::ScenarioByName(scenario, 1.0).value();
  config.seed = 2000 + seed;
  return config;
}

Tensor InteractionRow(const rckt::RCKT& model, const data::Interaction& it) {
  ag::NoGradGuard no_grad;
  const ag::Variable e =
      model.embedder().QuestionEmbedRows({it.question}, {it.concepts});
  const ag::Variable r =
      ag::EmbeddingLookup(model.embedder().response_table(), {it.response});
  return ag::Add(e, r).value();
}

namespace {

// ---- traffic -----------------------------------------------------------------

enum OpKind { kPredict = 0, kUpdate, kNumOps };
constexpr std::array<const char*, kNumOps> kOpNames = {"predict", "update"};

constexpr int kConnections = 2;
// Students whose explain and recourse replies are checked after the run.
constexpr size_t kTailStudents = 4;

// One traffic student: its generated stream, what the server answered,
// and where the client is in its op sequence (a predict then an update
// per interaction).
struct StudentRun {
  std::string id;
  data::ResponseSequence seq;
  // Explain/recourse target: re-practising the most recent question.
  data::Interaction target;
  std::vector<float> predictions;
  int64_t step = 0;
};

StudentRun MakeStudent(const data::StudentSimulator& simulator,
                       int64_t index) {
  StudentRun s;
  s.id = std::string(kServeScenario) + "-s" + std::to_string(index);
  s.seq = simulator.GenerateStudentAuto(static_cast<uint64_t>(index));
  s.target = s.seq.interactions.back();
  s.target.response = 0;
  s.predictions.assign(s.seq.interactions.size(), NAN);
  return s;
}

std::string ExplainLine(const std::string& student, const data::Interaction& t) {
  serve::JsonWriter w;
  w.BeginObject();
  w.Key("op").String("explain");
  w.Key("student").String(student);
  w.Key("question").Int(t.question);
  w.Key("concepts").BeginArray();
  for (const int64_t c : t.concepts) w.Int(c);
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string RecourseRequest(const StudentRun& s, bool brute) {
  return serve::RecourseLine(s.id, s.target.question, s.target.concepts, 2, 3,
                             -1.0, {}, brute);
}

// The request line for op `step` of student `s`, and its kind/position.
std::string RequestFor(const StudentRun& s, int64_t step, OpKind* op,
                       int64_t* t) {
  *t = step / 2;
  const auto& it = s.seq.interactions[static_cast<size_t>(*t)];
  if (step % 2 == 0) {
    *op = kPredict;
    return serve::PredictLine(s.id, it.question, it.concepts);
  }
  *op = kUpdate;
  return serve::UpdateLine(s.id, it.question, it.concepts, it.response);
}

struct TrafficResult {
  std::deque<StudentRun> students;  // in index order
  std::array<std::vector<double>, kNumOps> latency_us;
  std::array<OpCount, kNumOps> ops;
  double elapsed_s = 0.0;
  int64_t completed = 0;
  // Completed requests per second over the steady window: from the end of
  // the warm-up to the deadline, so neither the start-up burst of empty
  // sessions nor the drain after the deadline counts.
  double steady_rps = 0.0;
  // Server VmHWM once kRssMarkStudents students had finished (a fixed
  // amount of traffic, so the figure does not grow with throughput).
  double rss_mark_mib = 0.0;
  std::vector<int64_t> per_second;  // completions in each second of the run
  std::vector<std::string> errors;
};

constexpr double kWarmupSeconds = 1.0;
constexpr int64_t kRssMarkStudents = 64;

bool SendLine(int fd, std::string line) {
  line.push_back('\n');
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Drives kConnections connections from this one thread. Each connection
// streams one student at a time with exactly one request outstanding.
// Time-boxed (`max_students` < 0: new students start only before
// `seconds` elapsed) or fixed (exactly students 0..max_students-1). Every
// started student runs to its end either way.
TrafficResult DriveTraffic(int port, pid_t server_pid,
                           const data::StudentSimulator& simulator,
                           double seconds, int64_t max_students) {
  TrafficResult out;
  struct Pending {
    StudentRun* student;
    OpKind op;
    int64_t t;
    Clock::time_point sent;
  };
  struct Connection {
    int fd = -1;
    std::string buffer;
    std::deque<Pending> pending;
  };
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns) {
    c.fd = ConnectLoopback(port);
    if (c.fd < 0) {
      out.errors.push_back("cannot connect to 127.0.0.1:" +
                           std::to_string(port));
      for (Connection& d : conns) {
        if (d.fd >= 0) close(d.fd);
      }
      return out;
    }
  }

  const Clock::time_point start = Clock::now();
  auto may_start = [&] {
    if (max_students >= 0) {
      return static_cast<int64_t>(out.students.size()) < max_students;
    }
    return SecondsSince(start) < seconds;
  };
  bool broken = false;
  auto send_next = [&](Connection& c, StudentRun* s) {
    OpKind op;
    int64_t t = 0;
    const std::string line = RequestFor(*s, s->step, &op, &t);
    c.pending.push_back({s, op, t, Clock::now()});
    if (!SendLine(c.fd, line)) {
      out.errors.push_back("send failed");
      broken = true;
    }
  };
  auto start_student = [&](Connection& c) {
    if (!may_start()) return;
    out.students.push_back(
        MakeStudent(simulator, static_cast<int64_t>(out.students.size())));
    send_next(c, &out.students.back());
  };
  for (Connection& c : conns) start_student(c);

  std::vector<pollfd> fds(conns.size());
  Clock::time_point last_progress = Clock::now();
  int64_t finished_students = 0;
  int64_t steady_completed = 0;
  char buf[1 << 16];
  while (!broken) {
    bool any_pending = false;
    for (const Connection& c : conns) any_pending |= !c.pending.empty();
    if (!any_pending) break;
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i] = {conns[i].fd, POLLIN, 0};
    }
    const int ready = poll(fds.data(), fds.size(), 1000);
    if (ready < 0 && errno != EINTR) {
      out.errors.push_back("poll failed");
      break;
    }
    if (ready <= 0) {
      if (SecondsSince(last_progress) > 60.0) {
        out.errors.push_back("no reply from the server for 60 s");
        break;
      }
      continue;
    }
    for (size_t i = 0; i < conns.size() && !broken; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[i];
      const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        out.errors.push_back("server closed a connection mid-run");
        broken = true;
        break;
      }
      const Clock::time_point now = Clock::now();
      last_progress = now;
      c.buffer.append(buf, static_cast<size_t>(n));
      size_t begin = 0;
      size_t nl;
      while ((nl = c.buffer.find('\n', begin)) != std::string::npos) {
        std::string line = c.buffer.substr(begin, nl - begin);
        begin = nl + 1;
        if (c.pending.empty()) {
          out.errors.push_back("unsolicited reply: " + line);
          broken = true;
          break;
        }
        const Pending p = c.pending.front();
        c.pending.pop_front();
        out.latency_us[p.op].push_back(MicrosBetween(p.sent, now));
        const double at_s = MicrosBetween(start, now) / 1e6;
        const size_t second = static_cast<size_t>(at_s);
        if (out.per_second.size() <= second) {
          out.per_second.resize(second + 1);
        }
        ++out.per_second[second];
        if (at_s >= kWarmupSeconds && at_s < seconds) ++steady_completed;
        ++out.completed;
        serve::JsonValue reply;
        std::string error;
        bool ok = serve::ParseJson(line, &reply, &error) &&
                  reply.GetBool("ok", false);
        StudentRun& s = *p.student;
        if (ok && p.op == kPredict) {
          const float prob = static_cast<float>(reply.GetNumber("p", NAN));
          s.predictions[static_cast<size_t>(p.t)] = prob;
          ok = std::isfinite(prob) && prob > 0.0f && prob < 1.0f &&
               reply.GetInt("history", -1) == p.t;
        } else if (ok && p.op == kUpdate) {
          ok = reply.GetInt("history", -1) == p.t + 1;
        }
        ++out.ops[p.op].attempted;
        if (!ok) {
          ++out.ops[p.op].failed;
          if (out.errors.size() < 5) {
            out.errors.push_back(std::string(kOpNames[p.op]) +
                                 " failed: " + line);
          }
        }
        if (++s.step < 2 * s.seq.length()) {
          send_next(c, &s);
          continue;
        }
        if (++finished_students == kRssMarkStudents) {
          out.rss_mark_mib = PeakRssMiB(std::to_string(server_pid));
        }
        start_student(c);
      }
      c.buffer.erase(0, begin);
    }
  }
  out.elapsed_s = SecondsSince(start);
  if (out.rss_mark_mib == 0.0) {
    out.rss_mark_mib = PeakRssMiB(std::to_string(server_pid));
  }
  out.steady_rps =
      max_students < 0 && seconds > kWarmupSeconds
          ? static_cast<double>(steady_completed) / (seconds - kWarmupSeconds)
          : static_cast<double>(out.completed) / out.elapsed_s;
  for (Connection& c : conns) close(c.fd);
  return out;
}

uint64_t PredictionDigest(const std::deque<StudentRun>& students) {
  uint64_t digest = 0;
  for (const StudentRun& s : students) {
    uint64_t h = serve::kFnvOffset;
    for (const float p : s.predictions) {
      h = serve::FnvMixU64(h, serve::FloatBits(p));
    }
    digest ^= h;
  }
  return digest;
}

// ---- independent references ------------------------------------------------

// The same traffic through in-process InferenceEngines (no shard, reactor
// or socket): the prediction digest, plus each student's factual predict
// at the explain/recourse target.
struct InProcessReplay {
  uint64_t pred_fnv64 = 0;
  std::vector<float> target_p;
  int64_t failed = 0;
};

InProcessReplay ReplayInProcess(rckt::RCKT& model,
                                const data::Dataset& concept_windows,
                                const std::deque<StudentRun>& students,
                                int threads) {
  InProcessReplay out;
  out.target_p.assign(students.size(), NAN);
  std::mutex mu;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      serve::EngineOptions options = ServeEngineOptions(model);
      serve::InferenceEngine engine(model, options);
      engine.LoadConceptMap(concept_windows);
      uint64_t digest = 0;
      int64_t failed = 0;
      for (size_t i = static_cast<size_t>(w); i < students.size();
           i += static_cast<size_t>(threads)) {
        const StudentRun& s = students[i];
        uint64_t h = serve::kFnvOffset;
        for (const auto& it : s.seq.interactions) {
          const serve::ServeResponse p = engine.Execute(
              serve::DecodeLine(
                  serve::PredictLine(s.id, it.question, it.concepts))
                  .request);
          if (!p.ok) ++failed;
          h = serve::FnvMixU64(h, serve::FloatBits(p.p));
          const serve::ServeResponse u = engine.Execute(
              serve::DecodeLine(serve::UpdateLine(s.id, it.question,
                                                  it.concepts, it.response))
                  .request);
          if (!u.ok) ++failed;
        }
        digest ^= h;
        const serve::ServeResponse t = engine.Execute(
            serve::DecodeLine(serve::PredictLine(s.id, s.target.question,
                                                 s.target.concepts))
                .request);
        if (!t.ok) ++failed;
        out.target_p[i] = t.p;  // disjoint index per worker
      }
      std::lock_guard<std::mutex> lock(mu);
      out.pred_fnv64 ^= digest;
      out.failed += failed;
    });
  }
  for (auto& worker : workers) worker.join();
  return out;
}

float AsFloat(const serve::JsonValue& json, const char* key) {
  return static_cast<float>(json.GetNumber(key, NAN));
}

std::vector<float> FloatArray(const serve::JsonValue* array) {
  std::vector<float> out;
  if (array == nullptr || !array->IsArray()) return out;
  for (const auto& v : array->array) out.push_back(static_cast<float>(v.number));
  return out;
}

// Served predicts vs RCKT::GeneratorScoreTargets on each prefix of the
// first `count` students (targets with at least one history step; the
// generator refuses empty histories). Includes the one-ulp negative
// control on the same data.
void CheckGeneratorParity(rckt::RCKT& model,
                          const std::deque<StudentRun>& students,
                          size_t count, RunResult* result) {
  count = std::min(count, students.size());
  std::vector<float> served, offline;
  int64_t max_len = 0;
  for (size_t i = 0; i < count; ++i) {
    max_len = std::max(max_len, students[i].seq.length());
  }
  for (int64_t t = 1; t < max_len; ++t) {
    std::vector<rckt::PrefixSample> samples;
    std::vector<size_t> owners;
    for (size_t i = 0; i < count; ++i) {
      if (t < students[i].seq.length()) {
        samples.push_back({&students[i].seq, t});
        owners.push_back(i);
      }
    }
    const std::vector<float> reference =
        model.GeneratorScoreTargets(rckt::MakePrefixBatch(samples));
    for (size_t j = 0; j < owners.size(); ++j) {
      served.push_back(
          students[owners[j]].predictions[static_cast<size_t>(t)]);
      offline.push_back(reference[j]);
    }
  }
  const int64_t mismatches = CountBitMismatches(served, offline);
  result->facts["generator_parity_compared"] = std::to_string(served.size());
  result->Check(!served.empty() && mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(served.size()) +
                    " served predicts differ from GeneratorScoreTargets");
  // Negative control: the same comparison must catch a one-ulp change.
  if (!served.empty()) {
    std::vector<float> nudged = served;
    nudged[nudged.size() / 2] =
        std::nextafter(nudged[nudged.size() / 2], 2.0f);
    result->Check(CountBitMismatches(nudged, offline) == mismatches + 1,
                  "parity negative control: a one-ulp change went unseen");
  }
}

// ---- explain and recourse, outside the timed section -------------------------

// One student's explain, recourse and brute-force recourse replies from one
// serving path.
struct TailReplies {
  std::string explain;
  std::string recourse;
  std::string recourse_brute;
};

// Request line in, reply line out; false when no reply came.
using SendFn = std::function<bool(const std::string&, std::string*)>;

// Sends the explain, recourse and brute-force recourse requests of the
// first kTailStudents students through `send`, each counted as one op
// named `prefix` + its kind.
std::vector<TailReplies> AskTail(const std::deque<StudentRun>& students,
                                 const SendFn& send, const std::string& prefix,
                                 RunResult* result) {
  std::vector<TailReplies> out;
  auto ask = [&](const std::string& op, const std::string& line,
                 std::string* reply) {
    const bool ok =
        send(line, reply) && reply->find("\"ok\":true") != std::string::npos;
    result->CountOp(prefix + op, ok);
  };
  for (size_t i = 0; i < std::min(kTailStudents, students.size()); ++i) {
    const StudentRun& s = students[i];
    TailReplies r;
    ask("explain", ExplainLine(s.id, s.target), &r.explain);
    ask("recourse", RecourseRequest(s, false), &r.recourse);
    ask("recourse_brute", RecourseRequest(s, true), &r.recourse_brute);
    out.push_back(std::move(r));
  }
  return out;
}

// Explain replies: influence length, sign and sum properties, and bitwise
// equality to RCKT::ExplainTargets on the student's history plus target.
void CheckExplains(rckt::RCKT& model, const std::deque<StudentRun>& students,
                   const std::vector<TailReplies>& replies,
                   const std::string& tag, RunResult* result) {
  int64_t bad_props = 0, bad_exact = 0;
  for (size_t i = 0; i < replies.size(); ++i) {
    const StudentRun& s = students[i];
    serve::JsonValue reply;
    std::string error;
    if (!serve::ParseJson(replies[i].explain, &reply, &error) ||
        !reply.GetBool("ok", false)) {
      ++bad_props;
      continue;
    }
    const int64_t history = reply.GetInt("history", -1);
    const std::vector<float> influence = FloatArray(reply.Find("influence"));
    const float tc = AsFloat(reply, "total_correct");
    const float ti = AsFloat(reply, "total_incorrect");
    const float score = AsFloat(reply, "score");
    // The influence vector covers the history plus the target position,
    // whose entry is 0 (rckt_model.h, Explanation::influence).
    const bool props =
        history == s.seq.length() &&
        static_cast<int64_t>(influence.size()) == history + 1 &&
        influence.back() == 0.0f &&
        reply.GetBool("predicted_correct", false) == (score >= 0.0f) &&
        tc - ti == score;
    if (!props) ++bad_props;
    data::ResponseSequence full = s.seq;
    full.interactions.push_back(s.target);
    const rckt::RCKT::Explanation ex =
        model.ExplainTargets(data::MakeBatch({&full}))[0];
    if (CountBitMismatches(influence, ex.influence) != 0 ||
        CountBitMismatches({tc, ti, score},
                           {ex.total_correct, ex.total_incorrect, ex.score}) !=
            0) {
      ++bad_exact;
    }
  }
  const std::string of = " of " + std::to_string(replies.size()) + " ";
  result->Check(!replies.empty() && bad_props == 0,
                tag + ": " + std::to_string(bad_props) + of +
                    "explain replies fail shape/sum checks");
  result->Check(bad_exact == 0, tag + ": " + std::to_string(bad_exact) + of +
                                    "explain replies differ from "
                                    "RCKT::ExplainTargets");
}

// Recourse replies: documented ranking, lift arithmetic, base_p equal to
// the factual predict at the target, at most k = 2 interventions per set,
// and the brute-force re-send identical to the fast path.
void CheckRecourses(const std::vector<TailReplies>& replies,
                    const std::vector<float>& target_p, const std::string& tag,
                    RunResult* result) {
  int64_t bad = 0, differ = 0;
  std::string first_bad;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].recourse_brute != replies[i].recourse) ++differ;
    serve::JsonValue reply;
    std::string error;
    bool ok = serve::ParseJson(replies[i].recourse, &reply, &error) &&
              reply.GetBool("ok", false);
    const float base_p = AsFloat(reply, "base_p");
    ok = ok && CountBitMismatches({base_p}, {target_p[i]}) == 0;
    const serve::JsonValue* candidates = reply.Find("candidates");
    ok = ok && candidates != nullptr && candidates->IsArray() &&
         !candidates->array.empty() && candidates->array.size() <= 3 &&
         static_cast<int64_t>(candidates->array.size()) <=
             reply.GetInt("evaluated", 0);
    double prev_per = 0.0, prev_lift = 0.0;
    int64_t prev_size = 0;
    for (size_t c = 0; ok && c < candidates->array.size(); ++c) {
      const serve::JsonValue& cand = candidates->array[c];
      const float p = AsFloat(cand, "p");
      const float lift = AsFloat(cand, "lift");
      const serve::JsonValue* iv = cand.Find("interventions");
      const int64_t size = cand.GetInt("size", -1);
      ok = iv != nullptr && iv->IsArray() &&
           static_cast<int64_t>(iv->array.size()) == size && size >= 1 &&
           size <= 2 && p - base_p == lift;
      // Ranking: lift per intervention descending, then lift descending,
      // then smaller sets first (engine.cc).
      const double lift_d = static_cast<double>(p) - static_cast<double>(base_p);
      const double per = lift_d / static_cast<double>(size);
      if (ok && c > 0) {
        ok = per < prev_per ||
             (per == prev_per &&
              (lift_d < prev_lift ||
               (lift_d == prev_lift && size >= prev_size)));
      }
      prev_per = per;
      prev_lift = lift_d;
      prev_size = size;
    }
    if (!ok) {
      if (bad == 0) first_bad = replies[i].recourse;
      ++bad;
    }
  }
  result->Check(!replies.empty() && bad == 0,
                tag + ": " + std::to_string(bad) +
                    " recourse replies fail ranking/lift/base_p checks; "
                    "first: " + first_bad.substr(0, 300));
  result->Check(differ == 0, tag + ": " + std::to_string(differ) +
                                 " brute-force recourse replies differ from "
                                 "the fast path");
}

// The same explain and recourse checks on the SAKT serve model through an
// in-process InferenceEngine fed the first kTailStudents students'
// updates: the attention encoder's explain and suffix-replay recourse
// paths, which the DKT server does not take.
void CheckSaktTail(const Options& options, const data::Dataset& windows,
                   const std::deque<StudentRun>& students, RunResult* result) {
  std::string error;
  std::unique_ptr<rckt::RCKT> model =
      LoadServeModel(options.models + "/sakt.ktw", &error);
  if (model == nullptr) {
    result->errors.push_back("SAKT engine: " + error);
    return;
  }
  serve::InferenceEngine engine(*model, ServeEngineOptions(*model));
  engine.LoadConceptMap(windows);
  auto run = [&](const std::string& line) {
    return engine.Execute(serve::DecodeLine(line).request);
  };
  const SendFn execute = [&](const std::string& line, std::string* reply) {
    *reply = serve::SerializeResponse(run(line));
    return true;
  };
  std::vector<float> target_p;
  int64_t failed = 0;
  for (size_t i = 0; i < std::min(kTailStudents, students.size()); ++i) {
    const StudentRun& s = students[i];
    for (const auto& it : s.seq.interactions) {
      if (!run(serve::UpdateLine(s.id, it.question, it.concepts, it.response))
               .ok) {
        ++failed;
      }
    }
    const serve::ServeResponse p =
        run(serve::PredictLine(s.id, s.target.question, s.target.concepts));
    if (!p.ok) ++failed;
    target_p.push_back(p.p);
  }
  result->Check(failed == 0, "SAKT engine: failed updates or predicts");
  const std::vector<TailReplies> replies =
      AskTail(students, execute, "sakt_engine_", result);
  CheckExplains(*model, students, replies, "SAKT engine", result);
  CheckRecourses(replies, target_p, "SAKT engine", result);
}

// Parses `ktcli serve --obs on`'s exit summary lines out of its log.
struct ServerObs {
  double batch_size_mean = 0.0;
  int64_t batches = 0;
  int64_t replays = 0;
  int64_t evictions = 0;
};

ServerObs ParseServerObs(const std::string& log_path) {
  ServerObs obs;
  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    long long n = 0, v = 0;
    double mean = 0.0;
    if (std::sscanf(line.c_str(), " hist serve.batch_size: n=%lld mean=%lf",
                    &n, &mean) == 2) {
      obs.batches = n;
      obs.batch_size_mean = mean;
    } else if (std::sscanf(line.c_str(), " hist serve/replay: n=%lld", &n) ==
               1) {
      obs.replays = n;
    } else if (std::sscanf(line.c_str(), " counter serve.evictions = %lld",
                           &v) == 1) {
      obs.evictions = v;
    }
  }
  return obs;
}

void AddLatency(RunResult* result, const std::string& prefix,
                std::vector<double> us) {
  const int64_t n = static_cast<int64_t>(us.size());
  result->Add(prefix + "_p50_us", Median(us), "us", n);
  // A p99 needs ten samples beyond it.
  if (n >= 1000) result->Add(prefix + "_p99_us", Percentile(us, 0.99), "us", n);
}

}  // namespace

RunResult RunServeClosedDkt(const Options& options) {
  RunResult result;
  const int shards = 2;
  result.facts["pool_threads"] = "1";
  result.facts["shards"] = std::to_string(shards);
  result.facts["connections"] = std::to_string(kConnections);

  const std::string model_path = options.models + "/" + kServeModel;
  const std::string csv = options.models + "/base.csv";
  std::string error;
  std::unique_ptr<rckt::RCKT> model = LoadServeModel(model_path, &error);
  const data::Dataset windows = LoadConceptWindows(csv, &error);
  if (model == nullptr || windows.sequences.empty()) {
    result.errors.push_back("serve set-up: " + error);
    return result;
  }
  const data::StudentSimulator simulator(
      ScenarioConfig(kServeScenario, options.seed));

  // Server plus client threads stay within nproc: one reactor, two shard
  // workers and no kt::parallel pool on the server; one client thread.
  const std::vector<std::string> args = {
      "--load", model_path, "--data", csv, "--shards",
      std::to_string(shards), "--threads", "1"};
  // Server logs hold this run only; the set-up servers share one.
  const std::string log = options.work + "/serve.log";
  const std::string traced_log = options.work + "/serve_traced.log";
  std::remove(log.c_str());
  std::remove(traced_log.c_str());
  auto shutdown = [&](ServerProcess& server) {
    std::string why;
    const bool ok = server.Shutdown(&why);
    result.CountOp("shutdown", ok);
    result.Check(ok, "shutdown: " + why);
  };

  // Set-up, kSetups times: spawn until the first ok `stats`. The last
  // server carries the measured traffic.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> live;
  for (int i = 0; i < kSetups; ++i) {
    live = std::make_unique<ServerProcess>();
    double seconds = 0.0;
    if (!StartServer(*live, options.ktcli, args, log, "start", &seconds,
                     &result)) {
      return result;
    }
    setup_s.push_back(seconds);
    if (i + 1 < kSetups) shutdown(*live);
  }
  ServerProcess& server = *live;

  TrafficResult traffic = DriveTraffic(server.port(), server.pid(), simulator,
                                       options.seconds, -1);
  for (int op = 0; op < kNumOps; ++op) result.ops[kOpNames[op]] = traffic.ops[op];
  for (const std::string& e : traffic.errors) result.errors.push_back(e);
  const int64_t n_students = static_cast<int64_t>(traffic.students.size());
  result.facts["students"] = std::to_string(n_students);
  {
    std::string ps;
    for (int64_t v : traffic.per_second) ps += std::to_string(v) + " ";
    result.facts["completed_per_second"] = ps;
  }

  // Untimed wire requests on the live server: stats, then explain,
  // recourse and brute-force recourse for a fixed subset of students.
  std::vector<TailReplies> tail;
  {
    serve::LineClient client;
    std::string reply;
    serve::JsonValue json;
    const bool connected = client.Connect(server.port(), &error);
    const bool ok = connected &&
                    client.RoundTrip("{\"op\":\"stats\"}", &reply, &error) &&
                    serve::ParseJson(reply, &json, &error) &&
                    json.GetBool("ok", false);
    result.CountOp("stats", ok);
    result.Check(ok && json.GetInt("sessions", -1) == n_students,
                 "stats after the run: " + reply);
    result.facts["server_evictions"] =
        std::to_string(json.GetInt("evictions", -1));
    const SendFn round_trip = [&](const std::string& line, std::string* out) {
      return connected && client.RoundTrip(line, out, &error);
    };
    tail = AskTail(traffic.students, round_trip, "", &result);
  }
  shutdown(server);

  // Independent references, outside the timed section.
  const int threads = std::min(OnlineCpus(), 4);
  SetNumThreads(1);
  const uint64_t tcp_digest = PredictionDigest(traffic.students);
  const InProcessReplay replay =
      ReplayInProcess(*model, windows, traffic.students, threads);
  result.Check(replay.failed == 0, "in-process replay had failed ops");
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(tcp_digest));
  result.facts["pred_fnv64"] = hex;
  result.Check(tcp_digest == replay.pred_fnv64,
               "TCP pred_fnv64 differs from the in-process engine digest");
  CheckGeneratorParity(*model, traffic.students, 4, &result);
  CheckExplains(*model, traffic.students, tail, "DKT server", &result);
  CheckRecourses(tail, replay.target_p, "DKT server", &result);
  CheckSaktTail(options, windows, traffic.students, &result);

  const double rps = traffic.steady_rps;
  result.Add("setup_s", Median(setup_s), "s", kSetups);
  result.Add("serve_rps", rps, "req/s", traffic.completed);
  AddLatency(&result, "predict", traffic.latency_us[kPredict]);
  AddLatency(&result, "update", traffic.latency_us[kUpdate]);
  result.Add("peak_rss_mb", traffic.rss_mark_mib, "MiB");
  result.Add("throughput_per_s", rps, "1/s", traffic.completed);
  result.Add("latency_p50_ms", Median(traffic.latency_us[kPredict]) / 1000.0,
             "ms", static_cast<int64_t>(traffic.latency_us[kPredict].size()));
  result.Add("secondary_p50_ms", Median(traffic.latency_us[kUpdate]) / 1000.0,
             "ms", static_cast<int64_t>(traffic.latency_us[kUpdate].size()));

  if (!options.trace) return result;

  // Traced replay of exactly the same students on a fresh server with
  // kt::obs and tracing on: the obs on/off digests must agree, and the
  // wall-time difference is the tracing overhead.
  std::vector<std::string> traced_args = args;
  for (const char* a : {"--obs", "on", "--trace-out"}) traced_args.push_back(a);
  traced_args.push_back(options.work + "/serve_trace.json");
  ServerProcess traced;
  double traced_setup = 0.0;
  if (!StartServer(traced, options.ktcli, traced_args, traced_log, "start",
                   &traced_setup, &result)) {
    return result;
  }
  TrafficResult again =
      DriveTraffic(traced.port(), traced.pid(), simulator, 0.0, n_students);
  for (const std::string& e : again.errors) result.errors.push_back(e);
  shutdown(traced);
  result.Check(PredictionDigest(again.students) == tcp_digest,
               "pred_fnv64 differs between obs off and obs on");
  const ServerObs obs = ParseServerObs(traced_log);
  result.Add("obs.trace_overhead_s", again.elapsed_s - traffic.elapsed_s, "s");
  result.Add("serve.shard.batch_size_mean", obs.batch_size_mean, "count",
             obs.batches);
  result.Add("serve.session.replays", static_cast<double>(obs.replays),
             "count");
  result.Add("serve.session.evictions", static_cast<double>(obs.evictions),
             "count");
  result.Add("client.predict_p50_us", Median(traffic.latency_us[kPredict]),
             "us", static_cast<int64_t>(traffic.latency_us[kPredict].size()));
  return result;
}

}  // namespace rcktbench
