#include "server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <thread>

#include "serve/json.h"
#include "serve/loadgen.h"

namespace rcktbench {

namespace serve = kt::serve;

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool ServerProcess::WaitExit(double timeout_s, int* status) {
  const Clock::time_point start = Clock::now();
  while (true) {
    const pid_t r = waitpid(pid_, status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return true;
    }
    if (r < 0) return false;
    if (SecondsSince(start) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool ServerProcess::Start(const std::string& ktcli,
                          const std::vector<std::string>& args,
                          const std::string& log_path, double* setup_s,
                          bool* port_taken, std::string* error) {
  *port_taken = false;
  port_ = FreeLoopbackPort();
  if (port_ == 0) {
    *error = "no free loopback port";
    return false;
  }
  std::vector<std::string> argv_strings = {ktcli, "serve"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  argv_strings.push_back("--port");
  argv_strings.push_back(std::to_string(port_));
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    return false;
  }
  // Where this spawn's log output begins, to look for a bind failure.
  const off_t log_start = lseek(log_fd, 0, SEEK_END);
  const Clock::time_point start = Clock::now();
  pid_ = fork();
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(log_fd);
  if (pid_ < 0) {
    *error = "fork failed";
    return false;
  }

  // Poll until the server answers `stats` with ok.
  while (SecondsSince(start) < 60.0) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      std::ifstream log(log_path);
      log.seekg(log_start);
      const std::string output((std::istreambuf_iterator<char>(log)),
                               std::istreambuf_iterator<char>());
      *port_taken = output.find("cannot bind 127.0.0.1:" +
                                std::to_string(port_)) != std::string::npos;
      *error = "ktcli serve exited during start-up (see " + log_path + ")";
      return false;
    }
    serve::LineClient client;
    std::string connect_error;
    if (client.Connect(port_, &connect_error)) {
      std::string reply, rt_error;
      serve::JsonValue json;
      if (client.RoundTrip("{\"op\":\"stats\"}", &reply, &rt_error) &&
          serve::ParseJson(reply, &json, &rt_error) &&
          json.GetBool("ok", false)) {
        *setup_s = SecondsSince(start);
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  *error = "ktcli serve did not become ready within 60 s";
  return false;
}

bool ServerProcess::Shutdown(std::string* error) {
  if (pid_ <= 0) {
    *error = "server is not running";
    return false;
  }
  bool ok = false;
  {
    serve::LineClient client;
    std::string reply;
    serve::JsonValue json;
    ok = client.Connect(port_, error) &&
         client.RoundTrip("{\"op\":\"shutdown\"}", &reply, error) &&
         serve::ParseJson(reply, &json, error) && json.GetBool("ok", false);
    if (!ok && error->empty()) *error = "shutdown reply not ok: " + reply;
  }
  int status = 0;
  if (!WaitExit(30.0, &status)) {
    *error = "ktcli serve did not exit within 30 s of shutdown";
    Kill();
    return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "ktcli serve exited with status " + std::to_string(status);
    return false;
  }
  return ok;
}

bool StartServer(ServerProcess& server, const std::string& ktcli,
                 const std::vector<std::string>& args,
                 const std::string& log_path, const std::string& op,
                 double* setup_s, RunResult* result) {
  for (int spawn = 0; spawn < 3; ++spawn) {
    bool port_taken = false;
    std::string error;
    const bool ok =
        server.Start(ktcli, args, log_path, setup_s, &port_taken, &error);
    result->CountOp(op, ok);
    if (ok) return true;
    result->errors.push_back(op + ": " + error);
    if (!port_taken) return false;
  }
  return false;
}

}  // namespace rcktbench
