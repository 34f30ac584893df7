// A `ktcli serve` child process on a loopback port: spawn, readiness,
// graceful wire shutdown, exit status.
#ifndef RCKTBENCH_SERVER_PROCESS_H_
#define RCKTBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace rcktbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  // Kills and reaps the child if it is still running.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `ktcli serve <args> --port P` on a free port with stdout and
  // stderr appended to `log_path`, then waits until a `stats` request
  // returns ok. *setup_s is the time from spawn to that reply. On failure
  // *port_taken tells whether the child exited because it could not bind
  // its port (another process took it between the probe and the bind).
  bool Start(const std::string& ktcli, const std::vector<std::string>& args,
             const std::string& log_path, double* setup_s, bool* port_taken,
             std::string* error);

  // Sends the wire `shutdown` op, requires its ok reply, and waits for the
  // child to exit with status 0.
  bool Shutdown(std::string* error);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  // Waits up to `timeout_s` for the child to exit; fills *status.
  bool WaitExit(double timeout_s, int* status);
  void Kill();

  pid_t pid_ = -1;
  int port_ = 0;
};

// Starts `server`, counting every spawn as one `op` in *result and adding
// the reason of a failed start to its errors. A spawn is retried on a fresh
// port only when its port was taken, at most three spawns in all.
bool StartServer(ServerProcess& server, const std::string& ktcli,
                 const std::vector<std::string>& args,
                 const std::string& log_path, const std::string& op,
                 double* setup_s, RunResult* result);

}  // namespace rcktbench

#endif  // RCKTBENCH_SERVER_PROCESS_H_
