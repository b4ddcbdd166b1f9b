// ind_served: the long-running analysis daemon.
//
//   ind_served [--port N] [--host A.B.C.D] [--uds /path/sock]
//
// Listens on TCP (default: 127.0.0.1, ephemeral port — the bound port is
// printed on stdout so harnesses can parse it) or a Unix-domain socket, and
// serves the serve/ wire protocol until SIGINT/SIGTERM. Shutdown is
// graceful: admission stops, in-flight work drains (IND_SERVE_DRAIN_MS),
// metrics land in BENCH_served.json, and the process exits 0. Responses are
// cached in memory only; with IND_CACHE_DIR set, the extraction and model
// artifacts behind them survive a restart (even after kill -9), so a
// restarted server recomputes only the cheap tail of each repeat.
//
// All tuning is via the IND_SERVE_* environment knobs (see ServerConfig) on
// top of the usual IND_THREADS / IND_CACHE_DIR / IND_DEADLINE_MS family.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/bench_report.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  ind::serve::ServerConfig config = ind::serve::ServerConfig::from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ind_served: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      config.tcp_port = std::atoi(next());
    } else if (arg == "--host") {
      config.host = next();
    } else if (arg == "--uds") {
      config.uds_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: ind_served [--port N] [--host ADDR] [--uds PATH]\n");
      return arg == "--help" ? 0 : 2;
    }
  }

  // A peer that disconnects mid-send must surface as EPIPE on the write,
  // never kill the daemon. Server::start() repeats this, but the daemon sets
  // it first so even the listen/bind window is covered.
  std::signal(SIGPIPE, SIG_IGN);

  // Block the shutdown signals before start() so every server thread
  // inherits the mask and only this thread's sigwait sees them.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  ind::serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ind_served: %s\n", e.what());
    return 1;
  }
  if (config.uds_path.empty())
    std::printf("ind_served listening on %s:%d\n", config.host.c_str(),
                server.port());
  else
    std::printf("ind_served listening on %s\n", config.uds_path.c_str());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  std::printf("ind_served: received %s, draining\n", strsignal(sig));
  std::fflush(stdout);
  server.shutdown();
  ind::runtime::write_bench_report("served");
  return 0;
}
