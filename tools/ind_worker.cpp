// ind_worker: one sandboxed analysis lane of the serve worker pool.
//
//   ind_worker --fd N [--max-frame-bytes M]
//
// Spawned by serve::WorkerPool (never run by hand): reads AnalyzeRequest
// frames off the inherited socketpair (fd 3 by convention), runs each one
// through serve::run_request — the execution path the in-process server
// uses, so both modes answer the same codes, details and bytes — and writes
// back one AnalyzeResponse or Error frame per request. The request's budget
// was already clamped to the server caps at admission. Around each run the
// RLIMIT_AS / RLIMIT_CPU soft limits derived from that budget are applied
// and relaxed again (govern/rlimit.hpp), so a runaway allocation or wedged
// kernel kills this process — classified by the supervisor via its exit
// status — instead of the server.
//
// Exit protocol (what WorkerPool::classify_worker_exit reads):
//   0                      clean shutdown: EOF on the job pipe (supervisor
//                          closed it) or the supervisor vanished mid-reply
//   govern::kWorkerOomExitCode   an allocation failed (RLIMIT_AS) — the heap
//                          cannot be trusted for a structured reply
//   2                      protocol violation on the job pipe
//   fatal signal           whatever the kernel says (SIGSEGV, SIGXCPU, ...)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "govern/rlimit.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"
#include "store/format.hpp"

namespace {

/// RLIMIT_AS headroom above the request's memory budget (the worker's code
/// and heap baseline) and RLIMIT_CPU headroom above its deadline (assembly
/// and serde around the governed kernels), so the cooperative budget almost
/// always trips first.
constexpr std::uint64_t kAsSlackBytes = 512ull << 20;
constexpr std::uint64_t kCpuSlackSeconds = 5;

struct Args {
  int fd = 3;
  std::uint32_t max_frame_bytes = ind::serve::kDefaultMaxFrameBytes;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ind_worker: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fd") {
      a.fd = std::atoi(next());
    } else if (arg == "--max-frame-bytes") {
      a.max_frame_bytes =
          static_cast<std::uint32_t>(std::strtoull(next(), nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: ind_worker --fd N [--max-frame-bytes M]\n");
      std::exit(arg == "--help" ? 0 : 2);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The supervisor closing the job pipe mid-write must surface as EPIPE
  // (write_frame maps it to "peer gone"), not kill us with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  ind::govern::exit_on_allocation_failure();

  for (;;) {
    std::optional<ind::serve::Frame> job;
    try {
      job = ind::serve::read_frame(args.fd, args.max_frame_bytes);
    } catch (const ind::serve::ProtocolError&) {
      return 0;  // torn pipe: the supervisor died or killed us on purpose
    }
    if (!job) return 0;  // clean EOF: supervisor shut the pool down
    if (job->type != ind::serve::FrameType::AnalyzeRequest) return 2;

    std::uint64_t job_id = 0;
    ind::serve::Outcome out;
    try {
      ind::store::ByteReader r(job->payload);
      job_id = r.u64();
      ind::serve::Request req;
      ind::serve::get_request(r, req);
      ind::govern::apply_worker_rlimits(ind::govern::worker_rlimits(
          req.budget, kAsSlackBytes, kCpuSlackSeconds));
      out = ind::serve::run_request(req, args.max_frame_bytes);
      ind::govern::relax_worker_rlimits();
    } catch (const std::exception& e) {
      out.code = ind::serve::ErrorCode::BadRequest;  // undecodable job
      out.detail = e.what();
    }

    ind::serve::Frame reply;
    if (out.code != ind::serve::ErrorCode::None) {
      reply = ind::serve::make_error(job_id, out.code, out.detail);
    } else {
      reply.type = ind::serve::FrameType::AnalyzeResponse;
      reply.payload = ind::serve::encode_response_payload(
          job_id, ind::serve::Response::ServedBy::Computed, out.build_seconds,
          out.solve_seconds, 0.0, out.result_bytes);
    }
    if (!ind::serve::write_frame(args.fd, reply)) return 0;
  }
}
