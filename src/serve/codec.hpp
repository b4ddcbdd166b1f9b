// Request/response codec for the analysis server, plus the shared
// option-spec grammar every front end uses to build AnalysisOptions.
//
// A Request is the complete closure of one core::analyze call — the layout,
// the full AnalysisOptions (every field, nested structs included) and the
// per-request RunBudget — encoded with the store/ ByteWriter primitives so
// round trips are bitwise exact. Because the encoding is canonical (fixed
// field order, IEEE-754 bit patterns), the request fingerprint is simply the
// 128-bit store/ digest of the encoded body: two requests coalesce iff their
// bytes match, and nothing thread- or time-dependent can leak into the key.
//
// The Response splits into two blocks on purpose:
//   * the RESULT block — flows, degradations, element counts, delays, skew,
//     solve diagnostics, optional waveforms. A pure function of the request
//     (the kernels are bitwise-deterministic at any IND_THREADS), so
//     identical requests always produce identical result bytes. Dedup'd and
//     cached responses replay this block verbatim.
//   * the STATS block — build/solve wall seconds, queue wait, how the
//     request was served (computed / coalesced / cache). Timing-dependent by
//     nature, excluded from determinism guarantees and from the cache.
//
// The option-spec grammar ("flow=peec_rlc seg_um=100 t_stop=1.5e-9 ...") is
// the one human-facing way to say "these analysis knobs": the load
// generator's workload definitions and the example binaries both parse specs
// through options_from_spec()/apply_option_spec() instead of hand-rolling
// field assignments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.hpp"
#include "govern/budget.hpp"
#include "serve/protocol.hpp"
#include "store/hash.hpp"

namespace ind::store {
class ByteWriter;
class ByteReader;
}  // namespace ind::store

namespace ind::serve {

struct Request {
  geom::Layout layout;
  core::AnalysisOptions options;
  /// Per-request resource caps; 0 fields fall back to (and are clamped by)
  /// the server-side IND_SERVE_* defaults.
  govern::RunBudget budget;
  /// Include the transient time axis + per-sink waveforms in the result
  /// block. Off by default: a load-test response stays a few hundred bytes.
  bool include_waveforms = false;
};

/// What the server sends back for one request (decoded AnalyzeResponse).
struct Response {
  core::AnalysisReport report;  ///< decoded RESULT block

  // STATS block.
  enum class ServedBy : std::uint8_t {
    Computed = 0,   ///< this request triggered the computation
    Coalesced = 1,  ///< attached to an identical in-flight computation
    Cache = 2,      ///< short-circuited from the response cache
  } served_by = ServedBy::Computed;
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  double queue_seconds = 0.0;  ///< admission -> execution start

  /// The verbatim RESULT block bytes (what the determinism guarantee and the
  /// dedup tests compare).
  std::vector<std::uint8_t> result_bytes;
};

// --- binary serde ----------------------------------------------------------

void put_request(store::ByteWriter& w, const Request& req);
/// Throws store::StoreError on truncated/malformed input and
/// std::invalid_argument on out-of-range enum values.
void get_request(store::ByteReader& r, Request& req);

/// Encodes the RESULT block of a finished analysis (see header comment for
/// what it includes; wall-clock timings never enter it).
std::vector<std::uint8_t> encode_result(const core::AnalysisReport& report,
                                        bool include_waveforms);
void decode_result(const std::vector<std::uint8_t>& bytes,
                   core::AnalysisReport& report);

/// Full AnalyzeResponse payload: request id + stats block + result block.
std::vector<std::uint8_t> encode_response_payload(
    std::uint64_t request_id, Response::ServedBy served_by,
    double build_seconds, double solve_seconds, double queue_seconds,
    const std::vector<std::uint8_t>& result_bytes);
/// Returns the echoed request id; fills `out`.
std::uint64_t decode_response_payload(const std::vector<std::uint8_t>& payload,
                                      Response& out);

/// 128-bit content fingerprint of a request: the digest of its canonical
/// encoding under the "serve_request" kind salt. Identical requests — and
/// only identical requests — share a fingerprint, which is the dedup and
/// response-cache key. The server hashes a request after clamping its budget
/// to the server caps, so the key names the run that actually happens.
store::Digest request_fingerprint(const Request& req);

// --- execution -------------------------------------------------------------

/// What running one request produced: the RESULT block and the analysis
/// timings on success (code == None), else a structured error.
struct Outcome {
  ErrorCode code = ErrorCode::None;
  std::string detail;
  std::vector<std::uint8_t> result_bytes;
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// The one execution path behind both serving modes (the in-process
/// executor and each ind_worker process): configures the process Governor
/// from req.budget, runs core::analyze and encodes the RESULT block.
/// CancelledError maps to DeadlineExceeded (ShuttingDown for an External
/// cancel), std::invalid_argument to BadRequest, any other exception to
/// Internal. A RESULT block whose AnalyzeResponse payload would exceed
/// `max_frame_bytes` answers FrameTooLarge instead.
Outcome run_request(const Request& req, std::uint32_t max_frame_bytes);

// --- option-spec grammar ---------------------------------------------------

/// Applies "key=value" settings (whitespace- or ';'-separated) onto `opts`.
/// Keys:
///   flow            peec_rc | peec_rlc | peec_rlc_trunc | peec_rlc_blockdiag
///                   | peec_rlc_shell | peec_rlc_halo | peec_rlc_kmatrix
///                   | peec_rlc_prima | peec_rlc_hier | loop_rlc
///   signal_net      int (net id the flow analyses)
///   seg_um          PEEC segmentation (peec.max_segment_length, um)
///   t_stop, dt      transient window / step (seconds)
///   vdd             supply voltage (peec.vdd and loop.vdd)
///   decap_sites     int (peec.decap.sites)
///   loop_seg_um     loop netlist granularity (loop.max_segment_length, um)
///   loop_extract_um loop field-solver granularity
///                   (loop.extraction.max_segment_length, um)
///   method          dense | fft | auto (loop.extraction.mqs.method)
///   fft_pitch_um    voxel pitch of the fft method (0 = auto-select)
///   fft_precond     none | diag | blockdiag | shell | trunc
///   gmres_tol       GMRES relative-residual tolerance
///   gmres_restart   GMRES restart (Krylov space) dimension
///   fft_auto_threshold  filament count where Auto switches to fft
///   trunc_ratio     params.truncation_ratio
///   shell_um        params.shell_radius (um)
///   kmatrix_ratio   params.kmatrix_ratio
///   prima_order     params.prima_order
/// Throws std::invalid_argument naming the offending token on an unknown
/// key, a malformed value or an unknown flow name.
void apply_option_spec(core::AnalysisOptions& opts, std::string_view spec);

/// Fresh defaults + apply_option_spec.
core::AnalysisOptions options_from_spec(std::string_view spec);

/// "peec_rlc" -> Flow::PeecRlcFull etc. (the flow_key scheme the metrics
/// counters already use). Throws std::invalid_argument on unknown names.
core::Flow flow_from_key(std::string_view key);

}  // namespace ind::serve
