#include "serve/codec.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "store/serde.hpp"

namespace ind::serve {

namespace {

/// Bumped whenever the request/result encoding changes shape. Feeds both
/// the decoder check and (via the encoded bytes) the request fingerprint, so
/// a codec evolution invalidates every stale dedup/cache key at once.
constexpr std::uint16_t kCodecVersion = 2;  // v2: extraction method + fast/ knobs

constexpr struct {
  core::Flow flow;
  const char* key;
} kFlowKeys[] = {
    {core::Flow::PeecRc, "peec_rc"},
    {core::Flow::PeecRlcFull, "peec_rlc"},
    {core::Flow::PeecRlcTruncated, "peec_rlc_trunc"},
    {core::Flow::PeecRlcBlockDiag, "peec_rlc_blockdiag"},
    {core::Flow::PeecRlcShell, "peec_rlc_shell"},
    {core::Flow::PeecRlcHalo, "peec_rlc_halo"},
    {core::Flow::PeecRlcKMatrix, "peec_rlc_kmatrix"},
    {core::Flow::PeecRlcPrima, "peec_rlc_prima"},
    {core::Flow::PeecRlcHier, "peec_rlc_hier"},
    {core::Flow::LoopRlc, "loop_rlc"},
};

template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::uint8_t max, const char* what) {
  if (raw > max)
    throw std::invalid_argument(std::string("serve: out-of-range ") + what +
                                " value " + std::to_string(raw));
  return static_cast<Enum>(raw);
}

void put_options(store::ByteWriter& w, const core::AnalysisOptions& o) {
  w.u8(static_cast<std::uint8_t>(o.flow));
  w.i32(o.signal_net);

  const peec::PeecOptions& p = o.peec;
  w.boolean(p.rc_only);
  w.u8(static_cast<std::uint8_t>(p.mutual_policy));
  w.f64(p.mutual_window);
  w.f64(p.coupling_window);
  w.f64(p.max_segment_length);
  w.f64(p.vdd);
  w.f64(p.snap);
  w.boolean(p.decap.enable);
  w.f64(p.decap.total_capacitance);
  w.f64(p.decap.series_tau);
  w.i32(p.decap.sites);
  w.boolean(p.background.enable);
  w.i32(p.background.sources);
  w.f64(p.background.peak_current);
  w.i32(p.background.pulses);
  w.f64(p.background.window);
  w.u64(p.background.seed);
  w.boolean(p.package.include);
  w.f64(p.package.resistance_scale);
  w.f64(p.package.inductance_scale);
  w.boolean(p.substrate.enable);
  w.f64(p.substrate.pitch);
  w.f64(p.substrate.sheet_resistance);
  w.f64(p.substrate.tap_resistance);
  w.i32(p.substrate.taps_per_side);
  w.f64(p.substrate.nwell_cap_total);
  w.i32(p.substrate.max_nodes_per_axis);

  const loop::LoopModelOptions& l = o.loop;
  w.f64(l.extraction_freq);
  w.boolean(l.use_ladder);
  w.f64(l.f_low);
  w.f64(l.f_high);
  w.f64(l.vdd);
  w.f64(l.max_segment_length);
  w.f64(l.extraction.max_segment_length);
  w.boolean(l.extraction.include_power_as_return);
  w.f64(l.extraction.mqs.mutual_window);
  w.f64(l.extraction.mqs.snap);
  w.f64(l.extraction.mqs.skin.max_width);
  w.f64(l.extraction.mqs.skin.max_thickness);
  w.i32(l.extraction.mqs.skin.max_filaments_per_axis);
  w.u8(static_cast<std::uint8_t>(l.extraction.mqs.method));
  const loop::FastSolveOptions& fs = l.extraction.mqs.fast;
  w.f64(fs.voxel.pitch);
  w.f64(fs.voxel.pitch_z);
  w.f64(fs.voxel.width);
  w.f64(fs.voxel.thickness);
  w.u8(static_cast<std::uint8_t>(fs.precond.kind));
  w.f64(fs.precond.radius);
  w.f64(fs.precond.truncation_ratio);
  w.u64(fs.precond.strip_cells);
  w.u64(fs.gmres.restart);
  w.u64(fs.gmres.max_restarts);
  w.f64(fs.gmres.tol);
  w.u64(fs.auto_threshold);
  w.u64(fs.dense_fallback_limit);
  w.boolean(fs.use_fft);

  const circuit::TransientOptions& t = o.transient;
  w.f64(t.t_stop);
  w.f64(t.dt);
  w.u8(static_cast<std::uint8_t>(t.solver));
  w.u64(t.dense_threshold);
  w.f64(t.auto_density);
  w.boolean(t.backward_euler);
  w.i32(t.max_step_retries);

  const core::FlowParams& f = o.params;
  w.f64(f.truncation_ratio);
  w.f64(f.block_strip_width);
  w.u8(static_cast<std::uint8_t>(f.block_axis));
  w.f64(f.shell_radius);
  w.f64(f.kmatrix_ratio);
  w.u64(f.prima_order);
  w.boolean(f.prima_on_block_diagonal);
  w.u64(f.hier_order_per_block);
  w.f64(f.hier_strip_width);
}

void get_options(store::ByteReader& r, core::AnalysisOptions& o) {
  o.flow = checked_enum<core::Flow>(
      r.u8(), static_cast<std::uint8_t>(core::Flow::LoopRlc), "flow");
  o.signal_net = r.i32();

  peec::PeecOptions& p = o.peec;
  p.rc_only = r.boolean();
  p.mutual_policy =
      checked_enum<peec::PeecOptions::MutualPolicy>(r.u8(), 1, "mutual_policy");
  p.mutual_window = r.f64();
  p.coupling_window = r.f64();
  p.max_segment_length = r.f64();
  p.vdd = r.f64();
  p.snap = r.f64();
  p.decap.enable = r.boolean();
  p.decap.total_capacitance = r.f64();
  p.decap.series_tau = r.f64();
  p.decap.sites = r.i32();
  p.background.enable = r.boolean();
  p.background.sources = r.i32();
  p.background.peak_current = r.f64();
  p.background.pulses = r.i32();
  p.background.window = r.f64();
  p.background.seed = r.u64();
  p.package.include = r.boolean();
  p.package.resistance_scale = r.f64();
  p.package.inductance_scale = r.f64();
  p.substrate.enable = r.boolean();
  p.substrate.pitch = r.f64();
  p.substrate.sheet_resistance = r.f64();
  p.substrate.tap_resistance = r.f64();
  p.substrate.taps_per_side = r.i32();
  p.substrate.nwell_cap_total = r.f64();
  p.substrate.max_nodes_per_axis = r.i32();

  loop::LoopModelOptions& l = o.loop;
  l.extraction_freq = r.f64();
  l.use_ladder = r.boolean();
  l.f_low = r.f64();
  l.f_high = r.f64();
  l.vdd = r.f64();
  l.max_segment_length = r.f64();
  l.extraction.max_segment_length = r.f64();
  l.extraction.include_power_as_return = r.boolean();
  l.extraction.mqs.mutual_window = r.f64();
  l.extraction.mqs.snap = r.f64();
  l.extraction.mqs.skin.max_width = r.f64();
  l.extraction.mqs.skin.max_thickness = r.f64();
  l.extraction.mqs.skin.max_filaments_per_axis = r.i32();
  l.extraction.mqs.method = checked_enum<loop::ExtractionMethod>(
      r.u8(), static_cast<std::uint8_t>(loop::ExtractionMethod::Auto),
      "extraction_method");
  loop::FastSolveOptions& fs = l.extraction.mqs.fast;
  fs.voxel.pitch = r.f64();
  fs.voxel.pitch_z = r.f64();
  fs.voxel.width = r.f64();
  fs.voxel.thickness = r.f64();
  fs.precond.kind = checked_enum<fast::PrecondKind>(
      r.u8(), static_cast<std::uint8_t>(fast::PrecondKind::Truncation),
      "precond_kind");
  fs.precond.radius = r.f64();
  fs.precond.truncation_ratio = r.f64();
  fs.precond.strip_cells = r.u64();
  fs.gmres.restart = r.u64();
  fs.gmres.max_restarts = r.u64();
  fs.gmres.tol = r.f64();
  fs.auto_threshold = r.u64();
  fs.dense_fallback_limit = r.u64();
  fs.use_fft = r.boolean();

  circuit::TransientOptions& t = o.transient;
  t.t_stop = r.f64();
  t.dt = r.f64();
  t.solver =
      checked_enum<circuit::TransientOptions::Solver>(r.u8(), 2, "solver");
  t.dense_threshold = r.u64();
  t.auto_density = r.f64();
  t.backward_euler = r.boolean();
  t.max_step_retries = r.i32();

  core::FlowParams& f = o.params;
  f.truncation_ratio = r.f64();
  f.block_strip_width = r.f64();
  f.block_axis = checked_enum<geom::Axis>(r.u8(), 1, "block_axis");
  f.shell_radius = r.f64();
  f.kmatrix_ratio = r.f64();
  f.prima_order = r.u64();
  f.prima_on_block_diagonal = r.boolean();
  f.hier_order_per_block = r.u64();
  f.hier_strip_width = r.f64();
}

void put_strings(store::ByteWriter& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> get_strings(store::ByteReader& r) {
  const std::uint64_t n = r.count(r.u64(), 1);
  std::vector<std::string> v;
  v.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) v.push_back(r.str());
  return v;
}

double parse_double(std::string_view key, std::string_view text) {
  // std::from_chars<double> is still spotty across libstdc++ versions the
  // CI images carry; strtod on a NUL-terminated copy is equivalent here.
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0')
    throw std::invalid_argument("serve: option '" + std::string(key) +
                                "' has malformed value '" + buf + "'");
  return v;
}

long parse_int(std::string_view key, std::string_view text) {
  long v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    throw std::invalid_argument("serve: option '" + std::string(key) +
                                "' has malformed value '" + std::string(text) +
                                "'");
  return v;
}

}  // namespace

void put_request(store::ByteWriter& w, const Request& req) {
  w.u16(kCodecVersion);
  store::serde::put(w, req.layout);
  put_options(w, req.options);
  w.u64(req.budget.deadline_ms);
  w.u64(req.budget.mem_bytes);
  w.u64(req.budget.work_units);
  w.boolean(req.include_waveforms);
}

void get_request(store::ByteReader& r, Request& req) {
  const std::uint16_t version = r.u16();
  if (version != kCodecVersion)
    throw std::invalid_argument("serve: request codec version " +
                                std::to_string(version) + " != " +
                                std::to_string(kCodecVersion));
  store::serde::get(r, req.layout);
  get_options(r, req.options);
  req.budget.deadline_ms = r.u64();
  req.budget.mem_bytes = r.u64();
  req.budget.work_units = r.u64();
  req.include_waveforms = r.boolean();
  if (!r.at_end())
    throw store::StoreError(store::StoreErrc::Malformed,
                            "trailing bytes after serve request");
}

std::vector<std::uint8_t> encode_result(const core::AnalysisReport& report,
                                        bool include_waveforms) {
  store::ByteWriter w;
  w.u16(kCodecVersion);
  w.u8(static_cast<std::uint8_t>(report.flow));
  w.u8(static_cast<std::uint8_t>(report.requested_flow));
  put_strings(w, report.degradations);
  w.boolean(report.waveform_truncated);
  w.u64(report.counts.resistors);
  w.u64(report.counts.capacitors);
  w.u64(report.counts.inductors);
  w.u64(report.counts.mutuals);
  w.u64(report.unknowns);
  w.u64(report.reduced_order);
  w.f64(report.worst_delay);
  w.f64(report.best_delay);
  w.f64(report.skew);
  w.str(report.worst_sink);
  w.f64(report.overshoot);
  store::serde::put(w, report.solve_report);
  w.boolean(include_waveforms);
  if (include_waveforms) {
    w.f64s(report.time);
    put_strings(w, report.sink_names);
    w.u64(report.sink_waveforms.size());
    for (const la::Vector& wf : report.sink_waveforms) w.f64s(wf);
  } else {
    // The names still travel (they are small and callers key on them); only
    // the sample arrays are elided.
    put_strings(w, report.sink_names);
  }
  return w.take();
}

void decode_result(const std::vector<std::uint8_t>& bytes,
                   core::AnalysisReport& report) {
  store::ByteReader r(bytes);
  const std::uint16_t version = r.u16();
  if (version != kCodecVersion)
    throw std::invalid_argument("serve: result codec version " +
                                std::to_string(version) + " != " +
                                std::to_string(kCodecVersion));
  const auto max_flow = static_cast<std::uint8_t>(core::Flow::LoopRlc);
  report.flow = checked_enum<core::Flow>(r.u8(), max_flow, "flow");
  report.requested_flow =
      checked_enum<core::Flow>(r.u8(), max_flow, "requested_flow");
  report.degradations = get_strings(r);
  report.waveform_truncated = r.boolean();
  report.counts.resistors = r.u64();
  report.counts.capacitors = r.u64();
  report.counts.inductors = r.u64();
  report.counts.mutuals = r.u64();
  report.unknowns = r.u64();
  report.reduced_order = r.u64();
  report.worst_delay = r.f64();
  report.best_delay = r.f64();
  report.skew = r.f64();
  report.worst_sink = r.str();
  report.overshoot = r.f64();
  store::serde::get(r, report.solve_report);
  const bool with_waveforms = r.boolean();
  if (with_waveforms) {
    report.time = r.f64s();
    report.sink_names = get_strings(r);
    const std::uint64_t n = r.count(r.u64(), 1);
    report.sink_waveforms.clear();
    report.sink_waveforms.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k)
      report.sink_waveforms.push_back(r.f64s());
  } else {
    report.time.clear();
    report.sink_waveforms.clear();
    report.sink_names = get_strings(r);
  }
}

std::vector<std::uint8_t> encode_response_payload(
    std::uint64_t request_id, Response::ServedBy served_by,
    double build_seconds, double solve_seconds, double queue_seconds,
    const std::vector<std::uint8_t>& result_bytes) {
  store::ByteWriter w;
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(served_by));
  w.f64(build_seconds);
  w.f64(solve_seconds);
  w.f64(queue_seconds);
  w.u64(result_bytes.size());
  w.raw(result_bytes.data(), result_bytes.size());
  return w.take();
}

std::uint64_t decode_response_payload(const std::vector<std::uint8_t>& payload,
                                      Response& out) {
  store::ByteReader r(payload);
  const std::uint64_t request_id = r.u64();
  out.served_by =
      checked_enum<Response::ServedBy>(r.u8(), 2, "served_by");
  out.build_seconds = r.f64();
  out.solve_seconds = r.f64();
  out.queue_seconds = r.f64();
  const std::uint64_t n = r.count(r.u64(), 1);
  out.result_bytes.resize(n);
  r.raw(out.result_bytes.data(), n);
  decode_result(out.result_bytes, out.report);
  return request_id;
}

store::Digest request_fingerprint(const Request& req) {
  store::ByteWriter w;
  put_request(w, req);
  store::Hasher h = store::fingerprint_base("serve_request");
  h.bytes(w.bytes().data(), w.bytes().size());
  return h.digest();
}

Outcome run_request(const Request& req, std::uint32_t max_frame_bytes) {
  govern::Governor::instance().configure(req.budget);
  Outcome out;
  try {
    const core::AnalysisReport report = core::analyze(req.layout, req.options);
    out.result_bytes = encode_result(report, req.include_waveforms);
    out.build_seconds = report.build_seconds;
    out.solve_seconds = report.solve_seconds;
  } catch (const govern::CancelledError& e) {
    // An External cancel is a client disconnect or a server drain.
    out.code = e.kind() == govern::BudgetKind::External
                   ? ErrorCode::ShuttingDown
                   : ErrorCode::DeadlineExceeded;
    out.detail = e.what();
    return out;
  } catch (const std::invalid_argument& e) {
    out.code = ErrorCode::BadRequest;
    out.detail = e.what();
    return out;
  } catch (const std::exception& e) {
    out.code = ErrorCode::Internal;
    out.detail = e.what();
    return out;
  }
  // The peer reads replies under the same cap: refuse here with a small
  // structured error rather than send a frame it will reject.
  static const std::size_t envelope =
      encode_response_payload(0, Response::ServedBy::Computed, 0, 0, 0, {})
          .size();
  const std::size_t reply_bytes = out.result_bytes.size() + envelope;
  if (reply_bytes > max_frame_bytes) {
    out.code = ErrorCode::FrameTooLarge;
    out.detail = "reply of " + std::to_string(reply_bytes) +
                 " bytes exceeds the " + std::to_string(max_frame_bytes) +
                 "-byte frame cap; lower t_stop/dt or disable "
                 "include_waveforms";
    out.result_bytes.clear();
  }
  return out;
}

core::Flow flow_from_key(std::string_view key) {
  for (const auto& entry : kFlowKeys)
    if (key == entry.key) return entry.flow;
  throw std::invalid_argument("serve: unknown flow '" + std::string(key) +
                              "'");
}

void apply_option_spec(core::AnalysisOptions& opts, std::string_view spec) {
  std::size_t pos = 0;
  const auto is_sep = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == ';';
  };
  while (pos < spec.size()) {
    while (pos < spec.size() && is_sep(spec[pos])) ++pos;
    if (pos >= spec.size()) break;
    std::size_t end = pos;
    while (end < spec.size() && !is_sep(spec[end])) ++end;
    const std::string_view token = spec.substr(pos, end - pos);
    pos = end;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 >= token.size())
      throw std::invalid_argument("serve: option token '" + std::string(token) +
                                  "' is not key=value");
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);

    if (key == "flow") {
      opts.flow = flow_from_key(value);
    } else if (key == "signal_net") {
      opts.signal_net = static_cast<int>(parse_int(key, value));
    } else if (key == "seg_um") {
      opts.peec.max_segment_length = geom::um(parse_double(key, value));
    } else if (key == "t_stop") {
      opts.transient.t_stop = parse_double(key, value);
    } else if (key == "dt") {
      opts.transient.dt = parse_double(key, value);
    } else if (key == "vdd") {
      opts.peec.vdd = parse_double(key, value);
      opts.loop.vdd = opts.peec.vdd;
    } else if (key == "decap_sites") {
      opts.peec.decap.sites = static_cast<int>(parse_int(key, value));
    } else if (key == "loop_seg_um") {
      opts.loop.max_segment_length = geom::um(parse_double(key, value));
    } else if (key == "loop_extract_um") {
      opts.loop.extraction.max_segment_length =
          geom::um(parse_double(key, value));
    } else if (key == "method") {
      loop::MqsOptions& mqs = opts.loop.extraction.mqs;
      if (value == "dense") {
        mqs.method = loop::ExtractionMethod::Dense;
      } else if (value == "fft") {
        mqs.method = loop::ExtractionMethod::FftGmres;
      } else if (value == "auto") {
        mqs.method = loop::ExtractionMethod::Auto;
      } else {
        throw std::invalid_argument("serve: unknown extraction method '" +
                                    std::string(value) + "'");
      }
    } else if (key == "fft_pitch_um") {
      opts.loop.extraction.mqs.fast.voxel.pitch =
          geom::um(parse_double(key, value));
    } else if (key == "fft_precond") {
      fast::PrecondOptions& pc = opts.loop.extraction.mqs.fast.precond;
      if (value == "none") {
        pc.kind = fast::PrecondKind::None;
      } else if (value == "diag") {
        pc.kind = fast::PrecondKind::Diag;
      } else if (value == "blockdiag") {
        pc.kind = fast::PrecondKind::BlockDiag;
      } else if (value == "shell") {
        pc.kind = fast::PrecondKind::Shell;
      } else if (value == "trunc") {
        pc.kind = fast::PrecondKind::Truncation;
      } else {
        throw std::invalid_argument("serve: unknown preconditioner '" +
                                    std::string(value) + "'");
      }
    } else if (key == "gmres_tol") {
      opts.loop.extraction.mqs.fast.gmres.tol = parse_double(key, value);
    } else if (key == "gmres_restart") {
      opts.loop.extraction.mqs.fast.gmres.restart =
          static_cast<std::size_t>(parse_int(key, value));
    } else if (key == "fft_auto_threshold") {
      opts.loop.extraction.mqs.fast.auto_threshold =
          static_cast<std::size_t>(parse_int(key, value));
    } else if (key == "trunc_ratio") {
      opts.params.truncation_ratio = parse_double(key, value);
    } else if (key == "shell_um") {
      opts.params.shell_radius = geom::um(parse_double(key, value));
    } else if (key == "kmatrix_ratio") {
      opts.params.kmatrix_ratio = parse_double(key, value);
    } else if (key == "prima_order") {
      opts.params.prima_order =
          static_cast<std::size_t>(parse_int(key, value));
    } else {
      throw std::invalid_argument("serve: unknown option key '" +
                                  std::string(key) + "'");
    }
  }
}

core::AnalysisOptions options_from_spec(std::string_view spec) {
  core::AnalysisOptions opts;
  apply_option_spec(opts, spec);
  return opts;
}

}  // namespace ind::serve
