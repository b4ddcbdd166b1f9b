// Tests for the content-addressed artifact store: hashing, the versioned
// binary format and its error taxonomy, bitwise serde round trips up to the
// PEEC model and PRIMA ROM, and the on-disk cache (hit-after-miss,
// invalidation, corruption recovery, fault injection, LRU eviction).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/sources.hpp"
#include "extract/extractor.hpp"
#include "geom/layout.hpp"
#include "geom/topologies.hpp"
#include "la/sparse.hpp"
#include "mor/prima.hpp"
#include "peec/model_builder.hpp"
#include "robust/diagnostics.hpp"
#include "robust/fault_injection.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "sparsify/kmatrix.hpp"
#include "store/artifact_cache.hpp"
#include "store/flows.hpp"
#include "store/format.hpp"
#include "store/hash.hpp"
#include "store/serde.hpp"

namespace {

using namespace ind;
using geom::um;
namespace fault = robust::fault;
namespace fs = std::filesystem;

// The generic bitwise oracle: serialize, deserialize, re-serialize, and
// demand the two byte images be identical. Any lossy field (a renormalised
// double, a dropped element, a reordered vector) breaks the comparison.
template <typename T>
std::vector<std::uint8_t> serialized(const T& v) {
  store::ByteWriter w;
  store::serde::put(w, v);
  return w.take();
}

template <typename T>
void expect_bitwise_round_trip(const T& value) {
  const std::vector<std::uint8_t> image = serialized(value);
  T back;
  store::ByteReader r(image);
  store::serde::get(r, back);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(serialized(back), image);
}

std::int64_t counter(const char* name) {
  return runtime::MetricsRegistry::instance().counter(name).value.load();
}

// A small but complete layout: two nets, wires on two layers, a via, pads,
// a driver and a named receiver — every Layout field the serde must carry.
geom::Layout small_layout(double signal_width_um = 2.0) {
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {um(200), 0}, um(signal_width_um));
  l.add_wire(gnd, 6, {0, um(6)}, {um(200), um(6)}, um(3));
  l.add_wire(gnd, 5, {0, um(6)}, {um(100), um(6)}, um(3));
  l.add_via(gnd, {0, um(6)}, 5, 6, 2);
  geom::Pad pad;
  pad.at = {um(200), um(6)};
  pad.layer = 6;
  pad.kind = geom::NetKind::Ground;
  l.add_pad(pad);
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  d.strength_ohm = 25.0;
  d.slew = 30e-12;
  l.add_driver(d);
  geom::Receiver r;
  r.at = {um(200), 0};
  r.layer = 6;
  r.signal_net = sig;
  r.load_cap = 20e-15;
  r.name = "rcv";
  l.add_receiver(r);
  return l;
}

store::Artifact small_artifact() {
  store::ByteWriter w;
  w.str("hello");
  w.f64(3.14159);
  return {"test", {0x0123456789abcdefULL, 0xfedcba9876543210ULL}, w.take()};
}

store::StoreErrc decode_error(const std::vector<std::uint8_t>& image,
                              const store::Digest* expect = nullptr) {
  try {
    store::decode_artifact(image, expect);
  } catch (const store::StoreError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decode_artifact unexpectedly succeeded";
  return store::StoreErrc::IoError;
}

// Every cache test runs against its own directory and leaves the process
// cache disabled again, so no state leaks into unrelated suites.
class StoreCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    dir_ = ::testing::TempDir() + "ind_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    store::ArtifactCache::instance().configure(dir_);
  }
  void TearDown() override {
    store::ArtifactCache::instance().configure("");
    fs::remove_all(dir_);
    fault::clear();
  }
  std::string dir_;
};

// --- hashing ---------------------------------------------------------------

TEST(StoreHash, DigestFormatsAs32HexDigits) {
  const store::Digest d{0x0123456789abcdefULL, 0x00000000000000ffULL};
  EXPECT_EQ(d.hex(), "0123456789abcdef00000000000000ff");
}

TEST(StoreHash, DoublesHashByBitPattern) {
  store::Hasher pos, neg;
  pos.f64(0.0);
  neg.f64(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());  // equal values, different bits
}

TEST(StoreHash, StringsAreLengthPrefixed) {
  store::Hasher ab_c, a_bc;
  ab_c.str("ab");
  ab_c.str("c");
  a_bc.str("a");
  a_bc.str("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(StoreHash, IndependentOfThreadCount) {
  const geom::Layout layout = small_layout();
  runtime::set_global_threads(1);
  const store::Digest d1 = store::fingerprint(layout, extract::ExtractionOptions{});
  runtime::set_global_threads(4);
  const store::Digest d4 = store::fingerprint(layout, extract::ExtractionOptions{});
  runtime::set_global_threads(0);
  EXPECT_EQ(d1, d4);
}

TEST(StoreHash, FingerprintSensitivity) {
  const geom::Layout layout = small_layout();
  const store::Digest base = store::fingerprint(layout, extract::ExtractionOptions{});
  // Same inputs again: stable.
  EXPECT_EQ(base, store::fingerprint(layout, extract::ExtractionOptions{}));
  // Any option change invalidates.
  extract::ExtractionOptions narrow;
  narrow.mutual_window = um(50);
  EXPECT_NE(base, store::fingerprint(layout, narrow));
  // Any geometry change invalidates.
  EXPECT_NE(base, store::fingerprint(small_layout(2.5), extract::ExtractionOptions{}));
  // Different artifact kinds never collide on the same content.
  peec::PeecOptions popts;
  EXPECT_NE(base, store::fingerprint(layout, popts));
}

// Field sensitivity: starting from defaults, a one-ulp (or one-step) change
// to any single input field must move its artifact key. A field a key
// forgets would serve a stale artifact with no error.
void bump(bool& v) { v = !v; }
void bump(int& v) { ++v; }
void bump(std::uint64_t& v) { ++v; }
void bump(double& v) { v = std::nextafter(v, 1e300); }
void bump(std::string& v) { v += "x"; }
template <typename E>
  requires std::is_enum_v<E>
void bump(E& v) {
  v = static_cast<E>(static_cast<int>(v) == 0 ? 1 : 0);
}

#define BUMP(field) {#field, [](auto& x) { bump(x.field); }}

TEST(StoreHash, EveryPeecOptionMovesThePeecModelKey) {
  const geom::Layout layout = small_layout();
  const store::Digest base = store::fingerprint(layout, peec::PeecOptions{});
  const std::vector<std::pair<const char*,
                              std::function<void(peec::PeecOptions&)>>>
      edits = {
          BUMP(rc_only), BUMP(mutual_policy), BUMP(mutual_window),
          BUMP(coupling_window), BUMP(max_segment_length), BUMP(vdd),
          BUMP(snap), BUMP(decap.enable), BUMP(decap.total_capacitance),
          BUMP(decap.series_tau), BUMP(decap.sites), BUMP(background.enable),
          BUMP(background.sources), BUMP(background.peak_current),
          BUMP(background.pulses), BUMP(background.window),
          BUMP(background.seed), BUMP(package.include),
          BUMP(package.resistance_scale), BUMP(package.inductance_scale),
          BUMP(substrate.enable), BUMP(substrate.pitch),
          BUMP(substrate.sheet_resistance), BUMP(substrate.tap_resistance),
          BUMP(substrate.taps_per_side), BUMP(substrate.nwell_cap_total),
          BUMP(substrate.max_nodes_per_axis),
      };
  EXPECT_EQ(edits.size(), 27u);
  for (const auto& [name, edit] : edits) {
    peec::PeecOptions opts;
    edit(opts);
    EXPECT_NE(store::fingerprint(layout, opts), base) << name;
  }
}

TEST(StoreHash, EveryExtractionOptionMovesTheExtractionKey) {
  const geom::Layout layout = small_layout();
  const store::Digest base =
      store::fingerprint(layout, extract::ExtractionOptions{});
  const std::vector<std::pair<
      const char*, std::function<void(extract::ExtractionOptions&)>>>
      edits = {BUMP(mutual_window), BUMP(coupling_window),
               BUMP(extract_inductance)};
  for (const auto& [name, edit] : edits) {
    extract::ExtractionOptions opts;
    edit(opts);
    EXPECT_NE(store::fingerprint(layout, opts), base) << name;
  }
}

/// A layout taken apart into its component lists, so a test can change one
/// field of one component and put the layout back together.
struct LayoutParts {
  geom::Technology tech;
  std::vector<geom::NetInfo> nets;
  std::vector<geom::Segment> segments;
  std::vector<geom::Via> vias;
  std::vector<geom::Pad> pads;
  std::vector<geom::Driver> drivers;
  std::vector<geom::Receiver> receivers;

  explicit LayoutParts(const geom::Layout& l)
      : tech(l.tech()), segments(l.segments()), vias(l.vias()),
        pads(l.pads()), drivers(l.drivers()), receivers(l.receivers()) {
    for (std::size_t n = 0; n < l.num_nets(); ++n)
      nets.push_back(l.net(static_cast<int>(n)));
  }

  geom::Layout build() const {
    geom::Layout l(tech);
    for (const geom::NetInfo& n : nets) l.add_net(n.name, n.kind);
    for (const geom::Segment& s : segments) l.add_segment(s);
    for (const geom::Via& v : vias)
      l.add_via(v.net, v.at, v.lower_layer, v.upper_layer, v.cuts);
    for (const geom::Pad& p : pads) l.add_pad(p);
    for (const geom::Driver& d : drivers) l.add_driver(d);
    for (const geom::Receiver& r : receivers) l.add_receiver(r);
    return l;
  }
};

TEST(StoreHash, EveryLayoutFieldMovesBothLayoutKeys) {
  const LayoutParts parts(small_layout());
  const geom::Layout rebuilt = parts.build();
  const store::Digest extraction =
      store::fingerprint(rebuilt, extract::ExtractionOptions{});
  const store::Digest peec_model =
      store::fingerprint(rebuilt, peec::PeecOptions{});
  ASSERT_EQ(extraction,
            store::fingerprint(small_layout(), extract::ExtractionOptions{}));

  const std::vector<std::pair<const char*, std::function<void(LayoutParts&)>>>
      edits = {
          BUMP(tech.layers[0].index), BUMP(tech.layers[0].z_bottom),
          BUMP(tech.layers[0].thickness),
          BUMP(tech.layers[0].sheet_resistance),
          BUMP(tech.layers[0].preferred),
          BUMP(tech.layers[0].dielectric_below), BUMP(tech.epsilon_r),
          BUMP(tech.via_resistance), BUMP(tech.substrate_z),
          BUMP(nets[0].name), BUMP(nets[0].kind),
          BUMP(segments[0].a.x), BUMP(segments[0].a.y),
          BUMP(segments[0].b.x), BUMP(segments[0].b.y),
          BUMP(segments[0].width), BUMP(segments[0].thickness),
          BUMP(segments[0].z), BUMP(segments[0].layer),
          BUMP(segments[0].net), BUMP(segments[0].kind),
          BUMP(vias[0].at.x), BUMP(vias[0].at.y),
          {"vias[0].lower_layer", [](LayoutParts& p) {
             --p.vias[0].lower_layer;  // stays below the upper layer
           }},
          BUMP(vias[0].upper_layer), BUMP(vias[0].cuts), BUMP(vias[0].net),
          BUMP(pads[0].at.x), BUMP(pads[0].at.y), BUMP(pads[0].layer),
          BUMP(pads[0].kind), BUMP(pads[0].resistance),
          BUMP(pads[0].inductance),
          BUMP(drivers[0].at.x), BUMP(drivers[0].at.y),
          BUMP(drivers[0].layer), BUMP(drivers[0].signal_net),
          BUMP(drivers[0].strength_ohm), BUMP(drivers[0].slew),
          BUMP(drivers[0].start_time), BUMP(drivers[0].rising),
          BUMP(drivers[0].name),
          BUMP(receivers[0].at.x), BUMP(receivers[0].at.y),
          BUMP(receivers[0].layer), BUMP(receivers[0].signal_net),
          BUMP(receivers[0].load_cap), BUMP(receivers[0].name),
      };
  for (const auto& [name, edit] : edits) {
    LayoutParts changed = parts;
    edit(changed);
    const geom::Layout l = changed.build();
    EXPECT_NE(store::fingerprint(l, extract::ExtractionOptions{}), extraction)
        << name;
    EXPECT_NE(store::fingerprint(l, peec::PeecOptions{}), peec_model) << name;
  }
}

#undef BUMP

// --- serde round trips (bitwise) -------------------------------------------

TEST(StoreSerde, DenseMatrixBitwise) {
  la::Matrix m(3, 2);
  m(0, 0) = -0.0;
  m(0, 1) = 3.141592653589793;
  m(1, 0) = 5e-324;  // subnormal
  m(1, 1) = -1.7976931348623157e308;
  m(2, 0) = 1.0 / 3.0;
  expect_bitwise_round_trip(m);
  expect_bitwise_round_trip(la::Matrix{});  // empty
}

TEST(StoreSerde, ComplexMatrixBitwise) {
  la::CMatrix m(2, 2);
  m(0, 0) = {1.5, -2.5};
  m(0, 1) = {0.0, -0.0};
  m(1, 1) = {1e-300, 1e300};
  expect_bitwise_round_trip(m);
}

TEST(StoreSerde, SparseMatricesBitwise) {
  la::TripletMatrix t(3, 3);
  t.add(0, 0, 4.0);
  t.add(2, 1, -1.0);
  t.add(2, 1, -0.5);  // duplicate entries preserved, not merged
  expect_bitwise_round_trip(t);
  expect_bitwise_round_trip(la::CscMatrix(t));
}

TEST(StoreSerde, CscRejectsInconsistentArrays) {
  store::ByteWriter w;
  store::serde::put(w, la::CscMatrix(la::TripletMatrix(2, 2)));
  std::vector<std::uint8_t> image = w.take();
  image.back() ^= 0x01;  // corrupt the last col_ptr entry
  la::CscMatrix out;
  store::ByteReader r(image);
  try {
    store::serde::get(r, out);
    FAIL() << "expected StoreError";
  } catch (const store::StoreError& e) {
    // Either the size check (Malformed) or the exhausted buffer (Truncated)
    // may fire first; both are structured rejections, never UB.
    EXPECT_TRUE(e.code() == store::StoreErrc::Malformed ||
                e.code() == store::StoreErrc::Truncated)
        << store::to_string(e.code());
  }
}

TEST(StoreSerde, SparsifiedLBitwise) {
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  const extract::Extraction x = extract::extract(refined, {});
  expect_bitwise_round_trip(sparsify::kmatrix_sparsify(x.partial_l, 0.05));
}

// Serializes `a` and `b`, which differ in exactly one one-byte enum field,
// overwrites that byte of a's image with `byte`, decodes, and returns the
// StoreError code the decode raised.
template <typename T>
store::StoreErrc decode_with_enum_byte(const T& a, const T& b,
                                       std::uint8_t byte) {
  std::vector<std::uint8_t> image = serialized(a);
  const std::vector<std::uint8_t> other = serialized(b);
  EXPECT_EQ(image.size(), other.size());
  std::size_t diffs = 0, at = 0;
  for (std::size_t i = 0; i < image.size() && i < other.size(); ++i)
    if (image[i] != other[i]) {
      ++diffs;
      at = i;
    }
  EXPECT_EQ(diffs, 1u);
  image[at] = byte;
  T back;
  store::ByteReader r(image);
  try {
    store::serde::get(r, back);
  } catch (const store::StoreError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decode accepted enum byte " << int{byte};
  return store::StoreErrc::IoError;
}

TEST(StoreSerde, OutOfRangeEnumBytesAreMalformed) {
  robust::SolveReport rep;
  rep.add_action(robust::RecoveryKind::Retry, 0, 0.0, "test");
  robust::SolveReport other_kind = rep;
  other_kind.actions[0].kind = robust::RecoveryKind::GmresRestart;
  // Byte 9 named the deleted mixed-precision rung; no RecoveryKind has it.
  EXPECT_EQ(decode_with_enum_byte(rep, other_kind, 9),
            store::StoreErrc::Malformed);
  robust::SolveReport other_status = rep;
  other_status.status = robust::SolveStatus::Failed;
  EXPECT_EQ(decode_with_enum_byte(
                rep, other_status,
                static_cast<std::uint8_t>(robust::SolveStatus::Failed) + 1),
            store::StoreErrc::Malformed);

  geom::Layout signal(geom::default_tech());
  signal.add_net("n", geom::NetKind::Signal);
  geom::Layout shield(geom::default_tech());
  shield.add_net("n", geom::NetKind::Shield);
  EXPECT_EQ(decode_with_enum_byte(
                signal, shield,
                static_cast<std::uint8_t>(geom::NetKind::Substrate) + 1),
            store::StoreErrc::Malformed);
}

TEST(StoreSerde, LayoutBitwise) { expect_bitwise_round_trip(small_layout()); }

TEST(StoreSerde, ExtractionBitwise) {
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  expect_bitwise_round_trip(extract::extract(refined, {}));
}

TEST(StoreSerde, NetlistBitwise) {
  circuit::Netlist nl;
  const circuit::NodeId a = nl.make_node();
  const circuit::NodeId b = nl.make_node();
  const circuit::NodeId c = nl.make_node();
  nl.add_resistor(a, b, 10.0);
  nl.add_capacitor(b, circuit::kGround, 5e-15);
  const std::size_t l0 = nl.add_inductor(a, c, 1e-9);
  const std::size_t l1 = nl.add_inductor(b, c, 2e-9);
  nl.add_mutual(l0, l1, 0.4e-9);
  circuit::KMatrixGroup kg;
  kg.inductors = {l0, l1};
  kg.entries = {{0, 0, 1e9}, {0, 1, -2e8}, {1, 1, 5e8}};
  nl.add_kmatrix_group(std::move(kg));
  nl.add_vsource(a, circuit::kGround,
                 circuit::Pwl({{0.0, 0.0}, {1e-10, 1.0}}));
  nl.add_isource(c, circuit::kGround, circuit::Pwl({{0.0, 1e-3}}));
  circuit::SwitchedDriver d;
  d.out = b;
  d.vdd = a;
  d.gnd = circuit::kGround;
  d.pull_ohms = 20.0;
  d.slew = 30e-12;
  d.start = 1e-10;
  d.rising = false;
  d.name = "drv";
  nl.add_driver(std::move(d));
  expect_bitwise_round_trip(nl);
}

TEST(StoreSerde, PeecModelBitwise) {
  peec::PeecOptions opts;
  opts.max_segment_length = um(100);
  expect_bitwise_round_trip(peec::build_peec_model(small_layout(), opts));
}

// Tridiagonal (G, C) stamps of a 6-unknown RC chain, with one input and
// one output column.
struct PrimaInputs {
  la::TripletMatrix g, c;
  la::Matrix b, l;
};

PrimaInputs prima_inputs() {
  const std::size_t n = 6;
  PrimaInputs in{la::TripletMatrix(n, n), la::TripletMatrix(n, n),
                 la::Matrix(n, 1), la::Matrix(n, 1)};
  for (std::size_t i = 0; i < n; ++i) {
    in.g.add(i, i, 2.0 + 0.1 * static_cast<double>(i));
    in.c.add(i, i, 1e-15);
    if (i + 1 < n) {
      in.g.add(i, i + 1, -1.0);
      in.g.add(i + 1, i, -1.0);
      in.c.add(i, i + 1, -1e-16);
      in.c.add(i + 1, i, -1e-16);
    }
  }
  in.b(0, 0) = 1.0;
  in.l(n - 1, 0) = 1.0;
  return in;
}

TEST(StoreSerde, PrimaRomBitwise) {
  const PrimaInputs in = prima_inputs();
  mor::PrimaOptions opts;
  opts.max_order = 4;
  expect_bitwise_round_trip(mor::prima_reduce(
      la::CscMatrix(in.g), la::CscMatrix(in.c), in.b, in.l, opts));
}

TEST(StoreHash, PrimaKeyTracksEveryCscValue) {
  PrimaInputs in = prima_inputs();
  const mor::PrimaOptions opts;
  const la::CscMatrix g(in.g);
  const store::Digest base = store::fingerprint_prima(
      g, la::CscMatrix(in.c), in.b, in.l, opts);
  EXPECT_EQ(base, store::fingerprint_prima(g, la::CscMatrix(in.c), in.b,
                                           in.l, opts));
  // One more stamp on an existing C entry changes one stored value only.
  in.c.add(2, 3, 1e-18);
  const la::CscMatrix c_bumped(in.c);
  ASSERT_EQ(c_bumped.nnz(), la::CscMatrix(prima_inputs().c).nnz());
  EXPECT_NE(base, store::fingerprint_prima(g, c_bumped, in.b, in.l, opts));
  // The same values in a different pattern (an explicit zero) also differ.
  PrimaInputs padded = prima_inputs();
  padded.c.add(0, 5, 0.0);
  EXPECT_NE(base, store::fingerprint_prima(g, la::CscMatrix(padded.c), in.b,
                                           in.l, opts));
}

// --- format error taxonomy -------------------------------------------------

TEST(StoreFormat, RoundTripPreservesEverything) {
  const store::Artifact a = small_artifact();
  const store::Artifact back = store::decode_artifact(
      store::encode_artifact(a), &a.fingerprint);
  EXPECT_EQ(back.kind, a.kind);
  EXPECT_EQ(back.fingerprint, a.fingerprint);
  EXPECT_EQ(back.payload, a.payload);
}

TEST(StoreFormat, ErrorsAreDistinguishable) {
  const store::Artifact a = small_artifact();
  const std::vector<std::uint8_t> good = store::encode_artifact(a);

  auto mutated = [&](std::size_t offset, std::uint8_t xor_mask) {
    std::vector<std::uint8_t> img = good;
    img[offset] ^= xor_mask;
    return img;
  };

  // Not an artifact at all.
  EXPECT_EQ(decode_error(mutated(0, 0xff)), store::StoreErrc::BadMagic);
  EXPECT_EQ(decode_error({}), store::StoreErrc::BadMagic);
  // Header fields at fixed offsets: version (8), endianness tag (12).
  EXPECT_EQ(decode_error(mutated(8, 0xff)),
            store::StoreErrc::VersionMismatch);
  EXPECT_EQ(decode_error(mutated(12, 0xff)), store::StoreErrc::EndianMismatch);
  // A flipped payload byte fails the checksum.
  EXPECT_EQ(decode_error(mutated(good.size() - 1, 0x01)),
            store::StoreErrc::ChecksumMismatch);
  // A file cut short mid-payload is Truncated, not ChecksumMismatch.
  std::vector<std::uint8_t> cut = good;
  cut.resize(cut.size() - 4);
  EXPECT_EQ(decode_error(cut), store::StoreErrc::Truncated);
  // The payload ends the file: anything after it is Malformed.
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_EQ(decode_error(padded), store::StoreErrc::Malformed);
  // The right file for a different key.
  const store::Digest other{1, 2};
  EXPECT_EQ(decode_error(good, &other),
            store::StoreErrc::FingerprintMismatch);
  // Unmodified image still decodes after all of the above.
  EXPECT_NO_THROW(store::decode_artifact(good, &a.fingerprint));
}

TEST(StoreFormat, WriteIsAtomicAndReadable) {
  const std::string dir = ::testing::TempDir() + "ind_store_format";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const store::Artifact a = small_artifact();
  const std::string path = dir + "/test.art";
  store::write_artifact(path, a);
  // No temp litter left behind.
  std::size_t files = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    (void)de;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> image{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  EXPECT_EQ(image, store::encode_artifact(a));
  EXPECT_EQ(store::decode_artifact(image, &a.fingerprint).payload, a.payload);
  fs::remove_all(dir);
}

// --- the cache -------------------------------------------------------------

TEST_F(StoreCacheTest, HitAfterMiss) {
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  const extract::ExtractionOptions xopts;

  const std::int64_t misses0 = counter("store.misses");
  const std::int64_t hits0 = counter("store.hits");
  const extract::Extraction cold = store::cached_extraction(refined, xopts);
  EXPECT_EQ(counter("store.misses"), misses0 + 1);
  EXPECT_EQ(counter("store.hits"), hits0);

  const extract::Extraction warm = store::cached_extraction(refined, xopts);
  EXPECT_EQ(counter("store.hits"), hits0 + 1);
  EXPECT_EQ(counter("store.misses"), misses0 + 1);
  // The warm result is the cold result, bit for bit.
  EXPECT_EQ(serialized(warm), serialized(cold));
}

TEST_F(StoreCacheTest, WarmResultMatchesAtAnyThreadCount) {
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  runtime::set_global_threads(1);
  const extract::Extraction cold = store::cached_extraction(refined, {});
  runtime::set_global_threads(4);
  const extract::Extraction warm = store::cached_extraction(refined, {});
  runtime::set_global_threads(0);
  EXPECT_EQ(serialized(warm), serialized(cold));
}

TEST_F(StoreCacheTest, InvalidationOnLayoutOrOptionChange) {
  const geom::Layout a = geom::refine(small_layout(), um(50));
  const geom::Layout b = geom::refine(small_layout(2.5), um(50));
  extract::ExtractionOptions narrow;
  narrow.mutual_window = um(50);

  const std::int64_t misses0 = counter("store.misses");
  store::cached_extraction(a, {});
  store::cached_extraction(a, narrow);  // same layout, new options: miss
  store::cached_extraction(b, {});      // new layout, same options: miss
  EXPECT_EQ(counter("store.misses"), misses0 + 3);

  std::size_t artifacts = 0;
  for (const auto& de : fs::directory_iterator(dir_))
    if (de.path().extension() == ".art") ++artifacts;
  EXPECT_EQ(artifacts, 3u);
}

TEST_F(StoreCacheTest, CachedModelWrappersRoundTrip) {
  const geom::Layout layout = small_layout();
  peec::PeecOptions popts;
  popts.max_segment_length = um(100);

  const std::int64_t hits0 = counter("store.hits");
  const peec::PeecModel cold = store::cached_peec_model(layout, popts);
  const peec::PeecModel warm = store::cached_peec_model(layout, popts);
  EXPECT_EQ(serialized(warm), serialized(cold));

  const la::Matrix& pl = cold.extraction.partial_l;
  const sparsify::SparsifiedL k_cold = store::cached_kmatrix_sparsify(pl, 0.05);
  const sparsify::SparsifiedL k_warm = store::cached_kmatrix_sparsify(pl, 0.05);
  EXPECT_EQ(serialized(k_warm), serialized(k_cold));
  EXPECT_EQ(counter("store.hits"), hits0 + 2);
}

TEST_F(StoreCacheTest, SerializeTimerCountsOncePerSave) {
  // The value's serde runs under store.serialize; the file framing is part
  // of store.write. A cold PEEC model saves its extraction and the model.
  const geom::Layout layout = small_layout();
  peec::PeecOptions popts;
  popts.max_segment_length = um(100);
  auto& metrics = runtime::MetricsRegistry::instance();
  const std::int64_t serialize0 = metrics.timer("store.serialize").count.load();
  const std::int64_t writes0 = metrics.timer("store.write").count.load();
  const std::int64_t saves0 = counter("store.saves");
  store::cached_peec_model(layout, popts);
  const std::int64_t saves = counter("store.saves") - saves0;
  EXPECT_EQ(saves, 2);
  EXPECT_EQ(metrics.timer("store.serialize").count.load() - serialize0, saves);
  EXPECT_EQ(metrics.timer("store.write").count.load() - writes0, saves);
}

TEST_F(StoreCacheTest, CorruptArtifactRecomputesAndRewrites) {
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  const extract::Extraction cold = store::cached_extraction(refined, {});

  // Rot a byte in the middle of the stored payload.
  const std::string path = store::ArtifactCache::instance().path_for(
      "extraction", store::fingerprint(refined, extract::ExtractionOptions{}));
  ASSERT_TRUE(fs::exists(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
    f.put('\xa5');
  }

  const std::int64_t corrupt0 = counter("store.corrupt");
  const std::int64_t misses0 = counter("store.misses");
  const extract::Extraction recovered = store::cached_extraction(refined, {});
  EXPECT_EQ(counter("store.corrupt"), corrupt0 + 1);
  EXPECT_EQ(counter("store.misses"), misses0 + 1);
  EXPECT_EQ(serialized(recovered), serialized(cold));

  // The rewritten artifact is valid again: pure hit, no corruption.
  const std::int64_t hits0 = counter("store.hits");
  store::cached_extraction(refined, {});
  EXPECT_EQ(counter("store.hits"), hits0 + 1);
  EXPECT_EQ(counter("store.corrupt"), corrupt0 + 1);
}

TEST_F(StoreCacheTest, CorruptionSurfacesAsRecoveryActionNotCrash) {
  store::Artifact a = small_artifact();
  store::ArtifactCache& cache = store::ArtifactCache::instance();
  cache.save(a);
  const std::string path = cache.path_for(a.kind, a.fingerprint);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not an artifact";
  }
  robust::SolveReport report;
  EXPECT_FALSE(cache.load(a.kind, a.fingerprint, &report).has_value());
  ASSERT_EQ(report.actions.size(), 1u);
  EXPECT_EQ(report.actions[0].kind, robust::RecoveryKind::ArtifactRecompute);
  EXPECT_EQ(report.status, robust::SolveStatus::Recovered);
  // The bad file was deleted so the next lookup is a clean miss.
  EXPECT_FALSE(fs::exists(path));
}

TEST_F(StoreCacheTest, FaultInjectionForcesRecomputePath) {
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  const extract::Extraction cold = store::cached_extraction(refined, {});

  fault::configure("store_read@0");
  const std::int64_t corrupt0 = counter("store.corrupt");
  const extract::Extraction recovered = store::cached_extraction(refined, {});
  EXPECT_EQ(fault::fired(fault::Site::StoreRead), 1);
  EXPECT_EQ(counter("store.corrupt"), corrupt0 + 1);
  EXPECT_EQ(serialized(recovered), serialized(cold));
  fault::clear();

  // Injection over: the rewritten artifact hits normally.
  const std::int64_t hits0 = counter("store.hits");
  store::cached_extraction(refined, {});
  EXPECT_EQ(counter("store.hits"), hits0 + 1);
}

TEST_F(StoreCacheTest, LruEvictionRespectsCapAndRecency) {
  store::ArtifactCache& cache = store::ArtifactCache::instance();
  auto artifact = [](std::uint64_t key) {
    return store::Artifact{"test", {key, key},
                           std::vector<std::uint8_t>(256, 0x5a)};
  };
  cache.save(artifact(1));
  cache.save(artifact(2));
  // Age artifact 1 so it is unambiguously the LRU entry.
  fs::last_write_time(cache.path_for("test", {1, 1}),
                      fs::file_time_type::clock::now() - std::chrono::hours(1));

  // Re-arm with a cap that fits roughly two artifacts, then add a third.
  cache.configure(dir_, 800);
  const std::int64_t evicted0 = counter("store.evictions");
  cache.save(artifact(3));
  EXPECT_GT(counter("store.evictions"), evicted0);
  EXPECT_FALSE(fs::exists(cache.path_for("test", {1, 1})));  // oldest gone
  EXPECT_TRUE(fs::exists(cache.path_for("test", {3, 3})));   // newest kept
}

TEST(StoreCacheDisabled, PassThroughLeavesNoTrace) {
  store::ArtifactCache::instance().configure("");
  ASSERT_FALSE(store::ArtifactCache::instance().enabled());
  const geom::Layout refined = geom::refine(small_layout(), um(50));
  const std::int64_t hits0 = counter("store.hits");
  const std::int64_t misses0 = counter("store.misses");
  const extract::Extraction direct = extract::extract(refined, {});
  const extract::Extraction via_cache = store::cached_extraction(refined, {});
  EXPECT_EQ(serialized(via_cache), serialized(direct));
  EXPECT_EQ(counter("store.hits"), hits0);
  EXPECT_EQ(counter("store.misses"), misses0);
}

}  // namespace
