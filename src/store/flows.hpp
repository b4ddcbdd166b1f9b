// Cache-aware wrappers around the expensive pipeline stages, plus serde for
// the model-level types they persist (Netlist, PeecModel, PRIMA ROM) and for
// PeecOptions, which the peec_model key and the serve codec share.
//
// This is the layer the Section-4 flow plugs into: PEEC model assembly,
// K-matrix construction and PRIMA reduction each check the content-addressed
// ArtifactCache first and fall back to the real computation on a miss (or on
// a corrupt artifact, which is logged as a robust.* recovery action). With
// IND_CACHE_DIR unset every wrapper is a zero-overhead pass-through.
//
// Lives above peec/, sparsify/ and mor/ in the build graph (store/serde.hpp
// explains the split): ind_store_flows links those targets, and core/ links
// ind_store_flows.
#pragma once

#include "circuit/netlist.hpp"
#include "mor/prima.hpp"
#include "peec/model_builder.hpp"
#include "sparsify/mutual_spec.hpp"
#include "store/serde.hpp"

namespace ind::store::serde {

/// Netlist round trip. The anonymous-node count and every element vector are
/// preserved exactly; the named-node lookup table is not (the cached models
/// are all builder-produced and never name nodes).
void put(ByteWriter& w, const circuit::Netlist& nl);
void get(ByteReader& r, circuit::Netlist& nl);

/// The one PeecOptions field list: the peec_model key and the serve
/// request codec both write it through here.
void put(ByteWriter& w, const peec::PeecOptions& p);
void get(ByteReader& r, peec::PeecOptions& p);

void put(ByteWriter& w, const peec::PeecModel& m);
void get(ByteReader& r, peec::PeecModel& m);

void put(ByteWriter& w, const mor::ReducedModel& m);
void get(ByteReader& r, mor::ReducedModel& m);

}  // namespace ind::store::serde

namespace ind::store {

/// Cache keys for the three model-level artifact kinds: artifact_key over
/// the inputs' serde bytes.
Digest fingerprint(const geom::Layout& layout, const peec::PeecOptions& opts);
Digest fingerprint_prima(const la::CscMatrix& g, const la::CscMatrix& c,
                         const la::Matrix& b, const la::Matrix& l,
                         const mor::PrimaOptions& opts);
Digest fingerprint_kmatrix(const la::Matrix& partial_l, double threshold_ratio);

/// peec::build_peec_model with a warm path: a hit skips refinement,
/// extraction and netlist assembly entirely and restores the stored model
/// bit-for-bit (the "assemble.*"/"extract.*" phase timers stay untouched).
peec::PeecModel cached_peec_model(const geom::Layout& input,
                                  const peec::PeecOptions& opts);

/// mor::prima_reduce with a warm path keyed on the exact (G, C, B, L) bits:
/// the compressed arrays of G and C, so the key also pins their patterns.
mor::ReducedModel cached_prima_reduce(const la::CscMatrix& g,
                                      const la::CscMatrix& c,
                                      const la::Matrix& b, const la::Matrix& l,
                                      const mor::PrimaOptions& opts);

/// sparsify::kmatrix_sparsify with a warm path (the K build inverts the full
/// partial-L matrix — the most expensive sparsification scheme).
sparsify::SparsifiedL cached_kmatrix_sparsify(const la::Matrix& partial_l,
                                              double threshold_ratio);

}  // namespace ind::store
