// Binary (de)serialization of the numerical core types.
//
// Round trips are bitwise exact: doubles are stored as their IEEE-754 bytes,
// orderings are preserved, and nothing is renormalised on the way back in —
// a deserialized artifact feeds the solvers the same bits the original
// computation produced, which is what makes warm-cache results identical to
// cold ones at any thread count.
//
// put() is also each type's key encoding: store::artifact_key hashes the
// bytes put() writes, so a field added to put() is keyed at once and there
// is no second field list to keep in step.
//
// Layering note: this translation unit covers everything up to extract/
// (dense + sparse + complex matrices, layouts, extractions, solve reports).
// Serde for circuit/PEEC/PRIMA types lives in store/flows.hpp, one CMake
// target higher, so the extraction cache can be used *inside* the PEEC
// builder without a dependency cycle.
#pragma once

#include "extract/extractor.hpp"
#include "geom/layout.hpp"
#include "la/dense_matrix.hpp"
#include "la/sparse.hpp"
#include "robust/diagnostics.hpp"
#include "sparsify/mutual_spec.hpp"
#include "store/format.hpp"
#include "store/hash.hpp"

namespace ind::store::serde {

// --- index vectors (u64 count, then each index as u64) ---------------------
void put_sizes(ByteWriter& w, const std::vector<std::size_t>& v);
std::vector<std::size_t> get_sizes(ByteReader& r);

// --- linear algebra --------------------------------------------------------
void put(ByteWriter& w, const la::Matrix& m);
void get(ByteReader& r, la::Matrix& m);
void put(ByteWriter& w, const la::CMatrix& m);
void get(ByteReader& r, la::CMatrix& m);
void put(ByteWriter& w, const la::TripletMatrix& m);
void get(ByteReader& r, la::TripletMatrix& m);
void put(ByteWriter& w, const la::CscMatrix& m);
void get(ByteReader& r, la::CscMatrix& m);

// --- sparsified inductance (L form and K = L^-1 form) ----------------------
void put(ByteWriter& w, const sparsify::SparsifiedL& s);
void get(ByteReader& r, sparsify::SparsifiedL& s);

// --- geometry --------------------------------------------------------------
void put(ByteWriter& w, const geom::Technology& t);
void get(ByteReader& r, geom::Technology& t);
void put(ByteWriter& w, const geom::Layout& l);
void get(ByteReader& r, geom::Layout& l);

// --- extraction ------------------------------------------------------------
void put(ByteWriter& w, const extract::Extraction& x);
void get(ByteReader& r, extract::Extraction& x);

// --- robustness diagnostics (rides along inside cached models) -------------
void put(ByteWriter& w, const robust::SolveReport& rep);
void get(ByteReader& r, robust::SolveReport& rep);

}  // namespace ind::store::serde

namespace ind::store {

/// Cache key for an extraction artifact: artifact_key over the layout's
/// serde bytes and the three extraction options.
Digest fingerprint(const geom::Layout& layout,
                   const extract::ExtractionOptions& opts);

/// Cache-aware wrapper around extract::extract(): on a warm cache the
/// partial-L / coupling-cap / R assembly is skipped entirely and the stored
/// matrices are returned bit-for-bit. With the cache disabled this is
/// exactly extract::extract().
extract::Extraction cached_extraction(const geom::Layout& layout,
                                      const extract::ExtractionOptions& opts);

}  // namespace ind::store
