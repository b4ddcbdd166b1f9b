// src/runtime: thread pool lifecycle, parallel_for coverage/exception
// semantics, deterministic reduction, metrics registry, bench reports — and
// the determinism contract that parallel extraction is bitwise-equal to
// serial (ISSUE 1 acceptance criterion).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "extract/partial_inductance.hpp"
#include "geom/segment.hpp"
#include "runtime/bench_report.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "sparsify/kmatrix.hpp"

namespace ind {
namespace {

using runtime::ParallelOptions;
using runtime::ThreadPool;

// Restores the global pool to the configured default when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { runtime::set_global_threads(0); }
};

TEST(RuntimeThreadPool, StartStopVariousSizes) {
  for (const unsigned n : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }
  ThreadPool clamped(0);  // clamps to one worker rather than none
  EXPECT_EQ(clamped.size(), 1u);
}

TEST(RuntimeThreadPool, DrainsSubmittedTasksOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
  }  // destructor joins after the queue drains
  EXPECT_EQ(ran.load(), 100);
}

TEST(RuntimeParallelFor, EmptyRangeNeverCallsBody) {
  bool called = false;
  runtime::parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(RuntimeParallelFor, SingleElementRange) {
  std::atomic<int> visits{0};
  runtime::parallel_for(1, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    visits.fetch_add(1);
  });
  EXPECT_EQ(visits.load(), 1);
}

TEST(RuntimeParallelFor, OddRangeCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {7u, 17u, 101u}) {
    std::vector<std::atomic<int>> hits(n);
    runtime::parallel_for(
        n,
        [&](std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        {.grain = 2, .pool = &pool});
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(RuntimeParallelFor, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      runtime::parallel_for(
          64,
          [](std::size_t begin, std::size_t) {
            if (begin >= 16) throw std::runtime_error("chunk failed");
          },
          {.grain = 1, .pool = &pool}),
      std::runtime_error);
  // The pool must remain usable after a failed batch.
  std::atomic<int> ok{0};
  runtime::parallel_for(
      8, [&](std::size_t b, std::size_t e) { ok += static_cast<int>(e - b); },
      {.grain = 1, .pool = &pool});
  EXPECT_EQ(ok.load(), 8);
}

TEST(RuntimeParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  runtime::parallel_for(
      8,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          runtime::parallel_for(
              4,
              [&](std::size_t b, std::size_t e) {
                inner_total += static_cast<int>(e - b);
              },
              {.grain = 1, .pool = &pool});
      },
      {.grain = 1, .pool = &pool});
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(RuntimeParallelReduce, MatchesSerialSumAndIsReproducible) {
  std::vector<double> values(1000);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = 1.0 / static_cast<double>(i + 1);
  auto chunk_sum = [&](std::size_t begin, std::size_t end) {
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) s += values[i];
    return s;
  };
  auto plus = [](double a, double b) { return a + b; };
  // Fixed grain → chunk boundaries independent of worker count, so the two
  // pools must agree bit-for-bit.
  ThreadPool one(1), four(4);
  const double a = runtime::parallel_reduce(
      values.size(), 0.0, chunk_sum, plus, {.grain = 64, .pool = &one});
  const double b = runtime::parallel_reduce(
      values.size(), 0.0, chunk_sum, plus, {.grain = 64, .pool = &four});
  EXPECT_EQ(a, b);
  const double serial = chunk_sum(0, values.size());
  EXPECT_NEAR(a, serial, 1e-12 * serial);
}

TEST(RuntimeThreadPool, ParsesThreadCountEnvValues) {
  EXPECT_EQ(runtime::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(runtime::parse_thread_count(""), 0u);
  EXPECT_EQ(runtime::parse_thread_count("4"), 4u);
  EXPECT_EQ(runtime::parse_thread_count("0"), 0u);
  EXPECT_EQ(runtime::parse_thread_count("-3"), 0u);
  EXPECT_EQ(runtime::parse_thread_count("abc"), 0u);
  EXPECT_EQ(runtime::parse_thread_count("8x"), 0u);
  EXPECT_EQ(runtime::parse_thread_count("100000"), 256u);  // capped
}

TEST(RuntimeMetrics, TimersAndCountersAccumulate) {
  auto& reg = runtime::MetricsRegistry::instance();
  reg.counter("test.counter").value.store(0);
  reg.timer("test.timer").count.store(0);
  reg.timer("test.timer").total_ns.store(0);

  reg.add_count("test.counter", 3);
  reg.add_count("test.counter", 4);
  EXPECT_EQ(reg.counter("test.counter").value.load(), 7);

  reg.max_count("test.highwater", 5);
  reg.max_count("test.highwater", 2);
  EXPECT_EQ(reg.counter("test.highwater").value.load(), 5);

  { runtime::ScopedTimer t("test.timer"); }
  { runtime::ScopedTimer t("test.timer"); }
  EXPECT_EQ(reg.timer("test.timer").count.load(), 2);
  EXPECT_GE(reg.timer("test.timer").total_ns.load(), 0);
}

TEST(RuntimeMetrics, JsonSnapshotContainsEntries) {
  auto& reg = runtime::MetricsRegistry::instance();
  reg.add_count("test.json_counter", 42);
  { runtime::ScopedTimer t("test.json_timer"); }
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test.json_counter\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.json_timer\""), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\""), std::string::npos);
}

TEST(RuntimeBenchReport, WritesValidFile) {
  const std::string path = runtime::write_bench_report("runtime_selftest");
  ASSERT_EQ(path, "BENCH_runtime_selftest.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string body = buf.str();
  EXPECT_NE(body.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"bench\": \"runtime_selftest\""), std::string::npos);
  EXPECT_NE(body.find("\"timers\""), std::string::npos);
  EXPECT_NE(body.find("\"counters\""), std::string::npos);
  std::remove(path.c_str());
}

std::vector<geom::Segment> bus_segments(int n) {
  std::vector<geom::Segment> segs;
  for (int i = 0; i < n; ++i) {
    geom::Segment s;
    s.a = {0, i * geom::um(3)};
    s.b = {geom::um(500), i * geom::um(3)};
    s.width = geom::um(1);
    s.thickness = geom::um(1);
    segs.push_back(s);
  }
  return segs;
}

TEST(RuntimeDeterminism, ParallelPartialMatrixBitwiseEqualsSerial) {
  GlobalThreadsGuard guard;
  const auto segs = bus_segments(64);

  runtime::set_global_threads(1);
  const la::Matrix serial = extract::build_partial_inductance_matrix(segs);

  for (const unsigned threads : {2u, 4u, 8u}) {
    runtime::set_global_threads(threads);
    const la::Matrix parallel = extract::build_partial_inductance_matrix(segs);
    // DenseMatrix::operator== compares every element exactly — bitwise for
    // finite doubles of equal value.
    EXPECT_TRUE(serial == parallel) << "thread count " << threads;
  }
}

TEST(RuntimeDeterminism, WindowedAssemblyAlsoThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const auto segs = bus_segments(48);
  const extract::PartialMatrixOptions opts{.window = geom::um(20)};

  runtime::set_global_threads(1);
  const la::Matrix serial = extract::build_partial_inductance_matrix(segs, opts);
  runtime::set_global_threads(4);
  const la::Matrix parallel =
      extract::build_partial_inductance_matrix(segs, opts);
  EXPECT_TRUE(serial == parallel);
}

TEST(RuntimeDeterminism, KmatrixSparsifyThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const auto segs = bus_segments(32);
  const la::Matrix l = extract::build_partial_inductance_matrix(segs);

  runtime::set_global_threads(1);
  const auto serial = sparsify::kmatrix_sparsify(l, 0.05);
  runtime::set_global_threads(4);
  const auto parallel = sparsify::kmatrix_sparsify(l, 0.05);

  ASSERT_EQ(serial.k_entries.size(), parallel.k_entries.size());
  for (std::size_t k = 0; k < serial.k_entries.size(); ++k) {
    EXPECT_EQ(serial.k_entries[k].i, parallel.k_entries[k].i);
    EXPECT_EQ(serial.k_entries[k].j, parallel.k_entries[k].j);
    EXPECT_EQ(serial.k_entries[k].value, parallel.k_entries[k].value);
  }
}

}  // namespace
}  // namespace ind
