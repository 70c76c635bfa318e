// Sweep engine: spec enumeration, parallel index loop, runner determinism.
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"

namespace cnpu {
namespace {

// ---------------------------------------------------------------- SweepSpec

TEST(ParamValueTest, KindsAndConversions) {
  const ParamValue i(7);
  EXPECT_EQ(i.int_value(), 7);
  EXPECT_DOUBLE_EQ(i.double_value(), 7.0);
  EXPECT_EQ(i.to_string(), "7");

  const ParamValue d(2.5);
  EXPECT_DOUBLE_EQ(d.double_value(), 2.5);
  EXPECT_EQ(d.int_value(), 2);  // truncates
  EXPECT_EQ(d.to_string(), "2.5");

  const ParamValue s("stagewise");
  EXPECT_EQ(s.string_value(), "stagewise");
  EXPECT_THROW(s.int_value(), std::logic_error);
  EXPECT_THROW(d.string_value(), std::logic_error);
}

TEST(SweepSpecTest, CartesianNestedLoopOrder) {
  const SweepSpec spec =
      SweepSpec("grid").axis("a", {1, 2}).axis("b", {10, 20, 30});
  ASSERT_EQ(spec.num_points(), 6);
  // First axis slowest: (1,10) (1,20) (1,30) (2,10) (2,20) (2,30).
  EXPECT_EQ(spec.point(0).int_at("a"), 1);
  EXPECT_EQ(spec.point(0).int_at("b"), 10);
  EXPECT_EQ(spec.point(2).int_at("a"), 1);
  EXPECT_EQ(spec.point(2).int_at("b"), 30);
  EXPECT_EQ(spec.point(3).int_at("a"), 2);
  EXPECT_EQ(spec.point(3).int_at("b"), 10);
  EXPECT_EQ(spec.point(5).label(), "a=2 b=30");
}

TEST(SweepSpecTest, ZippedAxesAdvanceTogether) {
  const SweepSpec spec = SweepSpec("res", SweepCombine::kZipped)
                             .axis("name", {"480p", "720p"})
                             .axis("h", {480, 720});
  ASSERT_EQ(spec.num_points(), 2);
  EXPECT_EQ(spec.point(1).str_at("name"), "720p");
  EXPECT_EQ(spec.point(1).int_at("h"), 720);
}

TEST(SweepSpecTest, ZippedLengthMismatchThrows) {
  const SweepSpec spec = SweepSpec("bad", SweepCombine::kZipped)
                             .axis("a", {1, 2, 3})
                             .axis("b", {1});
  EXPECT_THROW(spec.num_points(), std::logic_error);
}

TEST(SweepSpecTest, OutOfRangeAccessThrows) {
  const SweepSpec spec = SweepSpec("one").axis("a", {1});
  EXPECT_THROW(spec.point(-1), std::out_of_range);
  EXPECT_THROW(spec.point(1), std::out_of_range);
  EXPECT_THROW(spec.point(0).at("nope"), std::out_of_range);
}

TEST(SweepSpecTest, EmptySpecAndEmptyAxis) {
  EXPECT_EQ(SweepSpec("empty").num_points(), 0);
  EXPECT_EQ(SweepSpec("empty_axis").axis("a", {}).num_points(), 0);
}

// --------------------------------------------------------------- ThreadPool

// Race test (run under -DCNPU_SANITIZE=thread in CI): workers take indices
// from one shared counter, write their own result slots and read their
// thread-local index mid-call, and every round starts and joins fresh
// workers.
TEST(ThreadPoolTest, RunCallsEveryIndexOnceFromAWorker) {
  constexpr int kWorkers = 3;
  constexpr int kIndices = 1000;
  for (int round = 0; round < 20; ++round) {
    std::vector<int> calls(kIndices, 0);
    std::vector<int> worker(kIndices, -2);
    ThreadPool::run(kWorkers, kIndices, [&](int i) {
      const auto at = static_cast<std::size_t>(i);
      ++calls[at];
      worker[at] = ThreadPool::current_worker_index();
    });
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i], 1) << "index " << i;
      EXPECT_GE(worker[i], 0) << "index " << i;
      EXPECT_LT(worker[i], kWorkers) << "index " << i;
    }
  }
  // Never a worker: the calling thread keeps the -1 sentinel.
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);
}

TEST(ThreadPoolTest, SerialRunIsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [threads, n] : {std::pair{1, 5}, std::pair{4, 1}}) {
    std::vector<int> order;
    ThreadPool::run(threads, n, [&](int i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(ThreadPool::current_worker_index(), -1);
      order.push_back(i);
    });
    std::vector<int> expected(static_cast<std::size_t>(n));
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected) << threads << " threads, " << n << " indices";
  }
  int calls = 0;
  ThreadPool::run(4, 0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, NestedSerialRunRestoresWorkerIndex) {
  constexpr int kWorkers = 2;
  std::vector<int> before(kWorkers, -2);
  std::vector<int> inner(kWorkers, -2);
  std::vector<int> after(kWorkers, -2);
  ThreadPool::run(kWorkers, kWorkers, [&](int i) {
    const auto at = static_cast<std::size_t>(i);
    before[at] = ThreadPool::current_worker_index();
    ThreadPool::run(1, 1, [&](int) {
      inner[at] = ThreadPool::current_worker_index();
    });
    after[at] = ThreadPool::current_worker_index();
  });
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_GE(before[i], 0);
    EXPECT_LT(before[i], kWorkers);
    EXPECT_EQ(inner[i], -1);
    EXPECT_EQ(after[i], before[i]);
  }
}

// -------------------------------------------------------------- SweepRunner

SweepRecord noisy_eval(const SweepPoint& p) {
  // Float-heavy so bitwise equality is a meaningful check.
  const double a = p.double_at("a");
  const double b = p.double_at("b");
  double acc = 0.0;
  for (int i = 1; i <= 64; ++i) acc += a / (b * i) + i * 1e-7;
  SweepRecord r;
  r.set("acc", acc).set("ratio", a / b);
  return r;
}

SweepSpec runner_spec() {
  return SweepSpec("runner")
      .axis("a", {1.0, 2.0, 3.0, 5.0, 7.0})
      .axis("b", {0.25, 0.5, 1.5, 2.75});
}

TEST(SweepRunnerTest, ParallelBitwiseIdenticalToSerial) {
  const SweepSpec spec = runner_spec();
  const SweepResult serial = SweepRunner(SweepOptions{1}).run(spec, noisy_eval);
  for (int threads : {2, ThreadPool::recommended_threads()}) {
    const SweepResult parallel =
        SweepRunner(SweepOptions{threads}).run(spec, noisy_eval);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      ASSERT_TRUE(parallel.points[i].ok);
      // Bitwise: the exact same double, not approximately equal.
      for (std::size_t m = 0; m < serial.points[i].record.metrics.size(); ++m) {
        EXPECT_EQ(parallel.points[i].record.metrics[m].second,
                  serial.points[i].record.metrics[m].second);
      }
    }
    // Wall-clock throughput legitimately differs between the two runs;
    // determinism covers the point payloads, so compare the artifacts with
    // the timing fields normalized.
    SweepResult normalized = parallel;
    normalized.elapsed_s = serial.elapsed_s;
    normalized.points_per_sec = serial.points_per_sec;
    EXPECT_EQ(normalized.to_csv(), serial.to_csv());
    EXPECT_EQ(normalized.to_json(), serial.to_json());
  }
}

// The DSE-throughput metric (docs/METRICS.md): every run reports how long
// the sweep took and the points/sec it sustained, and the JSON artifact
// carries both so bench_simspeed and CI dashboards can read them back.
TEST(SweepRunnerTest, ReportsElapsedAndPointsPerSec) {
  const SweepSpec spec = runner_spec();
  const SweepResult r = SweepRunner(SweepOptions{2}).run(spec, noisy_eval);
  EXPECT_GT(r.elapsed_s, 0.0);
  EXPECT_GT(r.points_per_sec, 0.0);
  EXPECT_NEAR(r.points_per_sec, spec.num_points() / r.elapsed_s,
              1e-9 * r.points_per_sec);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"elapsed_s\""), std::string::npos);
  EXPECT_NE(json.find("\"points_per_sec\""), std::string::npos);
  // CSV stays a pure per-point table: no timing columns.
  EXPECT_EQ(r.to_csv().find("elapsed_s"), std::string::npos);
}

TEST(SweepRunnerTest, PointOrderingDeterministicAcrossThreadCounts) {
  const SweepSpec spec = runner_spec();
  for (int threads : {1, 2, ThreadPool::recommended_threads()}) {
    const SweepResult r = SweepRunner(SweepOptions{threads}).run(spec, noisy_eval);
    ASSERT_EQ(static_cast<int>(r.points.size()), spec.num_points());
    for (int i = 0; i < spec.num_points(); ++i) {
      EXPECT_EQ(r.points[static_cast<std::size_t>(i)].point.index, i);
      EXPECT_EQ(r.points[static_cast<std::size_t>(i)].point.label(),
                spec.point(i).label());
    }
  }
}

TEST(SweepRunnerTest, ThrowingPointCapturedWithoutAbortingSweep) {
  const SweepSpec spec = SweepSpec("faulty").axis("i", {0, 1, 2, 3, 4, 5});
  for (int threads : {1, 4}) {
    const SweepResult r =
        SweepRunner(SweepOptions{threads}).run(spec, [](const SweepPoint& p) {
          if (p.int_at("i") == 3) {
            throw std::runtime_error("solver diverged");
          }
          SweepRecord rec;
          rec.set("value", static_cast<double>(p.int_at("i")) * 2.0);
          return rec;
        });
    ASSERT_EQ(r.points.size(), 6u);
    EXPECT_EQ(r.num_failed(), 1);
    EXPECT_FALSE(r.points[3].ok);
    EXPECT_EQ(r.points[3].error, "solver diverged");
    for (std::size_t i : {0u, 1u, 2u, 4u, 5u}) {
      EXPECT_TRUE(r.points[i].ok);
      EXPECT_DOUBLE_EQ(r.points[i].record.get("value"),
                       static_cast<double>(i) * 2.0);
    }
    // Artifacts carry the failure: empty metric cells + the error message.
    EXPECT_NE(r.to_csv().find("solver diverged"), std::string::npos);
    EXPECT_NE(r.to_json().find("\"ok\":false"), std::string::npos);
  }
}

TEST(SweepRunnerTest, MapReturnsTypedResultsByIndex) {
  const std::vector<int> squares =
      SweepRunner(SweepOptions{3}).map(20, [](int i) { return i * i; });
  ASSERT_EQ(squares.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(SweepRunnerTest, MapRethrowsLowestIndexError) {
  for (int threads : {1, 4}) {
    try {
      SweepRunner(SweepOptions{threads}).map(10, [](int i) {
        if (i == 2) throw std::runtime_error("err-2");
        if (i == 7) throw std::runtime_error("err-7");
        return i;
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "err-2");
    }
  }
}

TEST(SweepResultTest, SchemaDivergentRecordDegradesToEmptyCell) {
  // A metric present in the schema (first successful record) but absent from
  // a later record renders as an empty cell — the artifact is never lost.
  const SweepSpec spec = SweepSpec("diverge").axis("x", {1, 2});
  const SweepResult r =
      SweepRunner(SweepOptions{1}).run(spec, [](const SweepPoint& p) {
        SweepRecord rec;
        rec.set("always", 1.0);
        if (p.int_at("x") == 1) rec.set("extra", 9.0);
        return rec;
      });
  const std::string csv = r.to_csv();
  EXPECT_NE(csv.find("0,1,1,9,"), std::string::npos);
  EXPECT_NE(csv.find("1,2,1,,"), std::string::npos);  // empty "extra" cell
}

TEST(SweepResultTest, CsvSchemaAndArtifactFiles) {
  const SweepSpec spec = SweepSpec("artifact").axis("x", {1, 2});
  const SweepResult r =
      SweepRunner(SweepOptions{1}).run(spec, [](const SweepPoint& p) {
        SweepRecord rec;
        rec.set("double_x", p.double_at("x") * 2.0);
        return rec;
      });
  const std::string csv = r.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "point,x,double_x,error");
  EXPECT_NE(csv.find("0,1,2,"), std::string::npos);

  const std::string base = ::testing::TempDir() + "sweep_artifact";
  ASSERT_TRUE(r.write_csv(base + ".csv"));
  ASSERT_TRUE(r.write_json(base + ".json"));
  std::FILE* f = std::fopen((base + ".json").c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_FALSE(r.write_csv("/nonexistent-dir/x.csv"));
}

}  // namespace
}  // namespace cnpu
