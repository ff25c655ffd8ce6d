// Experiment E14 (paper §4): semantic parallelism inside one user
// operation.
//
// Claim: engineering operations on complex objects carry "substantial
// portions of inherent parallelism"; decomposing a single molecule-set
// derivation into conflict-free units of work (DUs) and executing them
// concurrently speeds the operation up, with identical results.

#include "bench_common.h"

namespace prima::bench {
namespace {

constexpr int kSolids = 96;
const char* kQuery = "SELECT ALL FROM brep-face-edge-point";

std::unique_ptr<core::Prima> MakeDb(size_t workers) {
  core::PrimaOptions options;
  options.parallel_workers = workers;
  options.storage.buffer_bytes = 64u << 20;
  auto db = RequireR(core::Prima::Open(options), "open");
  workloads::BrepWorkload brep(db.get());
  Require(brep.CreateSchema(), "schema");
  RequireR(brep.BuildMany(1000, kSolids), "data");
  return db;
}

void Report() {
  PrintHeader("E14 / §4 — semantic parallelism in one user operation",
              "Claim: decomposed units of work (conflict-free by "
              "decomposition) execute concurrently; the molecule set is "
              "identical to serial execution and wall time drops.");

  // One database per configuration, pool sized to the DU count — the
  // shared-memory stand-in for "a multi-processor PRIMA with N processors".
  // A CPU-weighted qualification exposes the inherent parallelism the paper
  // targets (molecule derivation + predicate evaluation per DU).
  const std::string query =
      "SELECT ALL FROM brep-face-edge-point WHERE "
      "EXISTS_AT_LEAST (2) face: (face.square_dim > 0.1 AND "
      "EXISTS_AT_LEAST (3) edge: (edge.length > 0.1 AND "
      "FOR_ALL point: point.placement.x_coord >= 0.0))";

  constexpr int kReps = 8;
  auto best_of = [&](auto&& fn) {
    double best = 1e18;
    for (int r = 0; r < kReps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      const auto end = std::chrono::steady_clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(end - start).count());
    }
    return best;
  };

  // The reference is one worker and a plain Query(): a serial cursor on
  // this thread, nothing on the pool.
  auto serial_db = MakeDb(1);
  RequireR(serial_db->Query(query), "warmup");
  size_t serial_size = 0;
  const double serial_ms = best_of([&] {
    auto set = RequireR(serial_db->Query(query), "serial");
    serial_size = set.size();
  });

  std::printf("%-10s %12s %12s %10s\n", "DUs", "time [ms]", "speedup",
              "molecules");
  std::printf("%-10s %12.2f %12s %10zu\n", "serial", serial_ms, "1.00x",
              serial_size);
  for (size_t units : {2, 4, 8, 16}) {
    auto db = MakeDb(units);
    RequireR(db->QueryParallel(query, units), "warmup");
    size_t parallel_size = 0;
    const double msec = best_of([&] {
      auto set = RequireR(db->QueryParallel(query, units), "parallel");
      parallel_size = set.size();
    });
    std::printf("%-10zu %12.2f %11.2fx %10zu%s\n", units, msec,
                serial_ms / msec, parallel_size,
                parallel_size == serial_size ? "" : "  RESULT MISMATCH!");
  }
}

void BM_Serial(benchmark::State& state) {
  auto db = MakeDb(1);
  RequireR(db->Query(kQuery), "warmup");
  for (auto _ : state) {
    auto set = RequireR(db->Query(kQuery), "q");
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * kSolids);
}
BENCHMARK(BM_Serial);

void BM_Parallel(benchmark::State& state) {
  auto db = MakeDb(static_cast<size_t>(state.range(0)));
  RequireR(db->Query(kQuery), "warmup");
  for (auto _ : state) {
    auto set = RequireR(db->QueryParallel(kQuery, state.range(0)), "q");
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * kSolids);
}
BENCHMARK(BM_Parallel)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Parallel_WithQualification(benchmark::State& state) {
  // DUs also evaluate the WHERE clause concurrently.
  auto db = MakeDb(8);
  const std::string query =
      "SELECT ALL FROM brep-face-edge-point WHERE "
      "EXISTS_AT_LEAST (2) face: face.square_dim > 3.0";
  RequireR(db->Query(query), "warmup");
  for (auto _ : state) {
    auto set = RequireR(db->QueryParallel(query, 8), "q");
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_Parallel_WithQualification);

}  // namespace
}  // namespace prima::bench

int main(int argc, char** argv) {
  prima::bench::Report();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
