// Self-tests for the benchmark's own arithmetic: exact percentiles from raw
// samples, the >=100-beyond-p99 tail check, per-op normalisation of counter
// deltas, the host-speed scaling, span self time with nested and
// overlapping children, and the timing device stacked on a crashing memory
// or file device. Checks stay live in optimized builds (no assert).
//
//   perfbench_selftest   (its file device lives next to the executable)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "measure.h"
#include "recovery/crash_device.h"
#include "timing_device.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

using perfbench::Span;
using perfbench::SpanKind;

std::vector<uint64_t> OneTo(uint64_t n) {
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void Percentiles() {
  using perfbench::NearestRank;
  using perfbench::Percentile;
  CHECK(NearestRank(0, 50) == 0);
  CHECK(NearestRank(1, 50) == 1);
  CHECK(NearestRank(1, 99) == 1);
  CHECK(NearestRank(10, 50) == 5);
  CHECK(NearestRank(11, 50) == 6);
  CHECK(NearestRank(100, 99) == 99);
  CHECK(NearestRank(10000, 99) == 9900);  // no floating-point round-up
  CHECK(NearestRank(10001, 99) == 9901);
  CHECK(NearestRank(7, 100) == 7);

  const std::vector<uint64_t> v = OneTo(1000);
  CHECK(Percentile(v, 50) == 500);
  CHECK(Percentile(v, 99) == 990);
  CHECK(Percentile(v, 100) == 1000);
  CHECK(Percentile({}, 50) == 0);
  CHECK(Percentile({42}, 99) == 42);
  // Exact, not interpolated: the value is always one of the samples.
  CHECK(Percentile({10, 20}, 50) == 10);
  CHECK(Percentile({10, 20, 30, 1000}, 75) == 30);
}

void TailCheck() {
  using perfbench::CountBeyond;
  using perfbench::TailResolved;
  // 10,000 distinct samples: p99 is the 9,900th, 100 lie beyond it.
  const std::vector<uint64_t> enough = OneTo(10000);
  CHECK(CountBeyond(enough, 99) == 100);
  CHECK(TailResolved(enough));
  const std::vector<uint64_t> short_run = OneTo(9999);
  CHECK(CountBeyond(short_run, 99) == 99);
  CHECK(!TailResolved(short_run));
  // Ties at the p99 value do not count as beyond it.
  std::vector<uint64_t> ties(20000, 5);
  CHECK(CountBeyond(ties, 99) == 0);
  CHECK(!TailResolved(ties));
  for (int i = 0; i < 150; ++i) ties.push_back(9);  // sorted: 5s then 9s
  CHECK(CountBeyond(ties, 99) == 150);
  CHECK(TailResolved(ties));
}

void PerOpNormalisation() {
  using perfbench::PerOp;
  using perfbench::Ratio;
  bool ok = true;
  CHECK(PerOp(100, 400, 3, &ok) == 100.0);
  CHECK(ok);
  CHECK(PerOp(5, 5, 10, &ok) == 0.0);
  CHECK(PerOp(7, 8, 0, &ok) == 0.0);  // empty window
  CHECK(ok);
  CHECK(PerOp(9, 3, 10, &ok) == 0.0);  // counter went backwards
  CHECK(!ok);
  CHECK(PerOp(0, 1, 4) == 0.25);
  CHECK(Ratio(3, 4) == 0.75);
  CHECK(Ratio(3, 0) == 0.0);
}

void HostScaling() {
  using perfbench::HostFactor;
  using perfbench::kNominalHostRate;
  using perfbench::Median;
  CHECK(Median({}) == 0.0);
  CHECK(Median({3, 1, 2}) == 2.0);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
  CHECK(HostFactor(0) == 1.0);  // no sample: unscaled
  CHECK(HostFactor(kNominalHostRate) == 1.0);
  // A host at half the nominal speed: a 300 us latency reads 150 us and
  // 1,000 ops/s reads 2,000.
  const double half = HostFactor(kNominalHostRate / 2);
  CHECK(300.0 * half == 150.0);
  CHECK(1000.0 / half == 2000.0);
  perfbench::GaugeWork work;
  CHECK(work.RunChunk() > 0);
  perfbench::HostGauge gauge;
  CHECK(!gauge.Sample());  // not started
  CHECK(gauge.RateSince(0) == 0.0);
  CHECK(gauge.Start());
  CHECK(gauge.Sample());
  CHECK(gauge.Sample());
  CHECK(gauge.Sample());
  CHECK(gauge.samples() == 3);
  CHECK(gauge.RateSince(0) > 0.0);
  CHECK(gauge.RateSince(2) > 0.0);
  CHECK(gauge.RateSince(3) == 0.0);
}

Span MakeSpan(uint32_t parent, uint64_t start, uint64_t end,
              SpanKind kind = SpanKind::kOp) {
  Span s;
  s.parent = parent;
  s.kind = kind;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void SelfTime() {
  using perfbench::SelfTimes;
  // op [0,100) > mql [10,60) > device [20,30); op > commit [70,90).
  std::vector<Span> nested = {
      MakeSpan(0, 0, 100, SpanKind::kOp),
      MakeSpan(1, 10, 60, SpanKind::kMqlPrepared),
      MakeSpan(2, 20, 30, SpanKind::kDeviceRead),
      MakeSpan(1, 70, 90, SpanKind::kCoreCommit),
  };
  std::vector<uint64_t> self = SelfTimes(nested);
  CHECK(self[0] == 30);  // 100 - 50 - 20; the grandchild is not subtracted
  CHECK(self[1] == 40);
  CHECK(self[2] == 10);
  CHECK(self[3] == 20);
  uint64_t total = 0;
  for (uint64_t s : self) total += s;
  CHECK(total == 100);  // self times partition the root

  // Overlapping children (e.g. spans of parallel workers): the union counts
  // once. [10,40) and [30,50) cover 40; [60,70) adds 10.
  std::vector<Span> overlap = {
      MakeSpan(0, 0, 100),
      MakeSpan(1, 10, 40),
      MakeSpan(1, 30, 50),
      MakeSpan(1, 60, 70),
  };
  self = SelfTimes(overlap);
  CHECK(self[0] == 50);

  // A child inside another child's interval, and one sticking out of the
  // parent: clipped to the parent.
  std::vector<Span> clipped = {
      MakeSpan(0, 100, 200),
      MakeSpan(1, 110, 190),
      MakeSpan(1, 120, 130),
      MakeSpan(1, 150, 260),
  };
  self = SelfTimes(clipped);
  CHECK(self[0] == 10);

  // Totals by kind.
  const perfbench::KindTotals totals = perfbench::TotalsByKind(nested);
  CHECK(totals.self_ns[static_cast<size_t>(SpanKind::kOp)] == 30);
  CHECK(totals.self_ns[static_cast<size_t>(SpanKind::kDeviceRead)] == 10);
  CHECK(totals.self_ns[static_cast<size_t>(SpanKind::kCoreCommit)] == 20);

  // The recorder nests by call order on its thread and ignores calls when
  // disabled.
  perfbench::Tracer tracer;
  tracer.AttachToThisThread();
  CHECK(tracer.Begin(SpanKind::kOp) == 0);  // not enabled yet
  tracer.Enable(true);
  {
    perfbench::Tracer::Scope op(&tracer, SpanKind::kOp);
    perfbench::Tracer::Scope exec(&tracer, SpanKind::kMqlPrepared);
  }
  { perfbench::Tracer::Scope op(&tracer, SpanKind::kOp); }
  CHECK(tracer.spans().size() == 3);
  CHECK(tracer.spans()[0].parent == 0);
  CHECK(tracer.spans()[1].parent == 1);
  CHECK(tracer.spans()[2].parent == 0);
  CHECK(tracer.spans()[1].end_ns <= tracer.spans()[0].end_ns);
}

}  // namespace

/// TimingDevice over CrashingBlockDevice over `inner`: calls are forwarded
/// and counted, Sync included, and a write after CrashNow() is dropped.
void DeviceStack(std::shared_ptr<prima::storage::BlockDevice> inner) {
  auto crash = std::make_shared<prima::recovery::CrashingBlockDevice>(inner);
  perfbench::TimingDevice device(crash, nullptr);
  constexpr uint32_t kBlock = 4096;
  std::vector<char> out(kBlock, 'x'), in(kBlock, 0);
  CHECK(device.Create(7, kBlock).ok());
  CHECK(device.Write(7, 3, out.data()).ok());
  CHECK(device.Sync().ok());
  CHECK(device.Read(7, 3, in.data()).ok());
  CHECK(std::memcmp(in.data(), out.data(), kBlock) == 0);
  const perfbench::DeviceCounters c = device.Counters();
  CHECK(c.blocks_written == 1);
  CHECK(c.bytes_written == kBlock);
  CHECK(c.blocks_read == 1);
  CHECK(c.syncs == 1);
  CHECK(device.OccupiedBytes() == 4 * kBlock);  // blocks 0..3
  crash->CrashNow();
  std::vector<char> lost(kBlock, 'y');
  CHECK(device.Write(7, 3, lost.data()).ok());  // dropped, as by a power cut
  CHECK(device.Read(7, 3, in.data()).ok());
  CHECK(std::memcmp(in.data(), out.data(), kBlock) == 0);
}

void DeviceStacks(const char* argv0) {
  DeviceStack(std::make_shared<prima::storage::MemoryBlockDevice>());
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::absolute(argv0).parent_path() / "selftest-file-device";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  CHECK(!ec);
  {
    auto files = std::make_shared<prima::storage::FileBlockDevice>(dir.string());
    DeviceStack(files);
  }
  fs::remove_all(dir, ec);
}

int main(int, char** argv) {
  Percentiles();
  TailCheck();
  PerOpNormalisation();
  HostScaling();
  SelfTime();
  DeviceStacks(argv[0]);
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
