#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/prima.h"
#include "measure.h"
#include "timing_device.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans (CSV)
};

/// Ordered name -> number map printed as a JSON object.
using Fields = std::vector<std::pair<std::string, double>>;

/// One benchmark workload: a seeded single-client op stream against one
/// database, plus the audits that prove the database kept every
/// acknowledged op. The harness (main.cc) owns the timing; a workload
/// only plans, executes and checks ops.
///
/// Op protocol: PlanNext() draws the next op from the seeded stream (not
/// timed), ExecutePlanned() runs it through the public API (timed), and
/// AcknowledgePlanned() validates its output and folds it into the
/// workload's shadow of the expected database state (not timed).
class Workload {
 public:
  explicit Workload(const RunArgs& args) : args_(args) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Op kind names, indexed by the value PlanNext() returns.
  virtual std::vector<std::string> OpKindNames() const = 0;

  /// True when lane 1 exists: an in-process session on the same database
  /// running the same op stream, for comparison with a wire lane 0.
  virtual bool HasComparisonLane() const { return false; }

  /// Build a fresh database: open, schema, populate, checkpoint, connect the
  /// client, and run the warm-up ops. The harness calls Close() first.
  virtual prima::util::Status Setup() = 0;

  /// Drop the client, the database and its device, if any (a clean
  /// shutdown).
  virtual void Close() = 0;

  virtual int PlanNext() = 0;
  virtual prima::util::Status ExecutePlanned(int lane) = 0;
  virtual prima::util::Status AcknowledgePlanned() = 0;

  /// Statements issued through the API so far (all lanes).
  virtual uint64_t statements() const = 0;

  /// Audit the live database against the shadow.
  virtual prima::util::Status Audit() = 0;

  /// Pull the plug: CrashingBlockDevice::CrashNow(), then drop the client
  /// and the database without letting them write anything.
  virtual void Crash() = 0;
  /// Options that open copy number `copy` of the crashed device image (the
  /// copy is made here, untimed).
  virtual prima::util::Result<prima::core::PrimaOptions> RestartOptions(
      int copy) = 0;
  /// Audit a database recovered from the crashed image: every acknowledged
  /// op must be there, and nothing else.
  virtual prima::util::Status AuditRecovered(prima::core::Prima* db) = 0;

  /// Workload-specific entries of the config block (data sizes, pool).
  virtual Fields Config() const = 0;

  /// Ops run untimed after the pre-crash checkpoint (the replayed log).
  virtual int TailOps() const = 0;

  /// Timed restarts from copies of the crashed image; restart_s is their
  /// median.
  virtual int RestartReps() const { return 5; }

  /// Ops run untimed between the last set-up and the window, through the
  /// in-process lane, so that the window starts where the stream's data has
  /// stopped growing (not part of setup_s: it is the stream, not set-up).
  virtual int SteadyOps() const { return 0; }

  prima::core::Prima* db() { return db_.get(); }
  TimingDevice* device() { return device_.get(); }
  Tracer* tracer() { return &tracer_; }

 protected:
  RunArgs args_;
  Tracer tracer_;
  std::shared_ptr<TimingDevice> device_;
  std::unique_ptr<prima::core::Prima> db_;
};

std::unique_ptr<Workload> MakeMmoWorkload(const RunArgs& args, bool wire);
std::unique_ptr<Workload> MakeCadWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
