// cad_spill: the paper's own traffic. 2,000 BREP tetrahedra on the memory
// device behind a buffer pool about 4x smaller than the data,
// read mostly: keyed brep-face-edge-point molecule gets, key-range molecule
// scans through a cursor and through semantic parallelism, and
// molecule-qualified MODIFYs of face.square_dim.

#include <map>

#include "clients.h"
#include "recovery/crash_device.h"
#include "util/random.h"
#include "workload.h"
#include "workloads/brep.h"

namespace perfbench {

using prima::access::Value;
using prima::mql::Molecule;
using prima::util::Result;
using prima::util::Status;

namespace {

constexpr int kSolids = 2000;
constexpr int kRangeWidth = 32;
constexpr size_t kPoolBytes = 512u << 10;
constexpr int kWarmupOps = 300;
constexpr int kTailOps = 200;

enum Kind : int { kGet = 0, kRange, kParallel, kModify, kKinds };
const char* kKindNames[kKinds] = {"get", "range_scan", "parallel_scan",
                                  "modify"};

enum Slot : size_t { kSelOne = 0, kSelRange, kSetSquare, kSlotCount };
const char* kSlotMql[kSlotCount] = {
    "SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?",
    "SELECT ALL FROM brep-face-edge-point WHERE brep_no >= ? AND brep_no < ?",
    "MODIFY face SET square_dim = ? FROM brep-face WHERE brep_no = ?",
};

/// One tetrahedron: 1 brep, 4 faces, 6 edges, 4 points.
Status CheckShape(const Molecule& m) {
  const auto count = [&m](const char* component) -> size_t {
    const auto* group = m.FindGroup(component);
    return group == nullptr ? 0 : group->atoms.size();
  };
  if (count("brep") != 1 || count("face") != 4 || count("edge") != 6 ||
      count("point") != 4) {
    return Status::Corruption(
        "molecule shape " + std::to_string(count("brep")) + "/" +
        std::to_string(count("face")) + "/" + std::to_string(count("edge")) +
        "/" + std::to_string(count("point")) + ", expected 1/4/6/4");
  }
  return Status::Ok();
}

class CadWorkload final : public Workload {
 public:
  explicit CadWorkload(const RunArgs& args)
      : Workload(args), rng_(args.seed) {}

  ~CadWorkload() override { client_.reset(); }

  std::vector<std::string> OpKindNames() const override {
    return {kKindNames, kKindNames + kKinds};
  }

  void Close() override {
    client_.reset();
    db_.reset();
    device_.reset();
    crash_.reset();
    memory_.reset();
  }

  Status Setup() override {
    Close();
    memory_ = std::make_shared<prima::storage::MemoryBlockDevice>();
    crash_ = std::make_shared<prima::recovery::CrashingBlockDevice>(memory_);
    device_ = std::make_shared<TimingDevice>(crash_, &tracer_);
    auto db = prima::core::Prima::Open(Options(device_));
    if (!db.ok()) return db.status();
    db_ = std::move(*db);

    prima::workloads::BrepWorkload brep(db_.get());
    PRIMA_RETURN_IF_ERROR(brep.CreateSchema());
    PRIMA_RETURN_IF_ERROR(
        db_->ExecuteLdl("CREATE ACCESS PATH brep_no_path ON brep (brep_no)")
            .status());
    PRIMA_RETURN_IF_ERROR(brep.BuildMany(1, kSolids).status());
    PRIMA_RETURN_IF_ERROR(db_->Flush());
    brep_no_attr_ = db_->access().catalog().FindAtomType("brep")
                        ->FindAttr("brep_no")->id;
    square_attr_ = db_->access().catalog().FindAtomType("face")
                       ->FindAttr("square_dim")->id;

    client_ = MakeSessionClient(db_.get(), &tracer_);
    for (size_t i = 0; i < kSlotCount; ++i) {
      PRIMA_RETURN_IF_ERROR(client_->Prepare(i, kSlotMql[i]));
    }
    rng_ = prima::util::Random(args_.seed);
    seq_ = 0;
    acked_square_.clear();
    for (int i = 0; i < kWarmupOps; ++i) {
      PlanNext();
      PRIMA_RETURN_IF_ERROR(ExecutePlanned(0));
      PRIMA_RETURN_IF_ERROR(AcknowledgePlanned());
    }
    return Status::Ok();
  }

  int PlanNext() override {
    ++seq_;
    const uint64_t pick = rng_.Uniform(100);
    kind_ = pick < 70 ? kGet : pick < 80 ? kRange : pick < 90 ? kParallel
                                                              : kModify;
    if (kind_ == kRange || kind_ == kParallel) {
      brep_no_ = rng_.Range(1, kSolids - kRangeWidth + 1);
    } else {
      brep_no_ = rng_.Range(1, kSolids);
    }
    square_ = static_cast<double>(seq_) + 0.25;
    return kind_;
  }

  Status ExecutePlanned(int) override {
    Client* c = client_.get();
    switch (kind_) {
      case kGet:
        ++statements_;
        PRIMA_RETURN_IF_ERROR(c->Bind(kSelOne, 0, Value::Int(brep_no_)));
        return c->Scan(kSelOne, &molecules_);
      case kRange:
        ++statements_;
        PRIMA_RETURN_IF_ERROR(c->Bind(kSelRange, 0, Value::Int(brep_no_)));
        PRIMA_RETURN_IF_ERROR(
            c->Bind(kSelRange, 1, Value::Int(brep_no_ + kRangeWidth)));
        return c->Scan(kSelRange, &molecules_);
      case kParallel: {
        ++statements_;
        Tracer::Scope span(&tracer_, SpanKind::kCoreParallel);
        auto set = db_->QueryParallel(
            "SELECT ALL FROM brep-face-edge-point WHERE brep_no >= " +
            std::to_string(brep_no_) +
            " AND brep_no < " + std::to_string(brep_no_ + kRangeWidth));
        if (!set.ok()) return set.status();
        molecules_ = std::move(set->molecules);
        return Status::Ok();
      }
      case kModify: {
        statements_ += 3;
        PRIMA_RETURN_IF_ERROR(
            c->Execute("BEGIN WORK", SpanKind::kCoreBegin).status());
        Status st = c->Bind(kSetSquare, 0, Value::Real(square_));
        if (st.ok()) st = c->Bind(kSetSquare, 1, Value::Int(brep_no_));
        if (st.ok()) {
          auto r = c->ExecutePrepared(kSetSquare);
          st = r.status();
          if (st.ok() && r->count != 4) {
            st = Status::Corruption("MODIFY of brep " +
                                    std::to_string(brep_no_) + " touched " +
                                    std::to_string(r->count) + " faces");
          }
        }
        if (!st.ok()) {
          (void)c->Execute("ABORT WORK", SpanKind::kCoreAbort);
          return st;
        }
        return c->Execute("COMMIT WORK", SpanKind::kCoreCommit).status();
      }
    }
    return Status::InvalidArgument("unknown op kind");
  }

  Status AcknowledgePlanned() override {
    if (kind_ == kModify) {
      acked_square_[brep_no_] = square_;
      return Status::Ok();
    }
    Status st = CheckMolecules();
    molecules_.clear();  // freed here, outside the timed op
    return st;
  }

  /// A get returns its one brep, a scan its 32 in key order, each a full
  /// tetrahedron.
  Status CheckMolecules() const {
    const size_t expected = kind_ == kGet ? 1 : kRangeWidth;
    if (molecules_.size() != expected) {
      return Status::Corruption(std::string(kKindNames[kind_]) + " at brep " +
                                std::to_string(brep_no_) + " returned " +
                                std::to_string(molecules_.size()) +
                                " molecules, expected " +
                                std::to_string(expected));
    }
    for (size_t i = 0; i < molecules_.size(); ++i) {
      PRIMA_RETURN_IF_ERROR(CheckShape(molecules_[i]));
      const int64_t got =
          molecules_[i].groups[0].atoms[0].attrs[brep_no_attr_].AsInt();
      if (got != brep_no_ + static_cast<int64_t>(i)) {
        return Status::Corruption("molecule " + std::to_string(i) +
                                  " of brep " + std::to_string(brep_no_) +
                                  " has brep_no " + std::to_string(got));
      }
    }
    return Status::Ok();
  }

  uint64_t statements() const override { return statements_; }

  Status Audit() override { return AuditSquares(db_.get()); }

  void Crash() override {
    crash_->CrashNow();
    client_.reset();
    db_.reset();
  }

  Result<prima::core::PrimaOptions> RestartOptions(int) override {
    return Options(std::make_shared<TimingDevice>(memory_->Clone(), nullptr));
  }

  Status AuditRecovered(prima::core::Prima* db) override {
    return AuditSquares(db);
  }

  Fields Config() const override {
    return {{"solids", kSolids},
            {"atoms", kSolids * 16},
            {"range_width", kRangeWidth},
            {"pool_bytes", static_cast<double>(kPoolBytes)},
            {"warmup_ops", kWarmupOps},
            {"tail_ops", kTailOps},
            {"file_device", 0}};
  }

  int TailOps() const override { return kTailOps; }
  /// A restart takes ~60 ms here, short enough for the host's
  /// sub-second swings to show; more copies steady the median.
  int RestartReps() const override { return 9; }

 private:
  prima::core::PrimaOptions Options(
      std::shared_ptr<prima::storage::BlockDevice> device) const {
    prima::core::PrimaOptions options;
    options.device = std::move(device);
    options.storage.buffer_bytes = kPoolBytes;
    return options;
  }

  /// Every brep is there with its full shape, and every face of an edited
  /// brep carries the last acknowledged square_dim.
  Status AuditSquares(prima::core::Prima* db) {
    PRIMA_ASSIGN_OR_RETURN(auto set,
                           db->Query("SELECT ALL FROM brep-face-edge-point"));
    if (set.size() != static_cast<size_t>(kSolids)) {
      return Status::Corruption("audit found " + std::to_string(set.size()) +
                                " breps");
    }
    size_t edited = 0;
    for (const Molecule& m : set.molecules) {
      PRIMA_RETURN_IF_ERROR(CheckShape(m));
      const int64_t no = m.groups[0].atoms[0].attrs[brep_no_attr_].AsInt();
      auto it = acked_square_.find(no);
      if (it == acked_square_.end()) continue;
      ++edited;
      for (const auto& face : m.FindGroup("face")->atoms) {
        const double got = face.attrs[square_attr_].AsReal();
        if (got != it->second) {
          return Status::Corruption(
              "brep " + std::to_string(no) + " face square_dim " +
              std::to_string(got) + ", acknowledged " +
              std::to_string(it->second));
        }
      }
    }
    if (edited != acked_square_.size()) {
      return Status::Corruption("audit saw " + std::to_string(edited) +
                                " of " + std::to_string(acked_square_.size()) +
                                " edited breps");
    }
    return Status::Ok();
  }

  prima::util::Random rng_;
  std::shared_ptr<prima::storage::MemoryBlockDevice> memory_;
  std::shared_ptr<prima::recovery::CrashingBlockDevice> crash_;
  std::unique_ptr<Client> client_;
  uint16_t brep_no_attr_ = 0;
  uint16_t square_attr_ = 0;
  std::map<int64_t, double> acked_square_;  ///< brep_no -> last acked value
  std::vector<Molecule> molecules_;
  uint64_t seq_ = 0;
  int kind_ = kGet;
  int64_t brep_no_ = 0;
  double square_ = 0;
  uint64_t statements_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCadWorkload(const RunArgs& args) {
  return std::make_unique<CadWorkload>(args);
}

}  // namespace perfbench
