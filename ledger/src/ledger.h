// Shared declarations of the end-to-end benchmark: options, timing and
// sample helpers, the benchmark's own model of the data it wrote, the span
// ledger, and the workload entry points.
#ifndef CADDB_LEDGER_LEDGER_H_
#define CADDB_LEDGER_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/database.h"
#include "obs/observability.h"

namespace ledger {

using caddb::Database;
using caddb::Surrogate;

// ---- Options ----

struct Options {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny populations and short phases: every workload runs to its end in
  /// a few seconds (the self-test's mode).
  bool smoke = false;
  /// Name of one oracle whose expectation is deliberately made wrong
  /// ("get", "select", "nav", "follower", "reopen"); the run must then
  /// report failed operations. Empty in real runs.
  std::string break_oracle;
  /// Directory for the run's databases (removed at the end).
  std::string work_dir = ".bench_build/runs";
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
};

/// The expected value an oracle compares against: `v`, or `v + 1` when the
/// self-test asked for this oracle to be broken.
int64_t Expect(int64_t v, const char* oracle);
void SetBrokenOracle(const std::string& name);

// ---- Timing ----

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process user+system CPU seconds, all threads.
double CpuSeconds();
/// Process resident set size now, MB.
double ResidentMb();

/// A bag of measurements with exact (sorted) quantiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  /// Nearest-rank quantile, q in [0,1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Percentile of the observations a histogram gained between two
/// snapshots of the same instrument.
double HistogramDeltaPercentile(const caddb::obs::HistogramSnapshot& before,
                                const caddb::obs::HistogramSnapshot& after,
                                double q);
caddb::obs::HistogramSnapshot HistogramOf(caddb::obs::Observability* obs,
                                          const std::string& name);
uint64_t CounterOf(caddb::obs::Observability* obs, const std::string& name);

// ---- Outcome accounting ----

/// Attempted/failed operation counts. A failed operation is one whose call
/// returned an error or whose result disagreed with the model; the latter
/// is also a mismatch, which makes the run incorrect.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  void Merge(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
  }
};
/// Records one operation; logs the first few failures to stderr.
void Record(Outcome* out, bool call_ok, bool value_ok, const std::string& what);

// ---- The benchmark's model of the data it wrote ----

struct ChainModel {
  /// nodes[k] is the level-k node (k = 0 is the transmitter root).
  std::vector<Surrogate> nodes;
  /// The root's A, which every node must read.
  int64_t root_value = 0;
};

struct StructureModel {
  Surrogate id;
  std::string designer;
  std::vector<Surrogate> girders;
  /// Index into Model::ifaces of each girder's interface.
  std::vector<int> girder_iface;
  int lot = 0;
};

struct Model {
  int depth = 0;
  std::vector<ChainModel> chains;
  std::vector<Surrogate> ifaces;  // girder interfaces
  std::vector<int64_t> iface_length;
  std::vector<int64_t> iface_height;
  std::vector<int64_t> iface_width;
  std::vector<StructureModel> structures;
  int lots = 0;
  static std::string LotName(int lot) { return "Lot" + std::to_string(lot); }
  /// A fresh interface length that keeps the schema constraint
  /// Length < 100 * Height * Width.
  int64_t NewLength(size_t iface, std::mt19937_64* rng) const;
};

struct PopulationSizes {
  int chains = 0;
  int depth = 8;
  int girder_ifaces = 16;
  int plate_ifaces = 4;
  int parts = 4;
  int structures = 0;
  int lot_size = 300;
  int girders_per_structure = 2;
  int screwings_per_structure = 2;
};

/// Builds the data into `db` and returns the model of what was written.
caddb::Result<Model> Populate(Database* db, const PopulationSizes& sizes,
                              uint32_t seed);

/// Reads every modelled value back from `db` (a reopened primary or a
/// follower) and returns how many disagree; `oracle` names the check for
/// the self-test's deliberate breakage. `why` gets the first mismatch.
uint64_t VerifyAgainstModel(const Database& db, const Model& model,
                            const char* oracle, std::string* why);

/// Checks a rendered `select <lot> Girders.Length` table against the model:
/// exactly the lot's structures, each with its girders' distinct lengths.
bool CheckSelectTable(const std::string& table, const Model& model, int lot,
                      std::string* why);

// ---- Span ledger ----

/// Collects every span the attached tracers complete while tracing is on:
/// self time (span minus the spans it caused) per layer, kept in memory and
/// written out when the run ends.
class SpanLedger {
 public:
  SpanLedger() = default;
  ~SpanLedger();
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  void Attach(caddb::obs::Observability* obs);
  void Enable(bool on);
  /// Mean self time, us, of the spans of each layer.
  std::map<std::string, double> MeanSelfUsByLayer() const;
  uint64_t spans() const;
  /// Writes the retained spans as JSON lines.
  caddb::Status Write(const std::string& path) const;
  /// The layers reported, in output order.
  static const std::vector<std::string>& Layers();

 private:
  struct Kept {
    uint64_t id, parent, trace;
    uint64_t start_us, duration_us, self_us;
    uint32_t name;  // index into names_
    int tracer;
  };
  void OnSpan(int tracer, const caddb::obs::SpanRecord& r);

  struct Agg {
    uint64_t spans = 0;
    double self_us = 0;
  };
  mutable std::mutex mu_;
  std::vector<std::pair<caddb::obs::Observability*, int>> attached_;
  std::map<std::string, Agg> by_layer_;
  // (tracer, parent id, trace id) -> summed durations of finished children.
  std::map<std::tuple<int, uint64_t, uint64_t>, uint64_t> child_us_;
  std::vector<Kept> kept_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_index_;
  uint64_t total_ = 0;
};

// ---- Results and workloads ----

struct RunResult {
  Outcome outcome;
  /// name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

int RunShellRead(const Options& opts, RunResult* result);
int RunPagedEmbedded(const Options& opts, RunResult* result);

}  // namespace ledger

#endif  // CADDB_LEDGER_LEDGER_H_
