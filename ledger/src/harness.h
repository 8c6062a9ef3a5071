// The database one workload runs against, plus the phases every workload
// shares: set-up, the end-of-run probes (follower catch-up, reopen, disk
// footprint) and the per-layer probes, whose wire probes start a server on
// the database.
#ifndef CADDB_LEDGER_HARNESS_H_
#define CADDB_LEDGER_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "net/client.h"
#include "net/server.h"
#include "wal/recovery.h"

namespace caddb::shell {
class Shell;
}  // namespace caddb::shell

namespace ledger {

struct WorkloadConfig {
  std::string name;
  PopulationSizes sizes;
  /// 0 keeps every object resident.
  size_t resident_budget = 0;
  size_t pool_pages = 256;
  /// Set-ups per untraced run, and repeats of the end-of-run catch-up and
  /// reopen probes; their medians are reported.
  int setups = 9;
  int catchups = 7;
  int reopens = 7;
  /// Selects in the end-of-run select probe (workloads whose timed phase
  /// does no selects).
  int select_probes = 200;
};

class Harness {
 public:
  Harness(const Options& opts, WorkloadConfig config);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Builds the database `repeats` times from scratch (open, populate,
  /// checkpoint, reopen under the resident budget), timing each; the last
  /// one stays up for the run.
  caddb::Status Setup(int repeats);
  const Samples& setup_seconds() const { return setup_s_; }

  /// Starts a server on the database with one connected client session.
  caddb::Status StartServer();
  void StopServer();

  /// In-process `select <lot> Girders.Length` (SelectFromClass + Project),
  /// each after one modelled write, checking each against the model.
  caddb::Status SelectProbe(int count, Samples* latency_us);
  /// `set <root> A` on the chain roots through an in-process shell;
  /// `windows` groups of `per_window`, one Samples per group.
  caddb::Status CommitProbe(int windows, int per_window,
                            std::vector<Samples>* latency_us);

  struct CatchUp {
    Samples total_ms, ship_ms, rebuild_ms;
    uint64_t bytes_shipped = 0;
  };
  /// Ships to a fresh replica directory and polls a fresh follower until it
  /// has replayed the primary's last lsn, `repeats` times; each caught-up
  /// follower is checked against the model.
  caddb::Status CatchUpProbe(int repeats, CatchUp* out);

  /// Checkpoints twice, then (pages.db + log + checkpoint bytes) / live
  /// objects.
  caddb::Result<double> DiskBytesPerObject();

  struct Reopen {
    Samples open_ms, replay_ms;
    uint64_t records_applied = 0;
  };
  /// `writes_each` acknowledged writes, close, timed Database::Open, check
  /// every modelled value; `repeats` times. The server is stopped first
  /// and not restarted.
  caddb::Status ReopenProbe(int repeats, int writes_each, Reopen* out);

  /// One acknowledged in-process write, recorded in the model: a chain
  /// root's A, an interface Length or a structure Designer, in turn.
  caddb::Status ModelledWrite();

  /// The per-layer probe sweep: timings of calls into each module's public
  /// functions on the workload's own keys, into `out`; `scale` multiplies
  /// the iteration counts.
  caddb::Status LayerProbes(double scale, RunResult* out);

  const Options& opts() const { return opts_; }
  const WorkloadConfig& config() const { return config_; }
  Database* db() { return db_.get(); }
  Model& model() { return model_; }
  Outcome& outcome() { return outcome_; }
  caddb::obs::Observability* primary_obs() { return &primary_obs_; }
  SpanLedger& spans() { return spans_; }

 private:
  caddb::Status OpenPrimary(bool fresh,
                            const caddb::wal::DurabilityOptions& options);
  void Teardown();

  const Options opts_;
  const WorkloadConfig config_;
  // Declared before the databases that report into them.
  caddb::obs::Observability primary_obs_;
  caddb::obs::Observability follower_obs_;
  SpanLedger spans_;
  caddb::wal::DurabilityOptions durability_;
  std::string run_dir_;
  std::string primary_dir_;
  Model model_;
  Outcome outcome_;
  Samples setup_s_;
  std::mt19937_64 rng_;
  uint64_t write_turn_ = 0;
  std::unique_ptr<Database> db_;
  std::unique_ptr<caddb::net::Server> server_;
  std::unique_ptr<caddb::net::Client> client_;
};

/// Executes one wire command; false (with `*out` holding the reason) when
/// the call failed or the command reported an error.
bool WireExecute(caddb::net::Client* client, const std::string& line,
                 std::string* out);
/// Executes one command line on an in-process shell; false (with `*out`
/// holding the error) when the command reported an error.
bool ShellExecute(caddb::shell::Shell* shell, const std::string& line,
                  std::string* out);
/// Parses an integer reply ("123\n").
bool ParseIntReply(const std::string& reply, int64_t* value);

}  // namespace ledger

#endif  // CADDB_LEDGER_HARNESS_H_
