#include "harness.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "query/report.h"
#include "replication/follower.h"
#include "replication/shipper.h"
#include "shell/shell.h"

namespace ledger {

namespace fs = std::filesystem;
using caddb::Result;
using caddb::Status;
using caddb::Value;

bool WireExecute(caddb::net::Client* client, const std::string& line,
                 std::string* out) {
  bool command_error = false;
  Status s = client->Execute(line, out, &command_error);
  if (!s.ok()) {
    *out = s.ToString();
    return false;
  }
  return !command_error;
}

bool ShellExecute(caddb::shell::Shell* shell, const std::string& line,
                  std::string* out) {
  std::ostringstream sink;
  const size_t errors = shell->error_count();
  shell->ExecuteLine(line, sink);
  *out = sink.str();
  return shell->error_count() == errors;
}

bool ParseIntReply(const std::string& reply, int64_t* value) {
  if (reply.empty()) return false;
  char* end = nullptr;
  *value = std::strtoll(reply.c_str(), &end, 10);
  return end != reply.c_str() && (*end == '\n' || *end == '\0');
}

Harness::Harness(const Options& opts, WorkloadConfig config)
    : opts_(opts),
      config_(std::move(config)),
      rng_(opts.seed * 0x2545F4914F6CDD1Dull + config_.name.size()) {
  run_dir_ = opts_.work_dir + "/" + config_.name + "-" +
             std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(run_dir_, ec);
  fs::create_directories(run_dir_, ec);
  // Group commit with the fsync on the log's own syncer thread: a commit is
  // acknowledged once its record is written, and the fsync that makes it
  // durable overlaps later commits. The run's files live in the checkout,
  // on whatever disk that is; waiting on its fsync in every commit would
  // measure that disk, not the program.
  durability_.wal.sync = caddb::wal::SyncPolicy::kBatch;
  durability_.wal.batched_fsync = true;
  durability_.wal.obs = &primary_obs_;
  durability_.buffer_pool_pages = config_.pool_pages;
  durability_.resident_object_budget = config_.resident_budget;
  spans_.Attach(&primary_obs_);
  spans_.Attach(&follower_obs_);
}

Harness::~Harness() {
  spans_.Enable(false);
  Teardown();
  std::error_code ec;
  fs::remove_all(run_dir_, ec);
}

void Harness::Teardown() {
  StopServer();
  if (db_ != nullptr) {
    Status closed = db_->Close();
    if (!closed.ok()) std::cerr << "close: " << closed.ToString() << "\n";
    db_.reset();
  }
}

Status Harness::OpenPrimary(bool fresh,
                            const caddb::wal::DurabilityOptions& options) {
  if (fresh) {
    std::error_code ec;
    fs::remove_all(primary_dir_, ec);
  }
  CADDB_ASSIGN_OR_RETURN(db_, Database::Open(primary_dir_, options));
  return caddb::OkStatus();
}

Status Harness::Setup(int repeats) {
  for (int i = 0; i < repeats; ++i) {
    Teardown();
    if (!primary_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(primary_dir_, ec);
    }
    primary_dir_ = run_dir_ + "/primary-" + std::to_string(i);
    const uint64_t start = NowNs();
    // Bulk load with everything resident, checkpoint, then open the loaded
    // database with the workload's resident budget. (Loading under the
    // budget would walk the whole object map after every mutation while
    // nothing is clean enough to evict yet.)
    caddb::wal::DurabilityOptions load = durability_;
    load.resident_object_budget = 0;
    CADDB_RETURN_IF_ERROR(OpenPrimary(/*fresh=*/true, load));
    CADDB_ASSIGN_OR_RETURN(model_,
                           Populate(db_.get(), config_.sizes, opts_.seed));
    const uint64_t populated = NowNs();
    CADDB_RETURN_IF_ERROR(db_->Checkpoint());
    const uint64_t loaded = NowNs();
    if (config_.resident_budget > 0) {
      CADDB_RETURN_IF_ERROR(db_->Close());
      db_.reset();
      CADDB_RETURN_IF_ERROR(OpenPrimary(/*fresh=*/false, durability_));
    }
    const uint64_t done = NowNs();
    setup_s_.Add(static_cast<double>(done - start) / 1e9);
    std::cerr << config_.name << ": set-up " << i + 1 << " of " << repeats
              << ": loaded " << db_->store().size() << " objects in "
              << static_cast<double>(populated - start) / 1e9
              << " s, checkpointed in "
              << static_cast<double>(loaded - populated) / 1e9
              << " s, opened in "
              << static_cast<double>(done - loaded) / 1e9 << " s\n";
  }
  write_turn_ = 0;
  return caddb::OkStatus();
}

Status Harness::StartServer() {
  StopServer();
  caddb::net::ServerOptions so;
  CADDB_ASSIGN_OR_RETURN(server_, caddb::net::Server::Start(db_.get(), so));
  caddb::net::ClientOptions co;
  co.obs = &primary_obs_;
  co.ns = "ledger";
  CADDB_ASSIGN_OR_RETURN(
      client_, caddb::net::Client::Connect("127.0.0.1", server_->port(), co));
  return caddb::OkStatus();
}

void Harness::StopServer() {
  client_.reset();
  if (server_ != nullptr) {
    server_->Shutdown();
    server_.reset();
  }
}

Status Harness::ModelledWrite() {
  // Cycle through the three kinds of write the model knows, skipping the
  // kinds this population has none of.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const uint64_t kind = write_turn_++ % 3;
    if (kind == 0 && !model_.chains.empty()) {
      ChainModel& chain = model_.chains[rng_() % model_.chains.size()];
      const int64_t v = static_cast<int64_t>(rng_() % 1000000);
      CADDB_RETURN_IF_ERROR(db_->Set(chain.nodes[0], "A", Value::Int(v)));
      chain.root_value = v;
      return caddb::OkStatus();
    }
    if (kind == 1 && !model_.ifaces.empty()) {
      const size_t i = rng_() % model_.ifaces.size();
      const int64_t v = model_.NewLength(i, &rng_);
      CADDB_RETURN_IF_ERROR(
          db_->Set(model_.ifaces[i], "Length", Value::Int(v)));
      model_.iface_length[i] = v;
      return caddb::OkStatus();
    }
    if (kind == 2 && !model_.structures.empty()) {
      StructureModel& st =
          model_.structures[rng_() % model_.structures.size()];
      std::string v = "designer-" + std::to_string(rng_() % 1000000);
      CADDB_RETURN_IF_ERROR(db_->Set(st.id, "Designer", Value::String(v)));
      st.designer = std::move(v);
      return caddb::OkStatus();
    }
  }
  return caddb::FailedPrecondition("population has nothing to write");
}

Status Harness::SelectProbe(int count, Samples* latency_us) {
  if (model_.lots == 0) return caddb::FailedPrecondition("no steel yard");
  for (int i = 0; i < count; ++i) {
    const int lot = i % model_.lots;
    // In-process, as a linked CAD tool selects. Each select follows one
    // write so residency is trimmed to the budget as in the timed phase.
    CADDB_RETURN_IF_ERROR(ModelledWrite());
    uint64_t elapsed = 0;
    Result<caddb::Table> projected = caddb::Table();
    {
      caddb::obs::Span span(&primary_obs_.trace, "bench.select");
      const uint64_t start = NowNs();
      Result<std::vector<Surrogate>> hits =
          db_->query().SelectFromClass(Model::LotName(lot), nullptr);
      projected = hits.ok() ? caddb::Project(db_->inheritance(), *hits,
                                             {"Girders.Length"})
                            : Result<caddb::Table>(hits.status());
      elapsed = NowNs() - start;
    }
    const bool ok = projected.ok();
    const std::string table =
        ok ? projected->ToString() : projected.status().ToString();
    std::string why;
    const bool value_ok = ok && CheckSelectTable(table, model_, lot, &why);
    Record(&outcome_, ok, value_ok, ok ? why : table);
    latency_us->Add(static_cast<double>(elapsed) / 1e3);
  }
  return caddb::OkStatus();
}

Status Harness::CommitProbe(int windows, int per_window,
                            std::vector<Samples>* latency_us) {
  if (model_.chains.empty()) {
    return caddb::FailedPrecondition("commit probe needs chains");
  }
  caddb::shell::Shell shell(db_.get());
  latency_us->assign(static_cast<size_t>(windows), Samples());
  for (int i = 0; i < windows * per_window; ++i) {
    ChainModel& chain =
        model_.chains[static_cast<size_t>(i) % model_.chains.size()];
    const int64_t v = static_cast<int64_t>(rng_() % 1000000);
    const std::string line = "set @" + std::to_string(chain.nodes[0].id) +
                             " A i:" + std::to_string(v);
    std::string reply;
    caddb::obs::Span span(&primary_obs_.trace, "bench.set");
    const uint64_t start = NowNs();
    const bool ok = ShellExecute(&shell, line, &reply);
    (*latency_us)[static_cast<size_t>(i / per_window)].Add(
        static_cast<double>(NowNs() - start) / 1e3);
    if (ok) chain.root_value = v;
    Record(&outcome_, ok, ok, line + ": " + reply);
  }
  return caddb::OkStatus();
}

Status Harness::CatchUpProbe(int repeats, CatchUp* out) {
  for (int r = 0; r < repeats; ++r) {
    const std::string replica = run_dir_ + "/replica-" + std::to_string(r);
    const std::string staged = run_dir_ + "/staged-" + std::to_string(r);
    std::error_code ec;
    fs::remove_all(replica, ec);
    fs::remove_all(staged, ec);
    const uint64_t target = db_->wal()->last_lsn();
    bool caught_up = false;
    std::string why;
    {
      caddb::obs::Span span(&primary_obs_.trace, "bench.catchup");
      const uint64_t start = NowNs();
      caddb::replication::Shipper shipper(db_.get(), replica);
      Result<caddb::replication::ShipmentReport> shipped = shipper.ShipNow();
      if (!shipped.ok()) return shipped.status();
      const uint64_t shipped_at = NowNs();
      out->bytes_shipped = shipped->bytes_copied;
      caddb::replication::FollowerOptions fo;
      fo.staged_dir = staged;
      fo.obs = &follower_obs_;
      fo.durability = durability_;
      fo.durability.wal.obs = &follower_obs_;
      caddb::replication::Follower follower(replica, fo);
      for (int poll = 0; poll < 10 && !caught_up; ++poll) {
        Result<caddb::replication::PollResult> polled = follower.Poll();
        if (!polled.ok()) {
          why = polled.status().ToString();
          break;
        }
        caught_up = polled->replay_lsn >= target && follower.db() != nullptr;
      }
      const uint64_t done = NowNs();
      out->ship_ms.Add(static_cast<double>(shipped_at - start) / 1e6);
      out->rebuild_ms.Add(static_cast<double>(done - shipped_at) / 1e6);
      out->total_ms.Add(static_cast<double>(done - start) / 1e6);
      std::cerr << config_.name << ": catch-up " << r + 1 << " of " << repeats
                << ": shipped in "
                << static_cast<double>(shipped_at - start) / 1e6
                << " ms, rebuilt in "
                << static_cast<double>(done - shipped_at) / 1e6 << " ms\n";
      if (caught_up) {
        const uint64_t bad =
            VerifyAgainstModel(*follower.db(), model_, "follower", &why);
        Record(&outcome_, true, bad == 0, "follower: " + why);
      } else {
        Record(&outcome_, false, false,
               "follower did not reach lsn " + std::to_string(target) + ": " +
                   why);
      }
    }
    fs::remove_all(replica, ec);
    fs::remove_all(staged, ec);
  }
  return caddb::OkStatus();
}

Result<double> Harness::DiskBytesPerObject() {
  // The second checkpoint has nothing dirty left, so the checkpoint file
  // holds no page images and the log is empty: what remains is the store.
  CADDB_RETURN_IF_ERROR(db_->Checkpoint());
  CADDB_RETURN_IF_ERROR(db_->Checkpoint());
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(primary_dir_)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  const size_t objects = db_->store().size();
  if (objects == 0) return caddb::FailedPrecondition("no live objects");
  return static_cast<double>(bytes) / static_cast<double>(objects);
}

Status Harness::ReopenProbe(int repeats, int writes_each, Reopen* out) {
  StopServer();
  for (int r = 0; r < repeats; ++r) {
    for (int w = 0; w < writes_each; ++w) {
      CADDB_RETURN_IF_ERROR(ModelledWrite());
    }
    CADDB_RETURN_IF_ERROR(db_->Close());
    db_.reset();
    const caddb::obs::HistogramSnapshot replay_before =
        HistogramOf(&primary_obs_, "caddb_recovery_replay_us");
    {
      caddb::obs::Span span(&primary_obs_.trace, "bench.reopen");
      const uint64_t start = NowNs();
      CADDB_RETURN_IF_ERROR(OpenPrimary(/*fresh=*/false, durability_));
      const double open_ms = static_cast<double>(NowNs() - start) / 1e6;
      out->open_ms.Add(open_ms);
      std::cerr << config_.name << ": reopen " << r + 1 << " of " << repeats
                << ": " << open_ms << " ms\n";
    }
    const caddb::obs::HistogramSnapshot replay_after =
        HistogramOf(&primary_obs_, "caddb_recovery_replay_us");
    out->replay_ms.Add(
        static_cast<double>(replay_after.sum - replay_before.sum) / 1e3);
    out->records_applied = db_->recovery_report().records_applied;
    std::string why;
    const uint64_t bad = VerifyAgainstModel(*db_, model_, "reopen", &why);
    Record(&outcome_, true, bad == 0, "reopen: " + why);
  }
  return caddb::OkStatus();
}

}  // namespace ledger
