// The workloads' timed phases and the assembly of their metrics.
//
//   shell-read      one in-process thread driving the shell dispatcher a
//                   server session runs: inherited gets at depths 1..8 plus
//                   a few percent selects over one lot of the steel yard.
//   paged-embedded  one in-process thread navigating a steel yard larger
//                   than the resident budget and the buffer pool, with 5%
//                   writes and an inline checkpoint every 250 writes.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iostream>

#include "harness.h"
#include "shell/shell.h"

namespace ledger {

using caddb::Result;
using caddb::Status;
using caddb::Value;

namespace {

/// A timed phase is cut into equal windows of about a second; an operation
/// belongs to the window it completes in. Rates, CPU per operation and read
/// percentiles are reported as the median over the windows, so a burst of
/// interference from outside the program moves one window, not the result.
struct Windows {
  uint64_t start = 0;
  uint64_t width = 1;
  size_t count = 1;
  Windows(uint64_t start_ns, double seconds)
      : start(start_ns),
        count(std::max<size_t>(1, static_cast<size_t>(seconds + 0.5))) {
    width = static_cast<uint64_t>(seconds * 1e9) / count;
  }
  uint64_t end() const { return start + width * count; }
  size_t Of(uint64_t now) const {
    return std::min<size_t>(count - 1, (now - start) / width);
  }
};

double MedianOf(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Median();
}

/// What one timed phase did.
struct Phase {
  double window_s = 1;
  std::vector<uint64_t> ops;  // per window
  std::vector<double> cpu_s;  // per window
  double peak_rss_mb = 0;
  std::vector<Samples> read_us, commit_us;  // per window
  Samples select_us, checkpoint_ms;
  Outcome outcome;

  void Start(const Windows& windows) {
    window_s = static_cast<double>(windows.width) / 1e9;
    ops.assign(windows.count, 0);
    read_us.assign(windows.count, Samples());
    commit_us.assign(windows.count, Samples());
  }
  uint64_t total_ops() const {
    uint64_t n = 0;
    for (uint64_t o : ops) n += o;
    return n;
  }
  double ops_per_s() const {
    std::vector<double> v;
    for (uint64_t o : ops) v.push_back(static_cast<double>(o) / window_s);
    return MedianOf(v);
  }
  double cpu_us_per_op() const {
    std::vector<double> v;
    for (size_t w = 0; w < ops.size(); ++w) {
      if (ops[w] > 0) v.push_back(cpu_s[w] * 1e6 / static_cast<double>(ops[w]));
    }
    return MedianOf(v);
  }
  static double WindowQuantile(const std::vector<Samples>& per_window,
                               double q) {
    std::vector<double> v;
    for (const Samples& s : per_window) {
      if (s.size() > 0) v.push_back(s.Quantile(q));
    }
    return MedianOf(v);
  }
  static Samples All(const std::vector<Samples>& per_window) {
    Samples all;
    for (const Samples& s : per_window) all.Append(s);
    return all;
  }
  /// Commit percentiles: the median over windows when every window has
  /// enough commits for its p99 to have ten samples beyond it, else over
  /// the whole phase.
  double CommitQuantile(double q) const {
    for (const Samples& s : commit_us) {
      if (s.size() < 1000) return All(commit_us).Quantile(q);
    }
    return WindowQuantile(commit_us, q);
  }
  size_t commits() const { return All(commit_us).size(); }
};

/// Per-window process CPU for a phase run on the calling thread, and the
/// phase's highest resident set: Tick after each operation closes every
/// window boundary it has passed and samples the resident set every
/// kRssEvery operations and at every boundary.
class PhaseSampler {
 public:
  explicit PhaseSampler(const Windows& windows)
      : windows_(windows), mark_(CpuSeconds()) {}
  void Tick(uint64_t now, Phase* phase) {
    if (++ticks_ % kRssEvery == 0) SampleRss(phase);
    const size_t w = windows_.Of(now);
    while (closed_ < w || (now >= windows_.end() && closed_ < windows_.count)) {
      const double c = CpuSeconds();
      phase->cpu_s.push_back(c - mark_);
      mark_ = c;
      ++closed_;
      SampleRss(phase);
    }
  }

 private:
  static constexpr uint64_t kRssEvery = 256;
  static void SampleRss(Phase* phase) {
    phase->peak_rss_mb = std::max(phase->peak_rss_mb, ResidentMb());
  }
  const Windows& windows_;
  double mark_;
  size_t closed_ = 0;
  uint64_t ticks_ = 0;
};

using TimedFn = std::function<Status(Harness&, double seconds, Phase*)>;

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

// ---- shell-read ----

// Selects take about half the time of the workload: a select costs as much
// as ~300 gets.
constexpr uint64_t kShellSelectPermille = 4;

/// One read operation through the shell: a select of a random lot, or a get
/// of a random chain node at depth 1..8, checked against the model. Returns
/// its completion time.
uint64_t ReadOp(const Model& m, std::mt19937_64& rng,
                caddb::shell::Shell* shell, caddb::obs::Tracer* tracer,
                const Windows& windows, Phase* phase, std::string* reply) {
  uint64_t now = 0;
  if (rng() % 1000 < kShellSelectPermille) {
    const int lot = static_cast<int>(rng() % static_cast<uint64_t>(m.lots));
    const std::string line =
        "select " + Model::LotName(lot) + " Girders.Length";
    bool ok;
    {
      caddb::obs::Span span(tracer, "bench.select");
      const uint64_t t0 = NowNs();
      ok = ShellExecute(shell, line, reply);
      now = NowNs();
      phase->select_us.Add(Us(now - t0));
    }
    std::string why;
    const bool value_ok = ok && CheckSelectTable(*reply, m, lot, &why);
    Record(&phase->outcome, ok, value_ok, ok ? why : *reply);
  } else {
    const ChainModel& chain = m.chains[rng() % m.chains.size()];
    const size_t depth = 1 + rng() % static_cast<uint64_t>(m.depth);
    const std::string line =
        "get @" + std::to_string(chain.nodes[depth].id) + " A";
    bool ok;
    {
      caddb::obs::Span span(tracer, "bench.get");
      const uint64_t t0 = NowNs();
      ok = ShellExecute(shell, line, reply);
      now = NowNs();
      phase->read_us[windows.Of(now)].Add(Us(now - t0));
    }
    int64_t v = 0;
    const bool value_ok = ok && ParseIntReply(*reply, &v) &&
                          v == Expect(chain.root_value, "get");
    Record(&phase->outcome, ok, value_ok, line + " -> " + *reply);
  }
  ++phase->ops[windows.Of(now)];
  return now;
}

Status ShellReadPhase(Harness& h, double seconds, Phase* phase) {
  caddb::shell::Shell shell(h.db());
  std::mt19937_64 rng(h.opts().seed * 1000003ull + 15485863ull);
  std::string reply;
  const Windows windows(NowNs(), seconds);
  phase->Start(windows);
  PhaseSampler sampler(windows);
  uint64_t now = NowNs();
  while (now < windows.end()) {
    now = ReadOp(h.model(), rng, &shell, &h.primary_obs()->trace, windows,
                 phase, &reply);
    sampler.Tick(now, phase);
  }
  return caddb::OkStatus();
}

// ---- paged-embedded ----

constexpr uint64_t kPagedWritePermille = 50;
constexpr uint64_t kPagedCheckpointEvery = 250;  // writes
constexpr uint64_t kPagedHotPermille = 900;      // navigations on the hot tenth

Status PagedPhase(Harness& h, double seconds, Phase* phase) {
  Model& m = h.model();
  Database* db = h.db();
  std::mt19937_64 rng(h.opts().seed * 1000003ull + 104729ull);
  // A seeded permutation decides which tenth of the structures is hot.
  std::vector<size_t> order(m.structures.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  const size_t hot = std::max<size_t>(1, order.size() / 10);
  caddb::obs::Tracer* tracer = &h.primary_obs()->trace;
  uint64_t writes = 0;
  std::vector<int64_t> lengths_seen;

  const Windows windows(NowNs(), seconds);
  phase->Start(windows);
  PhaseSampler sampler(windows);
  uint64_t now = NowNs();
  while (now < windows.end()) {
    if (rng() % 1000 < kPagedWritePermille) {
      Status s;
      std::string what;
      {
        caddb::obs::Span span(tracer, "bench.set");
        if (writes % 2 == 0) {
          const size_t i = rng() % m.ifaces.size();
          const int64_t v = m.NewLength(i, &rng);
          const uint64_t t0 = NowNs();
          s = db->Set(m.ifaces[i], "Length", Value::Int(v));
          now = NowNs();
          phase->commit_us[windows.Of(now)].Add(Us(now - t0));
          if (s.ok()) m.iface_length[i] = v;
          what = "set interface Length";
        } else {
          StructureModel& st = m.structures[order[rng() % order.size()]];
          std::string v = "designer-" + std::to_string(rng() % 1000000);
          const uint64_t t0 = NowNs();
          s = db->Set(st.id, "Designer", Value::String(v));
          now = NowNs();
          phase->commit_us[windows.Of(now)].Add(Us(now - t0));
          if (s.ok()) st.designer = std::move(v);
          what = "set structure Designer";
        }
      }
      Record(&phase->outcome, s.ok(), s.ok(), what + ": " + s.ToString());
      if (++writes % kPagedCheckpointEvery == 0) {
        const uint64_t t0 = NowNs();
        CADDB_RETURN_IF_ERROR(db->Checkpoint());
        now = NowNs();
        phase->checkpoint_ms.Add(static_cast<double>(now - t0) / 1e6);
      }
    } else {
      const size_t pick = rng() % 1000 < kPagedHotPermille
                              ? order[rng() % hot]
                              : order[rng() % order.size()];
      const StructureModel& st = m.structures[pick];
      // One navigation: structure -> Girders -> inherited interface Length.
      bool ok = true;
      Result<Value> designer = Value::Null();
      Result<std::vector<Surrogate>> girders = std::vector<Surrogate>{};
      lengths_seen.clear();
      {
        caddb::obs::Span span(tracer, "bench.navigate");
        const uint64_t t0 = NowNs();
        designer = db->Get(st.id, "Designer");
        girders = db->Subclass(st.id, "Girders");
        if (girders.ok()) {
          for (Surrogate g : *girders) {
            Result<Value> length = db->Get(g, "Length");
            if (!length.ok() || length->kind() != Value::Kind::kInt) {
              ok = false;
              break;
            }
            lengths_seen.push_back(length->AsInt());
          }
        }
        now = NowNs();
        phase->read_us[windows.Of(now)].Add(Us(now - t0));
      }
      ok = ok && designer.ok() && girders.ok();
      bool value_ok = ok && designer->kind() == Value::Kind::kString &&
                      designer->AsString() == st.designer &&
                      girders->size() == st.girders.size();
      // Subclass members come in creation order, which is the model's.
      for (size_t g = 0; g < st.girders.size() && value_ok; ++g) {
        value_ok = (*girders)[g].id == st.girders[g].id &&
                   lengths_seen[g] ==
                       Expect(m.iface_length[st.girder_iface[g]], "nav");
      }
      Record(&phase->outcome, ok, value_ok,
             "navigate @" + std::to_string(st.id.id));
    }
    ++phase->ops[windows.Of(now)];
    sampler.Tick(now, phase);
  }
  return caddb::OkStatus();
}

// ---- Shared run assembly ----

struct Counters {
  uint64_t resolutions = 0;
  caddb::Database::StorageStats storage;
  caddb::wal::WalStats wal;
  caddb::obs::HistogramSnapshot fsync, pause, append;
};

Counters Capture(Harness& h) {
  Counters c;
  caddb::obs::Observability* obs = h.primary_obs();
  c.resolutions = CounterOf(obs, "caddb_inherit_resolutions_total");
  c.storage = h.db()->storage_stats();
  c.wal = h.db()->wal()->stats();
  c.fsync = HistogramOf(obs, "caddb_wal_fsync_us");
  c.pause = HistogramOf(obs, "caddb_wal_checkpoint_pause_us");
  c.append = HistogramOf(obs, "caddb_wal_append_us");
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Repeats {
  int setups, catchups, reopens, selects, commits;
};

Status Untraced(Harness& h, const TimedFn& timed, RunResult* result) {
  const Options& opts = h.opts();
  const WorkloadConfig& c = h.config();
  const Repeats rep =
      opts.smoke ? Repeats{1, 1, 1, 4, 40}
                 : Repeats{c.setups, c.catchups, c.reopens,
                           c.select_probes, 10000};
  CADDB_RETURN_IF_ERROR(h.Setup(rep.setups));
  // Hand the memory the earlier set-ups freed back to the system, so the
  // timed phase's resident set is what the workload keeps live.
  malloc_trim(0);
  Phase p;
  CADDB_RETURN_IF_ERROR(timed(h, opts.seconds, &p));
  h.outcome().Merge(p.outcome);

  Samples select_us = p.select_us;
  if (select_us.size() == 0) {
    CADDB_RETURN_IF_ERROR(h.SelectProbe(rep.selects, &select_us));
  }
  double commit_p50 = p.CommitQuantile(0.5);
  size_t commits = p.commits();
  if (commits == 0) {
    // Read-only timed phase: 10 groups of commit round trips, each group's
    // median taken apart and the median of those reported, like windows.
    std::vector<Samples> commit_us;
    CADDB_RETURN_IF_ERROR(h.CommitProbe(10, rep.commits / 10, &commit_us));
    commit_p50 = Phase::WindowQuantile(commit_us, 0.5);
    commits = Phase::All(commit_us).size();
  }
  Harness::CatchUp catchup;
  CADDB_RETURN_IF_ERROR(h.CatchUpProbe(rep.catchups, &catchup));
  CADDB_ASSIGN_OR_RETURN(double disk, h.DiskBytesPerObject());
  Harness::Reopen reopen;
  CADDB_RETURN_IF_ERROR(h.ReopenProbe(rep.reopens, 200, &reopen));

  result->Set("setup_s", h.setup_seconds().Median(), "s");
  result->Set("ops_per_s", p.ops_per_s(), "1/s");
  result->Set("cpu_us_per_op", p.cpu_us_per_op(), "us");
  result->Set("read_p50_us", Phase::WindowQuantile(p.read_us, 0.5), "us");
  result->Set("select_p50_us", select_us.Quantile(0.5), "us");
  result->Set("commit_p50_us", commit_p50, "us");
  result->Set("catchup_ms", catchup.total_ms.Median(), "ms");
  result->Set("reopen_ms", reopen.open_ms.Median(), "ms");
  result->Set("peak_rss_mb", p.peak_rss_mb, "MB");
  result->Set("disk_bytes_per_object", disk, "B");
  std::cerr << h.config().name << ": " << p.total_ops() << " ops, "
            << Phase::All(p.read_us).size() << " reads, " << select_us.size()
            << " selects, " << commits << " commits, "
            << p.checkpoint_ms.size() << " checkpoints; ops per window:";
  for (uint64_t o : p.ops) std::cerr << " " << o;
  std::cerr << "\n";
  return caddb::OkStatus();
}

Status Traced(Harness& h, const TimedFn& timed, RunResult* result) {
  const Options& opts = h.opts();
  CADDB_RETURN_IF_ERROR(h.Setup(1));

  // Untraced half: the base for the trace overhead, and the counters.
  const Counters c0 = Capture(h);
  Phase base;
  CADDB_RETURN_IF_ERROR(timed(h, opts.seconds / 2, &base));
  h.outcome().Merge(base.outcome);
  const Counters c1 = Capture(h);

  // Traced half, then the end-of-run probes, still traced.
  h.spans().Enable(true);
  Phase traced;
  CADDB_RETURN_IF_ERROR(timed(h, opts.seconds / 2, &traced));
  h.outcome().Merge(traced.outcome);
  const caddb::Database::StorageStats end_storage = h.db()->storage_stats();
  Samples select_us;
  double commit_p99 = base.CommitQuantile(0.99);
  if (base.select_us.size() == 0) {
    CADDB_RETURN_IF_ERROR(h.SelectProbe(opts.smoke ? 4 : 20, &select_us));
  }
  if (base.commits() == 0) {
    std::vector<Samples> commit_us;
    CADDB_RETURN_IF_ERROR(
        h.CommitProbe(2, opts.smoke ? 20 : 1000, &commit_us));
    commit_p99 = Phase::WindowQuantile(commit_us, 0.99);
  }
  const Counters c2 = Capture(h);
  Harness::CatchUp catchup;
  CADDB_RETURN_IF_ERROR(h.CatchUpProbe(2, &catchup));
  Harness::Reopen reopen;
  CADDB_RETURN_IF_ERROR(h.ReopenProbe(2, 200, &reopen));
  h.spans().Enable(false);

  // Per-layer timings untraced, then a short traced sweep for the spans of
  // the layers the timed phase does not reach.
  CADDB_RETURN_IF_ERROR(h.LayerProbes(opts.smoke ? 0.05 : 1.0, result));
  h.spans().Enable(true);
  RunResult traced_probes;
  CADDB_RETURN_IF_ERROR(h.LayerProbes(0.05, &traced_probes));
  h.spans().Enable(false);

  const double ops = static_cast<double>(base.total_ops());
  result->Set("tail.read_p99_us", Phase::WindowQuantile(base.read_us, 0.99),
              "us");
  result->Set("tail.commit_p99_us", commit_p99, "us");
  result->Set("inherit.resolutions_per_op",
              Ratio(static_cast<double>(c1.resolutions - c0.resolutions), ops),
              "count");
  const double hits =
      static_cast<double>(c1.storage.pool.hits - c0.storage.pool.hits);
  const double misses =
      static_cast<double>(c1.storage.pool.misses - c0.storage.pool.misses);
  result->Set("storage.faults_per_op", Ratio(hits + misses, ops), "count");
  result->Set("storage.pool_miss_ratio", Ratio(misses, hits + misses), "ratio");
  result->Set("storage.evictions_per_op",
              Ratio(static_cast<double>(c1.storage.pool.evictions -
                                        c0.storage.pool.evictions),
                    ops),
              "count");
  result->Set("storage.page_writes_per_op",
              Ratio(static_cast<double>(c1.storage.page_writes -
                                        c0.storage.page_writes),
                    ops),
              "count");
  result->Set("store.resident_objects",
              static_cast<double>(end_storage.resident_objects), "count");
  const double commits = static_cast<double>(c2.wal.commits - c0.wal.commits);
  result->Set("wal.fsyncs_per_commit",
              Ratio(static_cast<double>(c2.wal.fsyncs - c0.wal.fsyncs),
                    commits),
              "count");
  result->Set("wal.bytes_per_commit",
              Ratio(static_cast<double>(c2.wal.bytes_appended -
                                        c0.wal.bytes_appended),
                    commits),
              "B");
  const Counters end = Capture(h);
  // Auto-committed operations are the only log appends here, and the
  // append histogram fills only while tracing is on.
  result->Set("wal.commit_us",
              HistogramDeltaPercentile(c0.append, end.append, 0.5), "us");
  result->Set("wal.fsync_us",
              HistogramDeltaPercentile(c0.fsync, end.fsync, 0.5), "us");
  result->Set("wal.checkpoint_pause_us",
              HistogramDeltaPercentile(c0.pause, end.pause, 0.99), "us");
  result->Set("wal.replay_ms", reopen.replay_ms.Median(), "ms");
  result->Set("wal.records_applied",
              static_cast<double>(reopen.records_applied), "count");
  result->Set("replication.ship_ms", catchup.ship_ms.Median(), "ms");
  result->Set("replication.bytes_shipped",
              static_cast<double>(catchup.bytes_shipped), "B");
  result->Set("replication.rebuild_ms", catchup.rebuild_ms.Median(), "ms");
  result->Set("obs.untraced_ops_per_s", base.ops_per_s(), "1/s");
  result->Set("obs.traced_ops_per_s", traced.ops_per_s(), "1/s");
  result->Set("obs.trace_overhead",
              Ratio(traced.ops_per_s(), base.ops_per_s()), "ratio");
  const std::map<std::string, double> self = h.spans().MeanSelfUsByLayer();
  for (const std::string& layer : SpanLedger::Layers()) {
    auto it = self.find(layer);
    result->Set("self." + layer + "_us", it == self.end() ? 0 : it->second,
                "us");
  }

  std::error_code ec;
  std::filesystem::create_directories(opts.trace_dir, ec);
  // One file per workload, replaced by its next traced run: a run's spans
  // take tens of MB.
  const std::string path = opts.trace_dir + "/" + h.config().name + ".jsonl";
  Status written = h.spans().Write(path);
  if (!written.ok()) std::cerr << written.ToString() << "\n";
  std::cerr << h.config().name << " traced: " << h.spans().spans()
            << " spans, written to " << path << "\n";
  return caddb::OkStatus();
}

int Run(const Options& opts, const WorkloadConfig& config, const TimedFn& timed,
        RunResult* result) {
  Harness h(opts, config);
  Status s = opts.trace ? Traced(h, timed, result) : Untraced(h, timed, result);
  result->outcome = h.outcome();
  if (!s.ok()) {
    std::cerr << config.name << ": " << s.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int RunShellRead(const Options& opts, RunResult* result) {
  WorkloadConfig c;
  c.name = "shell-read";
  c.sizes.chains = opts.smoke ? 40 : 2000;
  c.sizes.structures = opts.smoke ? 20 : 300;
  c.sizes.lot_size = opts.smoke ? 10 : 300;
  c.sizes.girder_ifaces = 16;
  return Run(opts, c, ShellReadPhase, result);
}

int RunPagedEmbedded(const Options& opts, RunResult* result) {
  WorkloadConfig c;
  c.name = "paged-embedded";
  c.sizes.chains = opts.smoke ? 8 : 64;
  c.sizes.structures = opts.smoke ? 200 : 3000;
  c.sizes.lot_size = opts.smoke ? 50 : 300;
  c.sizes.girder_ifaces = 64;
  c.resident_budget = opts.smoke ? 100 : 2000;
  c.pool_pages = opts.smoke ? 16 : 256;
  c.setups = 5;
  // A catch-up rebuilds all 52 k objects and its time varies by ~20% from
  // one repeat to the next, so it takes more repeats than a reopen.
  c.catchups = 9;
  c.reopens = 5;
  c.select_probes = 200;
  return Run(opts, c, PagedPhase, result);
}

}  // namespace ledger
