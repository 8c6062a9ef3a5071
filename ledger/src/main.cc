// caddb_ledger: the end-to-end benchmark with a per-layer ledger.
//
//   caddb_ledger --workload <shell-read|paged-embedded> --seed <n>
//                --seconds <s> --trace <0|1> [--smoke]
//                [--break-oracle <name>] [--work-dir <dir>]
//                [--trace-dir <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>

#include "ledger.h"

namespace {

const std::set<std::string>& EndToEndNames() {
  static const std::set<std::string> names = {
      "setup_s",       "ops_per_s",     "cpu_us_per_op", "read_p50_us",
      "select_p50_us", "commit_p50_us", "catchup_ms",    "reopen_ms",
      "peak_rss_mb",   "disk_bytes_per_object"};
  return names;
}

std::set<std::string> PerLayerNames() {
  std::set<std::string> names = {
      "tail.read_p99_us",
      "tail.commit_p99_us",
      "net.rtt_us",
      "net.server_request_us",
      "net.outside_us",
      "net.bytes_per_op",
      "shell.dispatch_us",
      "shell.select_us",
      "core.get_us",
      "core.set_us",
      "inherit.hop_ns",
      "inherit.resolutions_per_op",
      "inherit.notify_us",
      "catalog.schema_lookup_ns",
      "query.select_us_per_row",
      "store.get_ns",
      "store.resident_objects",
      "storage.faults_per_op",
      "storage.pool_miss_ratio",
      "storage.fault_in_us",
      "storage.evictions_per_op",
      "storage.page_writes_per_op",
      "persist.decode_us",
      "wal.fsyncs_per_commit",
      "wal.bytes_per_commit",
      "wal.commit_us",
      "wal.fsync_us",
      "wal.checkpoint_ms",
      "wal.checkpoint_pause_us",
      "wal.replay_ms",
      "wal.records_applied",
      "replication.ship_ms",
      "replication.bytes_shipped",
      "replication.rebuild_ms",
      "obs.trace_overhead",
      "obs.untraced_ops_per_s",
      "obs.traced_ops_per_s",
  };
  for (const std::string& layer : ledger::SpanLedger::Layers()) {
    names.insert("self." + layer + "_us");
  }
  return names;
}

int Usage() {
  std::cerr << "usage: caddb_ledger --workload <shell-read|paged-embedded> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--break-oracle <name>] [--work-dir <dir>] "
               "[--trace-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && (v = value())) {
      opts.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      char* end = nullptr;
      opts.seed = static_cast<uint32_t>(std::strtoul(v, &end, 10));
      if (end == v || *end != '\0') return Usage();
    } else if (arg == "--seconds" && (v = value())) {
      char* end = nullptr;
      opts.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') return Usage();
    } else if (arg == "--trace" && (v = value())) {
      opts.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--break-oracle" && (v = value())) {
      opts.break_oracle = v;
    } else if (arg == "--work-dir" && (v = value())) {
      opts.work_dir = v;
    } else if (arg == "--trace-dir" && (v = value())) {
      opts.trace_dir = v;
    } else {
      return Usage();
    }
  }
  if (!(opts.seconds > 0 && opts.seconds <= 3600)) return Usage();
  if (opts.smoke) opts.seconds = std::min(opts.seconds, 1.0);
  ledger::SetBrokenOracle(opts.break_oracle);

  ledger::RunResult result;
  int rc = 0;
  if (opts.workload == "shell-read") {
    rc = ledger::RunShellRead(opts, &result);
  } else if (opts.workload == "paged-embedded") {
    rc = ledger::RunPagedEmbedded(opts, &result);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;

  const std::set<std::string> want =
      opts.trace ? PerLayerNames() : EndToEndNames();
  for (const std::string& name : want) {
    if (result.metrics.count(name) == 0) {
      std::cerr << "metric " << name << " was not measured\n";
      return 1;
    }
  }
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    if (want.count(name) == 0) continue;
    if (!std::isfinite(value.first)) {
      std::cerr << "metric " << name << " is not finite\n";
      return 1;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
               value.second + "\"}";
  }
  const ledger::Outcome& o = result.outcome;
  std::cout << "{\"correct\": " << (o.mismatches == 0 ? "true" : "false")
            << ", \"attempted\": " << o.attempted
            << ", \"failed\": " << o.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
