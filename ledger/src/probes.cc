// Per-layer probes: single-threaded timings of calls into each module's
// public functions on the workload's own keys, plus a benchmark-side span
// around each so the traced sweep attributes self time to the layer.
#include <sstream>

#include "harness.h"
#include "query/report.h"
#include "shell/shell.h"
#include "store/object_codec.h"

namespace ledger {

using caddb::Result;
using caddb::Status;
using caddb::Value;

namespace {

double NsSince(uint64_t t0) { return static_cast<double>(NowNs() - t0); }

/// Least-squares slope of y over x.
double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  return den != 0 ? (n * sxy - sx * sy) / den : 0;
}

}  // namespace

Status Harness::LayerProbes(double scale, RunResult* out) {
  auto count = [scale](int full, int floor) {
    return std::max(floor, static_cast<int>(full * scale));
  };
  auto put = [out](const std::string& name, double v, const std::string& unit) {
    out->Set(name, v, unit);
  };
  if (model_.chains.empty() || model_.structures.empty()) {
    return caddb::FailedPrecondition("probes need chains and a steel yard");
  }
  caddb::obs::Tracer* tracer = &primary_obs_.trace;
  // The workload's read keys: chain nodes at every depth.
  std::vector<std::pair<const ChainModel*, int>> keys;
  for (int i = 0; i < 256; ++i) {
    const ChainModel& chain = model_.chains[rng_() % model_.chains.size()];
    keys.emplace_back(&chain, 1 + static_cast<int>(
                                      rng_() %
                                      static_cast<uint64_t>(model_.depth)));
  }
  auto node_of = [](const std::pair<const ChainModel*, int>& k) {
    return k.first->nodes[static_cast<size_t>(k.second)];
  };

  // ---- net: echo and get round trips over one session ----
  if (server_ == nullptr) CADDB_RETURN_IF_ERROR(StartServer());
  caddb::net::Client* client = client_.get();
  const int wire_n = count(2000, 20);
  {
    Samples rtt;
    std::string reply;
    for (int i = 0; i < wire_n; ++i) {
      caddb::obs::Span span(tracer, "bench.echo");
      const uint64_t t0 = NowNs();
      const bool ok = WireExecute(client, "echo ledger", &reply);
      rtt.Add(NsSince(t0) / 1e3);
      if (!ok) return caddb::InternalError("echo failed: " + reply);
    }
    put("net.rtt_us", rtt.Median(), "us");
  }
  {
    const caddb::obs::HistogramSnapshot before =
        HistogramOf(&primary_obs_, "caddb_net_request_us");
    const caddb::net::ServerStats s0 = server_->stats();
    Samples get_us;
    std::string reply;
    for (int i = 0; i < wire_n; ++i) {
      const auto& key = keys[static_cast<size_t>(i) % keys.size()];
      const std::string line = "get @" + std::to_string(node_of(key).id) + " A";
      bool ok;
      {
        caddb::obs::Span span(tracer, "bench.get");
        const uint64_t t0 = NowNs();
        ok = WireExecute(client, line, &reply);
        get_us.Add(NsSince(t0) / 1e3);
      }
      int64_t v = 0;
      Record(&outcome_, ok,
             ok && ParseIntReply(reply, &v) &&
                 v == Expect(key.first->root_value, "get"),
             line + " -> " + reply);
    }
    const caddb::net::ServerStats s1 = server_->stats();
    const double server_p50 = HistogramDeltaPercentile(
        before, HistogramOf(&primary_obs_, "caddb_net_request_us"), 0.5);
    put("net.server_request_us", server_p50, "us");
    put("net.outside_us", get_us.Median() - server_p50, "us");
    const double requests = static_cast<double>(s1.requests - s0.requests);
    put("net.bytes_per_op",
        requests > 0 ? static_cast<double>(s1.bytes_in + s1.bytes_out -
                                           s0.bytes_in - s0.bytes_out) /
                           requests
                     : 0,
        "B");
  }

  // ---- core and shell: the same gets in-process ----
  const int local_n = count(4000, 40);
  Samples core_get_ns;
  for (int i = 0; i < local_n; ++i) {
    const auto& key = keys[static_cast<size_t>(i) % keys.size()];
    Result<Value> v = Value::Null();
    {
      caddb::obs::Span span(tracer, "core.get");
      const uint64_t t0 = NowNs();
      v = db_->Get(node_of(key), "A");
      core_get_ns.Add(NsSince(t0));
    }
    Record(&outcome_, v.ok(),
           v.ok() && v->kind() == Value::Kind::kInt &&
               v->AsInt() == Expect(key.first->root_value, "get"),
           "core get");
  }
  put("core.get_us", core_get_ns.Median() / 1e3, "us");
  caddb::shell::Shell shell(db_.get());
  {
    Samples shell_ns;
    std::ostringstream sink;
    for (int i = 0; i < local_n; ++i) {
      const auto& key = keys[static_cast<size_t>(i) % keys.size()];
      const std::string line = "get @" + std::to_string(node_of(key).id) + " A";
      sink.str("");
      caddb::obs::Span span(tracer, "shell.get");
      const uint64_t t0 = NowNs();
      shell.ExecuteLine(line, sink);
      shell_ns.Add(NsSince(t0));
    }
    put("shell.dispatch_us", (shell_ns.Median() - core_get_ns.Median()) / 1e3,
        "us");
  }
  {
    const int n = count(100, 4);
    Samples shell_select_us, row_us;
    std::ostringstream sink;
    for (int i = 0; i < n; ++i) {
      const int lot = i % model_.lots;
      sink.str("");
      {
        caddb::obs::Span span(tracer, "shell.select");
        const uint64_t t0 = NowNs();
        shell.ExecuteLine("select " + Model::LotName(lot) + " Girders.Length",
                          sink);
        shell_select_us.Add(NsSince(t0) / 1e3);
      }
      std::string why;
      Record(&outcome_, true, CheckSelectTable(sink.str(), model_, lot, &why),
             "shell select: " + why);
      caddb::obs::Span span(tracer, "query.select");
      const uint64_t t0 = NowNs();
      Result<std::vector<Surrogate>> hits =
          db_->query().SelectFromClass(Model::LotName(lot), nullptr);
      if (!hits.ok()) return hits.status();
      Result<caddb::Table> table =
          caddb::Project(db_->inheritance(), *hits, {"Girders.Length"});
      if (!table.ok()) return table.status();
      row_us.Add(NsSince(t0) / 1e3 /
                 static_cast<double>(std::max<size_t>(1, table->rows.size())));
    }
    put("shell.select_us", shell_select_us.Median(), "us");
    put("query.select_us_per_row", row_us.Median(), "us");
  }

  // ---- inherit: resolution time over depth 0..depth ----
  {
    const int n = count(1000, 20);
    std::vector<double> depth, ns;
    for (int d = 0; d <= model_.depth; ++d) {
      Samples at;
      for (int i = 0; i < n; ++i) {
        const ChainModel& chain =
            model_.chains[static_cast<size_t>(i) % model_.chains.size()];
        const uint64_t t0 = NowNs();
        Result<Value> v = db_->inheritance().GetAttribute(
            chain.nodes[static_cast<size_t>(d)], "A");
        at.Add(NsSince(t0));
        if (!v.ok()) return v.status();
      }
      depth.push_back(d);
      ns.push_back(at.Median());
    }
    put("inherit.hop_ns", Slope(depth, ns), "ns");
  }

  // ---- catalog and store: batches of cheap lookups ----
  constexpr int kBatch = 64;
  {
    const caddb::Catalog& catalog = db_->catalog();
    std::vector<std::string> types;
    for (int d = 0; d <= model_.depth; ++d) {
      types.push_back("HL" + std::to_string(d));
    }
    types.push_back("WeightCarrying_Structure");
    types.push_back("GirderInterface");
    Samples per_call;
    for (int b = 0; b < count(500, 10); ++b) {
      caddb::obs::Span span(tracer, "catalog.find_schema");
      const uint64_t t0 = NowNs();
      for (int i = 0; i < kBatch; ++i) {
        Result<const caddb::EffectiveSchema*> schema =
            catalog.FindEffectiveSchema(
                types[static_cast<size_t>(i) % types.size()]);
        if (!schema.ok()) return schema.status();
      }
      per_call.Add(NsSince(t0) / kBatch);
    }
    put("catalog.schema_lookup_ns", per_call.Median(), "ns");
  }
  {
    const caddb::ObjectStore& store = db_->store();
    for (const auto& key : keys) (void)store.Get(node_of(key));  // resident
    Samples per_call;
    for (int b = 0; b < count(500, 10); ++b) {
      caddb::obs::Span span(tracer, "store.get");
      const uint64_t t0 = NowNs();
      for (int i = 0; i < kBatch; ++i) {
        const auto& key =
            keys[static_cast<size_t>(b * kBatch + i) % keys.size()];
        if (!store.Get(node_of(key)).ok()) {
          return caddb::InternalError("store get failed");
        }
      }
      per_call.Add(NsSince(t0) / kBatch);
    }
    put("store.get_ns", per_call.Median(), "ns");
  }

  // ---- persist: decoding the yard's object payloads ----
  {
    std::vector<std::string> payloads;
    for (size_t i = 0;
         i < model_.structures.size() && payloads.size() < 512; ++i) {
      const StructureModel& st = model_.structures[i];
      for (Surrogate s : {st.id, st.girders.front()}) {
        Result<const caddb::DbObject*> object = db_->store().Get(s);
        if (!object.ok()) return object.status();
        payloads.push_back(caddb::store_codec::EncodeObjectPayload(**object));
      }
    }
    Samples decode_us;
    for (int i = 0; i < count(2000, 20); ++i) {
      caddb::obs::Span span(tracer, "persist.decode");
      const uint64_t t0 = NowNs();
      Result<std::unique_ptr<caddb::DbObject>> decoded =
          caddb::store_codec::DecodeObjectPayload(
              payloads[static_cast<size_t>(i) % payloads.size()]);
      decode_us.Add(NsSince(t0) / 1e3);
      if (!decoded.ok()) return decoded.status();
    }
    put("persist.decode_us", decode_us.Median(), "us");
  }

  // ---- core writes: a leaf's own attribute vs a root with inheritors ----
  {
    const int n = count(1000, 20);
    Samples set_us;
    for (int i = 0; i < n; ++i) {
      ChainModel& chain = model_.chains[rng_() % model_.chains.size()];
      const int64_t v = static_cast<int64_t>(rng_() % 1000000);
      caddb::obs::Span span(tracer, "core.set");
      const uint64_t t0 = NowNs();
      Status s = db_->Set(chain.nodes[0], "A", Value::Int(v));
      set_us.Add(NsSince(t0) / 1e3);
      if (!s.ok()) return s;
      chain.root_value = v;
    }
    put("core.set_us", set_us.Median(), "us");

    // A transmitter with kFanOut direct inheritors, built for this probe.
    constexpr int kFanOut = 32;
    CADDB_ASSIGN_OR_RETURN(Surrogate root, db_->CreateObject("HL0"));
    for (int k = 0; k < kFanOut; ++k) {
      CADDB_ASSIGN_OR_RETURN(Surrogate inheritor, db_->CreateObject("HL1"));
      CADDB_RETURN_IF_ERROR(db_->Bind(inheritor, root, "HR1").status());
    }
    const std::string leaf_attr = "C" + std::to_string(model_.depth);
    Samples fan_us, leaf_us;
    for (int i = 0; i < n; ++i) {
      {
        caddb::obs::Span span(tracer, "core.set");
        const uint64_t t0 = NowNs();
        Status s = db_->Set(root, "A", Value::Int(i));
        fan_us.Add(NsSince(t0) / 1e3);
        if (!s.ok()) return s;
      }
      const ChainModel& chain = model_.chains[rng_() % model_.chains.size()];
      caddb::obs::Span span(tracer, "core.set");
      const uint64_t t0 = NowNs();
      Status s = db_->Set(chain.nodes.back(), leaf_attr, Value::Int(i));
      leaf_us.Add(NsSince(t0) / 1e3);
      if (!s.ok()) return s;
    }
    put("inherit.notify_us", fan_us.Median() - leaf_us.Median(), "us");
  }

  // ---- wal: checkpoint after a fixed batch of writes ----
  {
    Samples checkpoint_ms;
    for (int r = 0; r < count(10, 3); ++r) {
      for (int w = 0; w < 50; ++w) CADDB_RETURN_IF_ERROR(ModelledWrite());
      caddb::obs::Span span(tracer, "bench.checkpoint");
      const uint64_t t0 = NowNs();
      CADDB_RETURN_IF_ERROR(db_->Checkpoint());
      checkpoint_ms.Add(NsSince(t0) / 1e6);
    }
    put("wal.checkpoint_ms", checkpoint_ms.Median(), "ms");
  }

  // ---- storage: a Get that faults the object in vs the same Get resident.
  // Everything is clean after the checkpoint above; two trims to 0 page out
  // every object (the first spends the second chances).
  {
    (void)db_->store().TrimResident(0);
    (void)db_->store().TrimResident(0);
    Samples fault_us, resident_us;
    const int n = std::min<int>(count(200, 10),
                                static_cast<int>(model_.chains.size()));
    for (int i = 0; i < n; ++i) {
      const ChainModel& chain = model_.chains[static_cast<size_t>(i)];
      for (Samples* into : {&fault_us, &resident_us}) {
        caddb::obs::Span span(tracer, "storage.fault_in");
        const uint64_t t0 = NowNs();
        Result<Value> v = db_->Get(chain.nodes[0], "A");
        into->Add(NsSince(t0) / 1e3);
        if (!v.ok()) return v.status();
      }
    }
    put("storage.fault_in_us", fault_us.Median() - resident_us.Median(), "us");
  }
  return caddb::OkStatus();
}

}  // namespace ledger
