#include <fstream>
#include <tuple>

#include "ledger.h"

namespace ledger {

namespace {

/// Spans beyond this many are aggregated but not retained for the file.
constexpr size_t kKeepSpans = 500000;

/// Layer of a span name: the part before the first dot, except that the
/// wire is split into its client and server halves.
std::string LayerOf(const std::string& name) {
  if (name == "net.client.execute") return "net_client";
  if (name == "net.request") return "net_server";
  return name.substr(0, name.find('.'));
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& SpanLedger::Layers() {
  static const std::vector<std::string> layers = {
      "bench",   "net_client", "net_server", "shell",   "core",
      "inherit", "catalog",    "query",      "store",   "storage",
      "persist", "wal",        "recovery",   "replication"};
  return layers;
}

SpanLedger::~SpanLedger() {
  for (const auto& [obs, token] : attached_) obs->trace.RemoveObserver(token);
}

void SpanLedger::Attach(caddb::obs::Observability* obs) {
  const int tracer = static_cast<int>(attached_.size());
  const int token = obs->trace.AddObserver(
      [this, tracer](const caddb::obs::SpanRecord& r) { OnSpan(tracer, r); });
  attached_.emplace_back(obs, token);
}

void SpanLedger::Enable(bool on) {
  for (const auto& [obs, token] : attached_) {
    if (on) {
      obs->trace.Enable();
    } else {
      obs->trace.Disable();
    }
  }
}

void SpanLedger::OnSpan(int tracer, const caddb::obs::SpanRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  // Children finish before the span that caused them, so by now every
  // child has added its duration under this span's key.
  uint64_t children = 0;
  auto it = child_us_.find(std::make_tuple(tracer, r.id, r.trace_id));
  if (it != child_us_.end()) {
    children = it->second;
    child_us_.erase(it);
  }
  const uint64_t self = r.duration_us > children ? r.duration_us - children : 0;
  if (r.parent_id != 0) {
    child_us_[std::make_tuple(tracer, r.parent_id, r.trace_id)] +=
        r.duration_us;
  }
  Agg& agg = by_layer_[LayerOf(r.name)];
  ++agg.spans;
  agg.self_us += static_cast<double>(self);
  if (kept_.size() < kKeepSpans) {
    auto [name, added] = name_index_.emplace(
        r.name, static_cast<uint32_t>(names_.size()));
    if (added) names_.push_back(r.name);
    kept_.push_back(Kept{r.id, r.parent_id, r.trace_id, r.start_us,
                         r.duration_us, self, name->second, tracer});
  }
}

std::map<std::string, double> SpanLedger::MeanSelfUsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [layer, agg] : by_layer_) {
    out[layer] =
        agg.spans == 0 ? 0 : agg.self_us / static_cast<double>(agg.spans);
  }
  return out;
}

uint64_t SpanLedger::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

caddb::Status SpanLedger::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return caddb::InternalError("cannot write " + path);
  for (const Kept& k : kept_) {
    out << "{\"tracer\":" << k.tracer << ",\"trace\":" << k.trace
        << ",\"id\":" << k.id << ",\"parent\":" << k.parent << ",\"name\":\""
        << JsonEscape(names_[k.name]) << "\",\"start_us\":" << k.start_us
        << ",\"duration_us\":" << k.duration_us << ",\"self_us\":" << k.self_us
        << "}\n";
  }
  return out.good() ? caddb::OkStatus()
                    : caddb::InternalError("short write to " + path);
}

}  // namespace ledger
