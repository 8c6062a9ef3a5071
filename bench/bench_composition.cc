// Experiment F3/E8 (DESIGN.md): composite objects importing component data —
// value inheritance vs. copy import, and the permeability-width ablation
// (narrow interface export vs. full data export).

#include <benchmark/benchmark.h>

#include "baselines/copy_import.h"
#include "bench_common.h"

namespace caddb {
namespace bench {
namespace {

/// Composite read path: the composite touches every component subobject's
/// imported Length (resolved through inheritance at access time).
void BM_CompositeReadThroughInheritance(benchmark::State& state) {
  const int n_components = static_cast<int>(state.range(0));
  Database db;
  LoadGatesSchema(&db);
  Surrogate own = NewInterface(&db, 2, 30);
  Surrogate component = NewInterface(&db, 3, 10);
  Surrogate composite = NewComposite(&db, own, component, n_components);
  auto subs = Unwrap(db.Subclass(composite, "SubGates"));
  for (auto _ : state) {
    int64_t total = 0;
    for (Surrogate sub : subs) {
      total += Unwrap(db.Get(sub, "Length")).AsInt();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * n_components);
}
BENCHMARK(BM_CompositeReadThroughInheritance)->Range(1, 512);

/// Copy-import composite: reads are local (fast) but every component update
/// forces a refresh sweep first. Measures read-after-one-update, the
/// end-to-end cost a copy-based system pays for freshness.
void BM_CompositeReadCopyImport(benchmark::State& state) {
  const int n_components = static_cast<int>(state.range(0));
  Database db;
  LoadGatesSchema(&db);
  Abort(db.ExecuteDdl(R"(
    obj-type CopySlot = attributes: Length, Width: integer; end CopySlot;
  )"));
  Surrogate component = NewInterface(&db, 3, 10);
  CopyImportManager copies(&db.inheritance());
  std::vector<Surrogate> slots;
  for (int i = 0; i < n_components; ++i) {
    Surrogate slot = Unwrap(db.CreateObject("CopySlot"));
    Unwrap(copies.ImportByCopy(slot, component, {"Length", "Width"}));
    slots.push_back(slot);
  }
  int64_t tick = 0;
  for (auto _ : state) {
    Abort(db.Set(component, "Length", Value::Int(++tick)));
    benchmark::DoNotOptimize(Unwrap(copies.RefreshAllFrom(component)));
    int64_t total = 0;
    for (Surrogate slot : slots) {
      total += Unwrap(db.Get(slot, "Length")).AsInt();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * n_components);
}
BENCHMARK(BM_CompositeReadCopyImport)->Range(1, 512);

constexpr const char* kPermeabilitySchema = R"(
  obj-type Wide =
    attributes:
      A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12, A13, A14, A15, A16:
        integer;
  end Wide;
  inher-rel-type NarrowExport =
    transmitter: object-of-type Wide;
    inheritor: object;
    inheriting: A1, A2;
  end NarrowExport;
  inher-rel-type FullExport =
    transmitter: object-of-type Wide;
    inheritor: object;
    inheriting: A1, A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12, A13, A14,
                A15, A16;
  end FullExport;
  obj-type NarrowUser = inheritor-in: NarrowExport; end NarrowUser;
  obj-type FullUser = inheritor-in: FullExport; end FullUser;
)";

/// Permeability-width ablation (DESIGN.md ablation 3): a narrow export means
/// fewer notifications and a smaller effective schema; measures update +
/// notification fan-out for N inheritors when the touched attribute is
/// outside vs. inside the export set.
void PermeabilityBench(benchmark::State& state, const char* user_type,
                       const char* rel, const char* touched) {
  const int n = static_cast<int>(state.range(0));
  Database db;
  Abort(db.ExecuteDdl(kPermeabilitySchema));
  Surrogate wide = Unwrap(db.CreateObject("Wide"));
  std::vector<Surrogate> bindings;
  for (int i = 0; i < n; ++i) {
    Surrogate user = Unwrap(db.CreateObject(user_type));
    bindings.push_back(Unwrap(db.Bind(user, wide, rel)));
  }
  int64_t tick = 0;
  for (auto _ : state) {
    Abort(db.Set(wide, touched, Value::Int(++tick)));
    for (Surrogate b : bindings) db.notifications().Acknowledge(b);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_Permeability_NarrowExport_InsideSet(benchmark::State& state) {
  PermeabilityBench(state, "NarrowUser", "NarrowExport", "A1");
}
BENCHMARK(BM_Permeability_NarrowExport_InsideSet)->Range(1, 256);

void BM_Permeability_NarrowExport_OutsideSet(benchmark::State& state) {
  // A16 is invisible through NarrowExport: no notifications at all.
  PermeabilityBench(state, "NarrowUser", "NarrowExport", "A16");
}
BENCHMARK(BM_Permeability_NarrowExport_OutsideSet)->Range(1, 256);

void BM_Permeability_FullExport(benchmark::State& state) {
  PermeabilityBench(state, "FullUser", "FullExport", "A16");
}
BENCHMARK(BM_Permeability_FullExport)->Range(1, 256);

/// Configuration queries over a shared component (where-used fan-in).
void BM_WhereUsedQuery(benchmark::State& state) {
  const int n_users = static_cast<int>(state.range(0));
  Database db;
  LoadGatesSchema(&db);
  Surrogate shared = NewInterface(&db, 3, 10);
  for (int i = 0; i < n_users; ++i) {
    Surrogate own = NewInterface(&db, 2, 20);
    NewComposite(&db, own, shared, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(db.query().WhereUsed(shared)).size());
  }
  state.SetItemsProcessed(state.iterations() * n_users);
}
BENCHMARK(BM_WhereUsedQuery)->Range(1, 256);

}  // namespace
}  // namespace bench
}  // namespace caddb
