// Experiment F4 (DESIGN.md): interface abstraction hierarchies — resolution
// cost of an inherited read (one chain walk) as a function of hierarchy
// depth, plus the type-level effective-schema computation cost.

#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.h"

namespace caddb {
namespace bench {
namespace {

/// Generates a D-level chain: L0 (root, owns attribute A) <- L1 <- ... and
/// one object per level bound up the chain. Returns the leaf object.
Surrogate BuildChain(Database* db, int depth) {
  std::string schema =
      "obj-type L0 = attributes: A: integer; end L0;\n";
  for (int i = 1; i <= depth; ++i) {
    std::string prev = "L" + std::to_string(i - 1);
    std::string cur = "L" + std::to_string(i);
    schema += "inher-rel-type R" + std::to_string(i) +
              " = transmitter: object-of-type " + prev +
              "; inheritor: object; inheriting: A; end R" +
              std::to_string(i) + ";\n";
    schema += "obj-type " + cur + " = inheritor-in: R" + std::to_string(i) +
              "; end " + cur + ";\n";
  }
  Abort(db->ExecuteDdl(schema));
  Surrogate prev = Unwrap(db->CreateObject("L0"));
  Abort(db->Set(prev, "A", Value::Int(7)));
  for (int i = 1; i <= depth; ++i) {
    Surrogate cur = Unwrap(db->CreateObject("L" + std::to_string(i)));
    Unwrap(db->Bind(cur, prev, "R" + std::to_string(i)));
    prev = cur;
  }
  return prev;
}

void BM_InheritedReadByDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Database db;
  Surrogate leaf = BuildChain(&db, depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(db.Get(leaf, "A")).AsInt());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InheritedReadByDepth)->DenseRange(1, 4)->Arg(8)->Arg(16)->Arg(32);

/// Type-level: effective-schema computation over deep hierarchies (cold
/// cache each round via a fresh catalog would dominate setup; instead this
/// measures the cached lookup path the engine uses everywhere).
void BM_EffectiveSchemaLookup(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Database db;
  BuildChain(&db, depth);
  const std::string leaf_type = "L" + std::to_string(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Unwrap(db.catalog().EffectiveSchemaFor(leaf_type)).attributes.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EffectiveSchemaLookup)->Arg(1)->Arg(8)->Arg(32);

/// Update at the hierarchy root with N inheritors at every level: the
/// notification fan-out over the whole tree.
void BM_RootUpdateFanOutTree(benchmark::State& state) {
  const int breadth = static_cast<int>(state.range(0));
  Database db;
  Abort(db.ExecuteDdl(R"(
    obj-type Root = attributes: A: integer; end Root;
    inher-rel-type RootR =
      transmitter: object-of-type Root; inheritor: object; inheriting: A;
    end RootR;
    obj-type Mid = inheritor-in: RootR; end Mid;
  )"));
  Surrogate root = Unwrap(db.CreateObject("Root"));
  Abort(db.Set(root, "A", Value::Int(0)));
  std::vector<Surrogate> bindings;
  for (int i = 0; i < breadth; ++i) {
    Surrogate mid = Unwrap(db.CreateObject("Mid"));
    bindings.push_back(Unwrap(db.Bind(mid, root, "RootR")));
  }
  int64_t tick = 0;
  for (auto _ : state) {
    Abort(db.Set(root, "A", Value::Int(++tick)));
    for (Surrogate b : bindings) db.notifications().Acknowledge(b);
  }
  state.SetItemsProcessed(state.iterations() * breadth);
}
BENCHMARK(BM_RootUpdateFanOutTree)->Range(1, 1024);

}  // namespace
}  // namespace bench
}  // namespace caddb
