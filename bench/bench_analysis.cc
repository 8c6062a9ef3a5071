// Static-analyzer cost on generated wide/deep schemas and populated stores:
// the `caddb check` passes must stay near-linear in schema size (classes) and
// store size (objects) so the tool remains usable on large designs. Run with
// --benchmark_enable_random_interleaving and look at the BigO fit — the
// complexity estimate should come out O(N)-ish, not quadratic.

#include <benchmark/benchmark.h>

#include <string>

#include "analysis/analyzer.h"
#include "analysis/diagnostics.h"
#include "bench_common.h"

namespace caddb {
namespace bench {
namespace {

constexpr int kDepth = 8;

/// Generates `n_classes` obj-types arranged as depth-8 inheritance chains
/// (n/8 independent chains). Level i declares attribute A<i> plus a
/// constraint mixing it with the inherited root attribute, and transmits its
/// whole accumulated item set — so effective schemas genuinely grow with
/// depth and the analyzer's memoization is exercised.
std::string WideDeepSchema(int n_classes) {
  int chains = n_classes / kDepth;
  std::string ddl;
  for (int c = 0; c < chains; ++c) {
    std::string base = "C" + std::to_string(c) + "_";
    ddl += "obj-type " + base + "0 =\n"
           "  attributes:\n    A0: integer;\n"
           "  constraints:\n    A0 > 0;\nend " + base + "0;\n";
    std::string inherited = "A0";
    for (int i = 1; i < kDepth; ++i) {
      std::string prev = base + std::to_string(i - 1);
      std::string cur = base + std::to_string(i);
      std::string rel = base + "R" + std::to_string(i);
      std::string attr = "A" + std::to_string(i);
      ddl += "inher-rel-type " + rel + " =\n"
             "  transmitter: object-of-type " + prev + ";\n"
             "  inheritor: object;\n"
             "  inheriting: " + inherited + ";\nend " + rel + ";\n";
      ddl += "obj-type " + cur + " =\n"
             "  inheritor-in: " + rel + ";\n"
             "  attributes:\n    " + attr + ": integer;\n"
             "  constraints:\n    " + attr + " >= A0;\nend " + cur + ";\n";
      inherited += ", " + attr;
    }
  }
  return ddl;
}

void BM_AnalyzeSchema(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Database db;
  Abort(db.ExecuteDdl(WideDeepSchema(n)));
  {
    analysis::DiagnosticBag bag = analysis::AnalyzeSchema(db.catalog());
    if (!bag.empty()) {
      state.SkipWithError(("generated schema not clean: " + bag.Summary())
                              .c_str());
      return;
    }
  }
  for (auto _ : state) {
    analysis::DiagnosticBag bag = analysis::AnalyzeSchema(db.catalog());
    benchmark::DoNotOptimize(bag.size());
  }
  state.SetComplexityN(n);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AnalyzeSchema)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity(benchmark::oN);

void BM_AnalyzeStore(benchmark::State& state) {
  const int n_objects = static_cast<int>(state.range(0));
  Database db;
  Abort(db.ExecuteDdl(WideDeepSchema(kDepth)));  // one depth-8 chain
  // Populate chains of bound instances: each group of 8 objects is one
  // instance chain C0_0 <- C0_1 <- ... with a local value at the root.
  int created = 0;
  while (created < n_objects) {
    Surrogate prev = Unwrap(db.CreateObject("C0_0"));
    Abort(db.Set(prev, "A0", Value::Int(1)));
    ++created;
    for (int i = 1; i < kDepth && created < n_objects; ++i, ++created) {
      Surrogate cur = Unwrap(db.CreateObject("C0_" + std::to_string(i)));
      Unwrap(db.Bind(cur, prev, "C0_R" + std::to_string(i)));
      prev = cur;
    }
  }
  for (auto _ : state) {
    analysis::DiagnosticBag bag =
        analysis::AnalyzeStore(db.store());
    benchmark::DoNotOptimize(bag.size());
  }
  state.SetComplexityN(n_objects);
  state.SetItemsProcessed(state.iterations() * n_objects);
}
BENCHMARK(BM_AnalyzeStore)
    ->RangeMultiplier(2)
    ->Range(64, 512)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace bench
}  // namespace caddb
