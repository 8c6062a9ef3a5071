#ifndef CADDB_ANALYSIS_ANALYZER_H_
#define CADDB_ANALYSIS_ANALYZER_H_

#include "analysis/diagnostics.h"

namespace caddb {

class Catalog;
class ObjectStore;

namespace analysis {

/// Static integrity analyzer (`caddb check`). Two groups of passes:
///
///  * Schema passes (CAD0xx) walk the catalog and report *every* defect —
///    unlike Catalog::Validate(), which stops at the first — with DDL
///    source locations and nearest-name fix-it hints: inheritance-graph
///    cycles, dangling transmitter/inheritor/inheritor-in references,
///    permeability clauses naming nothing the transmitter provides,
///    shadowing across multi-level hierarchies, constraint expressions
///    referencing unknown names, unresolved domains/element types/roles,
///    and never-bindable inheritance relationship types.
///
///  * Store passes (CAD1xx, "fsck") walk every live object and verify the
///    invariants the store maintains incrementally: no dangling surrogates,
///    containment back-pointers match member lists, no locally stored
///    values for inherited (read-only) attributes, binding symmetry of
///    inheritance relationships, index consistency (extents / classes /
///    where-used).
///
/// All passes are read-only and report into a DiagnosticBag; they never
/// repair. Diagnostics come back sorted (errors first, then by line).

/// Runs every schema pass over `catalog`.
DiagnosticBag AnalyzeSchema(const Catalog& catalog);

/// Runs every store pass over `store`.
DiagnosticBag AnalyzeStore(const ObjectStore& store);

/// Schema passes followed by store passes, merged and sorted.
DiagnosticBag AnalyzeDatabase(const ObjectStore& store);

}  // namespace analysis
}  // namespace caddb

#endif  // CADDB_ANALYSIS_ANALYZER_H_
