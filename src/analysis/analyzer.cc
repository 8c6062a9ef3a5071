#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/ast.h"
#include "store/store.h"

namespace caddb {
namespace analysis {

namespace {

// ---------------------------------------------------------------------------
// Fix-it hints
// ---------------------------------------------------------------------------

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t next = std::min({row[j] + 1, row[j - 1] + 1,
                              diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

/// "did you mean 'X'?" for the candidate closest to `target`, or "" when
/// nothing is plausibly a typo of it.
std::string NearestName(const std::string& target,
                        const std::vector<std::string>& candidates) {
  const size_t limit = std::max<size_t>(2, target.size() / 4);
  size_t best = limit + 1;
  const std::string* winner = nullptr;
  for (const std::string& c : candidates) {
    if (c == target) continue;
    size_t d = EditDistance(target, c);
    if (d < best) {
      best = d;
      winner = &c;
    }
  }
  if (winner == nullptr) return "";
  return "did you mean '" + *winner + "'?";
}

std::vector<std::string> Keys(const std::set<std::string>& s) {
  return std::vector<std::string>(s.begin(), s.end());
}

// ---------------------------------------------------------------------------
// Schema passes
// ---------------------------------------------------------------------------

class SchemaAnalyzer {
 public:
  SchemaAnalyzer(const Catalog& catalog, DiagnosticBag* bag)
      : catalog_(catalog), bag_(bag) {}

  void Run() {
    CollectEnumSymbols();
    CheckCycles();
    for (const std::string& name : catalog_.InherRelTypeNames()) {
      CheckInherRelType(*catalog_.FindInherRelType(name));
    }
    for (const std::string& name : catalog_.ObjectTypeNames()) {
      CheckObjectType(*catalog_.FindObjectType(name));
    }
    for (const std::string& name : catalog_.RelTypeNames()) {
      CheckRelType(*catalog_.FindRelType(name));
    }
  }

 private:
  /// Best-effort effective item set of an object type: every pass keeps
  /// going past defects, so this must not fail where
  /// Catalog::EffectiveSchemaFor would — a broken or cyclic transmitter
  /// chain leaves `resolved` false (inheritance-dependent passes skip the
  /// type) while local items stay usable for scope checks.
  struct ItemSet {
    bool resolved = false;
    std::map<std::string, const AttributeDef*> attrs;
    std::map<std::string, const SubclassDef*> subclasses;
    std::set<std::string> subrels;
    struct Origin {
      std::string type;  // where the item is locally declared
      std::string rel;   // direct inher-rel it arrived through
    };
    std::map<std::string, Origin> inherited;
  };

  /// Every inher-rel-type some obj-type declares itself inheritor-in.
  /// Computed once: a per-relationship scan would make the pass quadratic
  /// in schema size (bench_analysis pins the near-linear behavior).
  const std::set<std::string>& UsedInherRels() {
    if (!used_inher_rels_computed_) {
      used_inher_rels_computed_ = true;
      for (const std::string& name : catalog_.ObjectTypeNames()) {
        const std::string& rel = catalog_.FindObjectType(name)->inheritor_in;
        if (!rel.empty()) used_inher_rels_.insert(rel);
      }
    }
    return used_inher_rels_;
  }

  const ItemSet& Items(const std::string& type_name) {
    auto it = memo_.find(type_name);
    // A placeholder found mid-recursion means a cycle: unresolved.
    if (it != memo_.end()) return it->second;
    memo_[type_name];  // placeholder breaks recursion (map refs are stable)

    ItemSet s;
    const ObjectTypeDef* def = catalog_.FindObjectType(type_name);
    if (def == nullptr) return memo_[type_name];

    s.resolved = true;
    if (!def->inheritor_in.empty()) {
      const InherRelTypeDef* rel = catalog_.FindInherRelType(def->inheritor_in);
      if (rel == nullptr || catalog_.FindObjectType(rel->transmitter_type) ==
                                nullptr) {
        s.resolved = false;
      } else {
        const ItemSet& base = Items(rel->transmitter_type);
        if (!base.resolved) {
          s.resolved = false;
        } else {
          for (const std::string& item : rel->inheriting) {
            ItemSet::Origin origin{rel->transmitter_type, rel->name};
            auto inh = base.inherited.find(item);
            if (inh != base.inherited.end()) origin.type = inh->second.type;
            auto a = base.attrs.find(item);
            if (a != base.attrs.end()) {
              s.attrs[item] = a->second;
              s.inherited[item] = origin;
              continue;
            }
            auto c = base.subclasses.find(item);
            if (c != base.subclasses.end()) {
              s.subclasses[item] = c->second;
              s.inherited[item] = origin;
            }
            // Unknown items are CAD006, reported at the inher-rel-type.
          }
        }
      }
    }
    // Local declarations. On a shadowing collision (CAD007, reported at the
    // object type) the inherited item wins here, matching the provenance the
    // store would see if the shadow were removed.
    for (const AttributeDef& a : def->attributes) {
      if (s.inherited.count(a.name) == 0) s.attrs[a.name] = &a;
    }
    for (const SubclassDef& c : def->subclasses) {
      if (s.inherited.count(c.name) == 0) s.subclasses[c.name] = &c;
    }
    for (const SubrelDef& r : def->subrels) s.subrels.insert(r.name);

    return memo_[type_name] = std::move(s);
  }

  // ---- CAD001: type-level inheritance cycles (all of them, each once) ----
  void CheckCycles() {
    std::set<std::string> reported;
    for (const std::string& start : catalog_.ObjectTypeNames()) {
      std::vector<std::string> path;
      std::map<std::string, size_t> pos;
      std::string cur = start;
      while (true) {
        auto seen = pos.find(cur);
        if (seen != pos.end()) {
          ReportCycle(
              std::vector<std::string>(path.begin() + seen->second, path.end()),
              &reported);
          break;
        }
        const ObjectTypeDef* def = catalog_.FindObjectType(cur);
        if (def == nullptr || def->inheritor_in.empty()) break;
        const InherRelTypeDef* rel =
            catalog_.FindInherRelType(def->inheritor_in);
        if (rel == nullptr) break;
        pos[cur] = path.size();
        path.push_back(cur);
        cur = rel->transmitter_type;
      }
    }
  }

  void ReportCycle(std::vector<std::string> cycle,
                   std::set<std::string>* reported) {
    // Canonical form: rotate the smallest member to the front so every entry
    // point into the same cycle dedupes to one report.
    auto smallest = std::min_element(cycle.begin(), cycle.end());
    std::rotate(cycle.begin(), smallest, cycle.end());
    std::string rendered = cycle.front();
    for (size_t i = 1; i < cycle.size(); ++i) rendered += " -> " + cycle[i];
    rendered += " -> " + cycle.front();
    if (!reported->insert(rendered).second) return;
    const ObjectTypeDef* def = catalog_.FindObjectType(cycle.front());
    bag_->Add("CAD001", Severity::kError,
              "type-level inheritance cycle: " + rendered,
              def != nullptr ? def->loc : SourceLoc{},
              "obj-type " + cycle.front());
  }

  // ---- CAD002/003/006/012/013/014 + members of inher-rel-types ----
  void CheckInherRelType(const InherRelTypeDef& def) {
    const std::string entity = "inher-rel-type " + def.name;

    if (catalog_.FindObjectType(def.transmitter_type) == nullptr) {
      bag_->Add("CAD002", Severity::kError,
                "unknown transmitter type '" + def.transmitter_type + "'",
                def.transmitter_loc.valid() ? def.transmitter_loc : def.loc,
                entity,
                NearestName(def.transmitter_type, catalog_.ObjectTypeNames()));
    }
    if (!def.inheritor_type.empty()) {
      const ObjectTypeDef* inheritor =
          catalog_.FindObjectType(def.inheritor_type);
      if (inheritor == nullptr) {
        bag_->Add("CAD003", Severity::kError,
                  "unknown inheritor type '" + def.inheritor_type + "'",
                  def.inheritor_loc.valid() ? def.inheritor_loc : def.loc,
                  entity,
                  NearestName(def.inheritor_type, catalog_.ObjectTypeNames()));
      } else if (inheritor->inheritor_in != def.name) {
        bag_->Add(
            "CAD014", Severity::kWarning,
            "restricts inheritors to type '" + def.inheritor_type +
                "', but that type declares " +
                (inheritor->inheritor_in.empty()
                     ? "no inheritor-in clause"
                     : "inheritor-in '" + inheritor->inheritor_in + "'") +
                ", so no binding through this relationship can ever be "
                "created",
            def.inheritor_loc.valid() ? def.inheritor_loc : def.loc, entity);
      }
    }

    // CAD006: the permeability list must name effective items of the
    // transmitter. Skipped when the transmitter chain itself is broken —
    // those defects already got their own diagnostic.
    const ItemSet& transmitter = Items(def.transmitter_type);
    if (transmitter.resolved) {
      std::set<std::string> provided;
      for (const auto& [name, a] : transmitter.attrs) provided.insert(name);
      for (const auto& [name, c] : transmitter.subclasses)
        provided.insert(name);
      for (size_t i = 0; i < def.inheriting.size(); ++i) {
        const std::string& item = def.inheriting[i];
        if (provided.count(item) > 0) continue;
        SourceLoc loc =
            i < def.inheriting_locs.size() ? def.inheriting_locs[i] : def.loc;
        bag_->Add("CAD006", Severity::kError,
                  "inherits '" + item +
                      "' which is neither an attribute nor a subclass of "
                      "transmitter type '" +
                      def.transmitter_type + "'",
                  loc, entity, NearestName(item, Keys(provided)));
      }
    }

    // CAD013: a relationship type nobody is inheritor-in can never bind.
    if (UsedInherRels().count(def.name) == 0) {
      bag_->Add("CAD013", Severity::kWarning,
                "no obj-type declares inheritor-in '" + def.name +
                    "'; the relationship type can never be instantiated",
                def.loc, entity);
    }

    for (const AttributeDef& a : def.attributes) {
      CheckDomainTree(a.domain, a.loc.valid() ? a.loc : def.loc, entity,
                      a.name);
    }
    for (const SubclassDef& c : def.subclasses) {
      CheckSubclassDef(c, def.loc, entity);
    }
    std::set<std::string> scope = {"transmitter", "inheritor"};
    for (const AttributeDef& a : def.attributes) scope.insert(a.name);
    for (const SubclassDef& c : def.subclasses) scope.insert(c.name);
    CheckConstraints(def.constraints, scope, entity);
  }

  // ---- CAD004/005/007/008/009/010/012 on object types ----
  void CheckObjectType(const ObjectTypeDef& def) {
    const std::string entity = "obj-type " + def.name;

    if (!def.inheritor_in.empty()) {
      const InherRelTypeDef* rel = catalog_.FindInherRelType(def.inheritor_in);
      SourceLoc loc =
          def.inheritor_in_loc.valid() ? def.inheritor_in_loc : def.loc;
      if (rel == nullptr) {
        bag_->Add(
            "CAD004", Severity::kError,
            "inheritor-in unknown inher-rel-type '" + def.inheritor_in + "'",
            loc, entity,
            NearestName(def.inheritor_in, catalog_.InherRelTypeNames()));
      } else if (!rel->inheritor_type.empty() &&
                 rel->inheritor_type != def.name) {
        bag_->Add("CAD005", Severity::kError,
                  "declares inheritor-in '" + rel->name +
                      "' which requires inheritor type '" +
                      rel->inheritor_type + "'",
                  loc, entity);
      }
    }

    // CAD007: shadowing. Only decidable when the inherited closure resolved.
    const ItemSet& items = Items(def.name);
    if (items.resolved) {
      auto shadow = [&](const std::string& name, SourceLoc loc,
                        const char* what) {
        auto inh = items.inherited.find(name);
        if (inh == items.inherited.end()) return;
        bag_->Add("CAD007", Severity::kError,
                  std::string("local ") + what + " '" + name +
                      "' shadows an item inherited from '" + inh->second.type +
                      "' through '" + inh->second.rel + "'",
                  loc.valid() ? loc : def.loc, entity);
      };
      for (const AttributeDef& a : def.attributes)
        shadow(a.name, a.loc, "attribute");
      for (const SubclassDef& c : def.subclasses)
        shadow(c.name, c.loc, "subclass");
      for (const SubrelDef& r : def.subrels) shadow(r.name, r.loc, "subrel");
    }

    for (const AttributeDef& a : def.attributes) {
      CheckDomainTree(a.domain, a.loc.valid() ? a.loc : def.loc, entity,
                      a.name);
    }
    for (const SubclassDef& c : def.subclasses) {
      CheckSubclassDef(c, def.loc, entity);
    }
    for (const SubrelDef& r : def.subrels) {
      if (catalog_.FindRelType(r.rel_type) == nullptr) {
        bag_->Add("CAD010", Severity::kError,
                  "subrel '" + r.name + "' has unknown rel-type '" +
                      r.rel_type + "'",
                  r.loc.valid() ? r.loc : def.loc, entity,
                  NearestName(r.rel_type, catalog_.RelTypeNames()));
      }
    }

    // Constraint scope: every effective attribute/subclass plus local
    // subrels plus quantifier variables. Binding variables accumulate
    // across a constraints section in the evaluator, so all of them are
    // collected up front.
    std::set<std::string> scope;
    for (const auto& [name, a] : items.attrs) scope.insert(name);
    for (const auto& [name, c] : items.subclasses) scope.insert(name);
    for (const std::string& r : items.subrels) scope.insert(r);
    CheckConstraints(def.constraints, scope, entity);

    // Subrel where-clauses: the member is addressable via the subrel name,
    // its singular form, and the rel-type name; member roles and attributes
    // resolve before the owner's scope.
    for (const SubrelDef& r : def.subrels) {
      if (r.where == nullptr) continue;
      std::set<std::string> where_scope = scope;
      where_scope.insert(r.name);
      if (r.name.size() > 1 && r.name.back() == 's') {
        where_scope.insert(r.name.substr(0, r.name.size() - 1));
      }
      where_scope.insert(r.rel_type);
      if (const RelTypeDef* rel = catalog_.FindRelType(r.rel_type)) {
        for (const ParticipantDef& p : rel->participants)
          where_scope.insert(p.role);
        for (const AttributeDef& a : rel->attributes)
          where_scope.insert(a.name);
      }
      CollectBindingVars(*r.where, &where_scope);
      const std::string label =
          r.where_text.empty() ? "where-clause of subrel '" + r.name + "'"
                               : r.where_text;
      CheckExpr(*r.where, where_scope, entity,
                r.loc.valid() ? r.loc : def.loc, label);
    }
  }

  // ---- CAD008/009/011/012 on relationship types ----
  void CheckRelType(const RelTypeDef& def) {
    const std::string entity = "rel-type " + def.name;
    for (const ParticipantDef& p : def.participants) {
      if (!p.object_type.empty() &&
          catalog_.FindObjectType(p.object_type) == nullptr) {
        bag_->Add("CAD011", Severity::kError,
                  "role '" + p.role + "' has unknown object type '" +
                      p.object_type + "'",
                  p.loc.valid() ? p.loc : def.loc, entity,
                  NearestName(p.object_type, catalog_.ObjectTypeNames()));
      }
    }
    for (const AttributeDef& a : def.attributes) {
      CheckDomainTree(a.domain, a.loc.valid() ? a.loc : def.loc, entity,
                      a.name);
    }
    for (const SubclassDef& c : def.subclasses) {
      CheckSubclassDef(c, def.loc, entity);
    }
    std::set<std::string> scope;
    for (const ParticipantDef& p : def.participants) scope.insert(p.role);
    for (const AttributeDef& a : def.attributes) scope.insert(a.name);
    for (const SubclassDef& c : def.subclasses) scope.insert(c.name);
    CheckConstraints(def.constraints, scope, entity);
  }

  // ---- CAD009: subclass element types ----
  void CheckSubclassDef(const SubclassDef& c, SourceLoc fallback,
                        const std::string& entity) {
    if (catalog_.FindObjectType(c.element_type) != nullptr) return;
    bag_->Add("CAD009", Severity::kError,
              "subclass '" + c.name + "' has unknown element type '" +
                  c.element_type + "'",
              c.loc.valid() ? c.loc : fallback, entity,
              NearestName(c.element_type, catalog_.ObjectTypeNames()));
  }

  // ---- CAD012: domain trees ----
  void CheckDomainTree(const Domain& d, SourceLoc loc,
                       const std::string& entity, const std::string& attr) {
    switch (d.kind()) {
      case Domain::Kind::kNamed:
        if (!catalog_.ResolveDomain(d.name()).ok()) {
          bag_->Add("CAD012", Severity::kError,
                    "attribute '" + attr + "' references unresolved domain '" +
                        d.name() + "'",
                    loc, entity, NearestName(d.name(), catalog_.DomainNames()));
        }
        return;
      case Domain::Kind::kRef:
        if (!d.name().empty() &&
            catalog_.FindObjectType(d.name()) == nullptr &&
            catalog_.FindRelType(d.name()) == nullptr) {
          bag_->Add("CAD012", Severity::kError,
                    "attribute '" + attr +
                        "' references unknown object type '" + d.name() + "'",
                    loc, entity,
                    NearestName(d.name(), catalog_.ObjectTypeNames()));
        }
        return;
      case Domain::Kind::kRecord:
        for (const auto& [field, sub] : d.record_fields()) {
          CheckDomainTree(sub, loc, entity, attr + "." + field);
        }
        return;
      case Domain::Kind::kListOf:
      case Domain::Kind::kSetOf:
      case Domain::Kind::kMatrixOf:
        CheckDomainTree(d.element(), loc, entity, attr);
        return;
      default:
        return;
    }
  }

  // ---- CAD008: constraint expressions ----
  void CheckConstraints(const std::vector<ConstraintDef>& constraints,
                        std::set<std::string> scope,
                        const std::string& entity) {
    // The evaluator accumulates `for`/`exists` bindings across a constraints
    // section, so every variable of the section is in scope everywhere.
    for (const ConstraintDef& c : constraints) {
      if (c.predicate != nullptr) CollectBindingVars(*c.predicate, &scope);
    }
    for (const ConstraintDef& c : constraints) {
      if (c.predicate == nullptr) continue;
      CheckExpr(*c.predicate, scope, entity, c.loc,
                c.label.empty() ? c.predicate->ToString() : c.label);
    }
  }

  static void CollectBindingVars(const expr::Expr& e,
                                 std::set<std::string>* out) {
    for (const expr::Binding& b : e.bindings()) out->insert(b.var);
    for (const expr::ExprPtr& child : e.children()) {
      if (child != nullptr) CollectBindingVars(*child, out);
    }
    if (e.filter() != nullptr) CollectBindingVars(*e.filter(), out);
  }

  void CheckExpr(const expr::Expr& e, const std::set<std::string>& scope,
                 const std::string& entity, SourceLoc loc,
                 const std::string& label) {
    switch (e.kind()) {
      case expr::Expr::Kind::kLiteral:
        return;
      case expr::Expr::Kind::kPath: {
        if (e.segments().empty()) return;
        const std::string& head = e.segments().front();
        if (scope.count(head) > 0) return;
        if (e.segments().size() == 1) {
          // The evaluator falls back to treating an unresolved bare
          // identifier as an enumeration symbol, so this can only be wrong
          // intent, never a runtime failure: warn unless the symbol is
          // declared by some domain in the catalog.
          if (enum_symbols_.count(head) > 0) return;
          bag_->Add("CAD008", Severity::kWarning,
                    "constraint '" + label + "' references '" + head +
                        "', which is neither an item in scope nor a known "
                        "enumeration symbol; it will evaluate as the enum "
                        "symbol (" +
                        head + ")",
                    loc, entity, NearestName(head, Keys(scope)));
        } else {
          bag_->Add("CAD008", Severity::kError,
                    "constraint '" + label + "' references unknown name '" +
                        head + "' (in path '" + e.ToString() + "')",
                    loc, entity, NearestName(head, Keys(scope)));
        }
        return;
      }
      case expr::Expr::Kind::kForAll:
      case expr::Expr::Kind::kExists: {
        std::set<std::string> inner = scope;
        for (const expr::Binding& b : e.bindings()) {
          if (b.collection != nullptr) {
            CheckExpr(*b.collection, scope, entity, loc, label);
          }
          inner.insert(b.var);
        }
        if (!e.children().empty() && e.children()[0] != nullptr) {
          CheckExpr(*e.children()[0], inner, entity, loc, label);
        }
        return;
      }
      case expr::Expr::Kind::kCount:
      case expr::Expr::Kind::kSum:
      case expr::Expr::Kind::kMin:
      case expr::Expr::Kind::kMax: {
        const expr::ExprPtr& collection =
            e.children().empty() ? nullptr : e.children()[0];
        if (collection != nullptr) {
          CheckExpr(*collection, scope, entity, loc, label);
        }
        if (e.filter() != nullptr) {
          // The filter's implicit variable is the last segment of the
          // collection path (`count(Pins) ... where Pins.InOut = IN`).
          std::set<std::string> inner = scope;
          if (collection != nullptr &&
              collection->kind() == expr::Expr::Kind::kPath &&
              !collection->segments().empty()) {
            inner.insert(collection->segments().back());
          }
          CheckExpr(*e.filter(), inner, entity, loc, label);
        }
        return;
      }
      default:
        for (const expr::ExprPtr& child : e.children()) {
          if (child != nullptr) CheckExpr(*child, scope, entity, loc, label);
        }
        return;
    }
  }

  // ---- Enumeration symbols (suppress CAD008 on intended symbols) ----
  void CollectEnumSymbols() {
    std::set<std::string> visited_named;
    for (const std::string& name : catalog_.DomainNames()) {
      Result<Domain> d = catalog_.ResolveDomain(name);
      if (d.ok()) CollectSymbols(*d, &visited_named);
    }
    auto from_attrs = [&](const std::vector<AttributeDef>& attrs) {
      for (const AttributeDef& a : attrs) CollectSymbols(a.domain,
                                                         &visited_named);
    };
    for (const std::string& name : catalog_.ObjectTypeNames()) {
      from_attrs(catalog_.FindObjectType(name)->attributes);
    }
    for (const std::string& name : catalog_.RelTypeNames()) {
      from_attrs(catalog_.FindRelType(name)->attributes);
    }
    for (const std::string& name : catalog_.InherRelTypeNames()) {
      from_attrs(catalog_.FindInherRelType(name)->attributes);
    }
  }

  void CollectSymbols(const Domain& d, std::set<std::string>* visited_named) {
    switch (d.kind()) {
      case Domain::Kind::kEnum:
        enum_symbols_.insert(d.symbols().begin(), d.symbols().end());
        return;
      case Domain::Kind::kRecord:
        for (const auto& [field, sub] : d.record_fields()) {
          CollectSymbols(sub, visited_named);
        }
        return;
      case Domain::Kind::kListOf:
      case Domain::Kind::kSetOf:
      case Domain::Kind::kMatrixOf:
        CollectSymbols(d.element(), visited_named);
        return;
      case Domain::Kind::kNamed: {
        if (!visited_named->insert(d.name()).second) return;
        Result<Domain> resolved = catalog_.ResolveDomain(d.name());
        if (resolved.ok()) CollectSymbols(*resolved, visited_named);
        return;
      }
      default:
        return;
    }
  }

  const Catalog& catalog_;
  DiagnosticBag* bag_;
  std::map<std::string, ItemSet> memo_;
  bool used_inher_rels_computed_ = false;
  std::set<std::string> used_inher_rels_;
  std::set<std::string> enum_symbols_;
};

// ---------------------------------------------------------------------------
// Store passes (fsck)
// ---------------------------------------------------------------------------

class StoreAnalyzer {
 public:
  StoreAnalyzer(const ObjectStore& store, DiagnosticBag* bag)
      : store_(store), bag_(bag) {}

  void Run() {
    for (Surrogate s : store_.AllObjects()) {
      Result<const DbObject*> obj = store_.Get(s);
      if (!obj.ok()) continue;
      CheckObject(**obj);
    }
    CheckObjectCycles();
    for (const std::string& finding : store_.AuditIndexes()) {
      bag_->Add("CAD106", Severity::kError, finding, {}, "store index");
    }
  }

 private:
  static std::string Entity(const DbObject& obj) {
    return std::string(ObjKindName(obj.kind())) + " @" +
           std::to_string(obj.surrogate().id) + " (" + obj.type_name() + ")";
  }

  void CheckObject(const DbObject& obj) {
    const Catalog& catalog = store_.catalog();
    const std::string entity = Entity(obj);

    // CAD104: the type must still be registered under the matching kind.
    bool type_known = true;
    switch (obj.kind()) {
      case ObjKind::kObject:
        type_known = catalog.FindObjectType(obj.type_name()) != nullptr;
        break;
      case ObjKind::kRelationship:
        type_known = catalog.FindRelType(obj.type_name()) != nullptr;
        break;
      case ObjKind::kInherRel:
        type_known = catalog.FindInherRelType(obj.type_name()) != nullptr;
        break;
    }
    if (!type_known) {
      bag_->Add("CAD104", Severity::kError,
                "live object of unregistered type '" + obj.type_name() + "'",
                {}, entity);
    }

    CheckContainment(obj, entity);
    CheckMemberLists(obj, entity);
    CheckParticipants(obj, entity);
    for (const auto& [name, value] : obj.attributes()) {
      CheckValueRefs(value, name, entity);
    }
    if (obj.kind() == ObjKind::kObject && type_known) {
      CheckLocalAttributes(obj, entity);
      CheckBinding(obj, entity);
    }
    if (obj.kind() == ObjKind::kInherRel) CheckInherRel(obj, entity);
  }

  // CAD101/CAD102: the parent back-pointer must target a live object whose
  // matching subclass/subrel member list contains this object.
  void CheckContainment(const DbObject& obj, const std::string& entity) {
    if (!obj.IsSubobject()) return;
    Result<const DbObject*> parent = store_.Get(obj.parent());
    if (!parent.ok()) {
      bag_->Add("CAD102", Severity::kError,
                "orphaned subobject: parent @" +
                    std::to_string(obj.parent().id) + " does not exist",
                {}, entity);
      return;
    }
    const std::vector<Surrogate>* members =
        (*parent)->Subclass(obj.parent_subclass());
    if (members == nullptr) members = (*parent)->Subrel(obj.parent_subclass());
    bool listed =
        members != nullptr &&
        std::find(members->begin(), members->end(), obj.surrogate()) !=
            members->end();
    if (!listed) {
      bag_->Add("CAD102", Severity::kError,
                "orphaned subobject: parent " + Entity(**parent) +
                    " does not list it in subclass/subrel '" +
                    obj.parent_subclass() + "'",
                {}, entity);
    }
  }

  // CAD101/CAD102: every listed member must be live and point back here.
  void CheckMemberLists(const DbObject& obj, const std::string& entity) {
    auto check = [&](const std::string& name, Surrogate member,
                     const char* what) {
      Result<const DbObject*> m = store_.Get(member);
      if (!m.ok()) {
        bag_->Add("CAD101", Severity::kError,
                  std::string(what) + " '" + name +
                      "' lists dangling surrogate @" +
                      std::to_string(member.id),
                  {}, entity);
        return;
      }
      if ((*m)->parent() != obj.surrogate() ||
          (*m)->parent_subclass() != name) {
        bag_->Add("CAD102", Severity::kError,
                  std::string(what) + " '" + name + "' lists " + Entity(**m) +
                      " whose containment back-pointer targets @" +
                      std::to_string((*m)->parent().id) + " '" +
                      (*m)->parent_subclass() + "'",
                  {}, entity);
      }
    };
    for (const auto& [name, members] : obj.subclasses()) {
      for (Surrogate member : members) check(name, member, "subclass");
    }
    for (const auto& [name, members] : obj.subrels()) {
      for (Surrogate member : members) check(name, member, "subrel");
    }
  }

  // CAD101: participant targets of relationship objects must be live.
  void CheckParticipants(const DbObject& obj, const std::string& entity) {
    for (const auto& [role, members] : obj.participants()) {
      for (Surrogate member : members) {
        if (!store_.Exists(member)) {
          bag_->Add("CAD101", Severity::kError,
                    "role '" + role + "' references dangling surrogate @" +
                        std::to_string(member.id),
                    {}, entity);
        }
      }
    }
  }

  // CAD101: kRef attribute values (recursively) must target live objects.
  void CheckValueRefs(const Value& v, const std::string& attr,
                      const std::string& entity) {
    switch (v.kind()) {
      case Value::Kind::kRef:
        if (v.AsRef().valid() && !store_.Exists(v.AsRef())) {
          bag_->Add("CAD101", Severity::kError,
                    "attribute '" + attr +
                        "' references dangling surrogate @" +
                        std::to_string(v.AsRef().id),
                    {}, entity);
        }
        return;
      case Value::Kind::kRecord:
        for (const auto& [field, sub] : v.fields()) {
          CheckValueRefs(sub, attr + "." + field, entity);
        }
        return;
      case Value::Kind::kList:
      case Value::Kind::kSet:
      case Value::Kind::kMatrix:
        for (const Value& e : v.elements()) CheckValueRefs(e, attr, entity);
        return;
      default:
        return;
    }
  }

  // CAD103: local storage must respect the effective schema — inherited
  // attributes are read-only views, and unknown attributes have no domain.
  void CheckLocalAttributes(const DbObject& obj, const std::string& entity) {
    Result<const EffectiveSchema*> schema =
        store_.catalog().FindEffectiveSchema(obj.type_name());
    if (!schema.ok()) return;  // schema defects are CAD0xx findings
    for (const auto& [name, value] : obj.attributes()) {
      if ((*schema)->FindAttribute(name) == nullptr) {
        bag_->Add("CAD103", Severity::kError,
                  "stores a value for '" + name +
                      "', which is not an attribute of its effective schema",
                  {}, entity);
      } else if ((*schema)->IsInherited(name)) {
        bag_->Add("CAD103", Severity::kError,
                  "stores a local value for inherited (read-only) attribute '" +
                      name + "'",
                  {}, entity);
      }
    }
  }

  // CAD101/CAD105: inheritor-side binding symmetry.
  void CheckBinding(const DbObject& obj, const std::string& entity) {
    Surrogate rel_s = obj.bound_inher_rel();
    if (!rel_s.valid()) return;
    Result<const DbObject*> rel = store_.Get(rel_s);
    if (!rel.ok()) {
      bag_->Add("CAD101", Severity::kError,
                "bound to dangling inheritance relationship @" +
                    std::to_string(rel_s.id),
                {}, entity);
      return;
    }
    if ((*rel)->kind() != ObjKind::kInherRel) {
      bag_->Add("CAD105", Severity::kError,
                "bound_inher_rel targets " + Entity(**rel) +
                    ", which is not an inheritance relationship",
                {}, entity);
      return;
    }
    if ((*rel)->Participant("inheritor") != obj.surrogate()) {
      bag_->Add("CAD105", Severity::kError,
                "bound to " + Entity(**rel) +
                    " whose inheritor participant is @" +
                    std::to_string((*rel)->Participant("inheritor").id),
                {}, entity);
    }
  }

  // CAD105: transmitter-side consistency of inheritance relationships.
  void CheckInherRel(const DbObject& rel, const std::string& entity) {
    const Catalog& catalog = store_.catalog();
    Surrogate transmitter_s = rel.Participant("transmitter");
    Surrogate inheritor_s = rel.Participant("inheritor");
    if (!transmitter_s.valid() || !inheritor_s.valid()) {
      bag_->Add("CAD105", Severity::kError,
                "lacks a transmitter or inheritor participant", {}, entity);
      return;
    }
    Result<const DbObject*> transmitter = store_.Get(transmitter_s);
    Result<const DbObject*> inheritor = store_.Get(inheritor_s);
    if (!transmitter.ok() || !inheritor.ok()) return;  // CAD101 already fired
    if ((*inheritor)->bound_inher_rel() != rel.surrogate()) {
      bag_->Add("CAD105", Severity::kError,
                "its inheritor " + Entity(**inheritor) +
                    " is bound to @" +
                    std::to_string((*inheritor)->bound_inher_rel().id) +
                    " instead",
                {}, entity);
    }
    const InherRelTypeDef* def = catalog.FindInherRelType(rel.type_name());
    if (def == nullptr) return;  // CAD104 already fired
    if ((*transmitter)->type_name() != def->transmitter_type) {
      bag_->Add("CAD105", Severity::kError,
                "transmitter " + Entity(**transmitter) +
                    " is not of required type '" + def->transmitter_type + "'",
                {}, entity);
    }
    if (!def->inheritor_type.empty() &&
        (*inheritor)->type_name() != def->inheritor_type) {
      bag_->Add("CAD105", Severity::kError,
                "inheritor " + Entity(**inheritor) +
                    " is not of required type '" + def->inheritor_type + "'",
                {}, entity);
    }
    const ObjectTypeDef* inheritor_type =
        catalog.FindObjectType((*inheritor)->type_name());
    if (inheritor_type != nullptr && inheritor_type->inheritor_in != def->name) {
      bag_->Add("CAD105", Severity::kError,
                "inheritor type '" + (*inheritor)->type_name() +
                    "' does not declare inheritor-in '" + def->name + "'",
                {}, entity);
    }
  }

  // CAD105: object-level inheritance cycles (each reported once).
  void CheckObjectCycles() {
    std::set<uint64_t> on_reported_cycle;
    for (Surrogate start : store_.AllObjects()) {
      Result<const DbObject*> obj = store_.Get(start);
      if (!obj.ok() || (*obj)->kind() != ObjKind::kObject) continue;
      std::map<uint64_t, size_t> pos;
      std::vector<uint64_t> path;
      Surrogate cur = start;
      while (cur.valid()) {
        auto seen = pos.find(cur.id);
        if (seen != pos.end()) {
          ReportObjectCycle(
              std::vector<uint64_t>(path.begin() + seen->second, path.end()),
              &on_reported_cycle);
          break;
        }
        pos[cur.id] = path.size();
        path.push_back(cur.id);
        Result<const DbObject*> node = store_.Get(cur);
        if (!node.ok() || !(*node)->bound_inher_rel().valid()) break;
        Result<const DbObject*> rel = store_.Get((*node)->bound_inher_rel());
        if (!rel.ok()) break;
        cur = (*rel)->Participant("transmitter");
      }
    }
  }

  void ReportObjectCycle(const std::vector<uint64_t>& cycle,
                         std::set<uint64_t>* on_reported_cycle) {
    for (uint64_t id : cycle) {
      if (on_reported_cycle->count(id) > 0) return;
    }
    on_reported_cycle->insert(cycle.begin(), cycle.end());
    uint64_t anchor = *std::min_element(cycle.begin(), cycle.end());
    std::string rendered;
    for (uint64_t id : cycle) rendered += "@" + std::to_string(id) + " -> ";
    rendered += "@" + std::to_string(cycle.front());
    bag_->Add("CAD105", Severity::kError,
              "object-level inheritance cycle: " + rendered, {},
              "object @" + std::to_string(anchor));
  }

  const ObjectStore& store_;
  DiagnosticBag* bag_;
};

}  // namespace

DiagnosticBag AnalyzeSchema(const Catalog& catalog) {
  DiagnosticBag bag;
  SchemaAnalyzer(catalog, &bag).Run();
  bag.Sort();
  return bag;
}

DiagnosticBag AnalyzeStore(const ObjectStore& store) {
  DiagnosticBag bag;
  StoreAnalyzer(store, &bag).Run();
  bag.Sort();
  return bag;
}

DiagnosticBag AnalyzeDatabase(const ObjectStore& store) {
  DiagnosticBag bag = AnalyzeSchema(store.catalog());
  bag.Merge(AnalyzeStore(store));
  bag.Sort();
  return bag;
}

}  // namespace analysis
}  // namespace caddb
