#ifndef CADDB_INHERIT_INHERITANCE_H_
#define CADDB_INHERIT_INHERITANCE_H_

#include <map>
#include <string>
#include <vector>

#include "inherit/notification.h"
#include "obs/observability.h"
#include "store/store.h"
#include "util/result.h"
#include "values/value.h"

namespace caddb {

/// The value-inheritance engine — the paper's central mechanism (section 4).
///
/// Reads of inherited attributes/subclasses resolve *through* the inheritance
/// chain to the transmitter at access time ("any update of the original data
/// is instantly visible in the composite object", section 2). Nothing is
/// copied; an unbound inheritor sees only the attribute structure (type-level
/// inheritance = generalization). Writes to the transmitter append change
/// records to every affected inheritance relationship, transitively, for the
/// adaptation workflow.
///
/// There is exactly one read path: every inherited read walks the chain.
/// No resolved value is memoized, so there is nothing to invalidate.
class InheritanceManager {
 public:
  /// Neither pointer is owned; both must outlive the manager.
  /// `notifications` may be null (no change logging). `obs` (not owned)
  /// receives resolution counters and trace spans; null falls back to the
  /// process-global obs::Default() bundle.
  InheritanceManager(ObjectStore* store, NotificationCenter* notifications,
                     obs::Observability* obs = nullptr);

  InheritanceManager(const InheritanceManager&) = delete;
  InheritanceManager& operator=(const InheritanceManager&) = delete;

  // ---- Binding ----
  /// Binds `inheritor` to `transmitter` through `inher_rel_type`; returns the
  /// surrogate of the new inheritance-relationship object.
  Result<Surrogate> Bind(Surrogate inheritor, Surrogate transmitter,
                         const std::string& inher_rel_type);
  Status Unbind(Surrogate inheritor);
  /// The bound transmitter, or Invalid when unbound. NotFound if `inheritor`
  /// does not exist.
  Result<Surrogate> TransmitterOf(Surrogate inheritor) const;
  /// The inheritance-relationship object binding `inheritor`, or Invalid.
  Result<Surrogate> BindingOf(Surrogate inheritor) const;
  /// All inheritors directly bound to `transmitter`. InternalError when the
  /// where-used index names an inheritance relationship the store cannot
  /// produce (index corruption must surface, not silently shrink results).
  Result<std::vector<Surrogate>> InheritorsOf(Surrogate transmitter) const;

  // ---- Inheritance-aware access ----
  /// Effective attribute read: local value for own attributes, transmitter
  /// resolution for inherited ones (null when unbound).
  Result<Value> GetAttribute(Surrogate s, const std::string& name) const;
  /// Effective subclass read: local members for own subclasses, the
  /// transmitter's members (read-only view) for inherited ones.
  Result<std::vector<Surrogate>> GetSubclass(Surrogate s,
                                             const std::string& name) const;
  /// Store write plus transitive change notification to all inheritance
  /// relationships for which `name` is permeable.
  Status SetAttribute(Surrogate s, const std::string& name, Value v);
  /// Store subobject creation plus change notification for the subclass.
  Result<Surrogate> CreateSubobject(Surrogate parent,
                                    const std::string& subclass_name);
  /// Deletes a subobject (or any object) and notifies inheritors watching the
  /// containing subclass.
  Status DeleteObject(Surrogate s, ObjectStore::DeletePolicy policy =
                                       ObjectStore::DeletePolicy::kRestrict);

  /// Snapshot of every effective attribute (inherited values materialized).
  /// Used by the copy-import baseline and workspace checkout.
  Result<std::map<std::string, Value>> Snapshot(Surrogate s) const;

  NotificationCenter* notifications() const { return notifications_; }
  ObjectStore* store() const { return store_; }

 private:
  /// Follows the transmitter chain from `obj` (whose effective schema is
  /// `schema`) to the first node holding `item` as its own local data:
  /// `obj` itself when `item` is not inherited there. Null when the chain
  /// ends at an unbound inheritor, which sees only the structure of `item`.
  Result<const DbObject*> TerminalOf(const DbObject* obj,
                                     const EffectiveSchema* schema,
                                     const std::string& item) const;

  /// Recursively notifies the inheritance relationships hanging off
  /// `transmitter` about a change of permeable item `item`.
  void NotifyChange(Surrogate transmitter, const std::string& item);

  ObjectStore* store_;
  NotificationCenter* notifications_;

  /// Resolution counter and the trace-gated resolve timing.
  obs::Observability* obs_;
  obs::Counter* m_resolutions_;
  obs::Histogram* m_resolve_us_;
};

}  // namespace caddb

#endif  // CADDB_INHERIT_INHERITANCE_H_
