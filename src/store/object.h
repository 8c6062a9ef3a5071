#ifndef CADDB_STORE_OBJECT_H_
#define CADDB_STORE_OBJECT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"
#include "values/value.h"

namespace caddb {

/// What a stored object represents. Relationships "are represented by
/// relationship objects" (paper section 3), so all three kinds live uniformly
/// in the store and carry surrogates, attributes and subclasses.
enum class ObjKind {
  kObject,
  kRelationship,
  kInherRel,  // an inheritance-relationship object (transmitter->inheritor)
};

const char* ObjKindName(ObjKind kind);

/// A stored instance: object, relationship object, or inheritance
/// relationship object. Pure data holder; all invariants (domains, schema
/// membership, read-only inherited attributes, cascade rules) are enforced by
/// ObjectStore and the inheritance manager.
class DbObject {
 public:
  DbObject(Surrogate surrogate, std::string type_name, ObjKind kind)
      : surrogate_(surrogate), type_name_(std::move(type_name)), kind_(kind) {}

  DbObject(const DbObject&) = delete;
  DbObject& operator=(const DbObject&) = delete;

  Surrogate surrogate() const { return surrogate_; }
  const std::string& type_name() const { return type_name_; }
  ObjKind kind() const { return kind_; }

  // ---- Containment (subobjects depend on the complex object) ----
  Surrogate parent() const { return parent_; }
  const std::string& parent_subclass() const { return parent_subclass_; }
  bool IsSubobject() const { return parent_.valid(); }
  void SetParent(Surrogate parent, std::string subclass) {
    parent_ = parent;
    parent_subclass_ = std::move(subclass);
  }

  // ---- Top-level class membership ----
  const std::string& class_name() const { return class_name_; }
  void set_class_name(std::string name) { class_name_ = std::move(name); }

  // ---- Attributes (local values only; inherited values are resolved by the
  //      inheritance manager, never stored here) ----
  const std::map<std::string, Value>& attributes() const { return attrs_; }
  /// Null if unset.
  Value LocalAttribute(const std::string& name) const;
  void SetLocalAttribute(const std::string& name, Value v);
  bool HasLocalAttribute(const std::string& name) const;

  // ---- Local subclasses (object subclasses and relationship subclasses) ----
  const std::map<std::string, std::vector<Surrogate>>& subclasses() const {
    return subclasses_;
  }
  const std::map<std::string, std::vector<Surrogate>>& subrels() const {
    return subrels_;
  }
  const std::vector<Surrogate>* Subclass(const std::string& name) const;
  const std::vector<Surrogate>* Subrel(const std::string& name) const;
  void AddToSubclass(const std::string& name, Surrogate member);
  void AddToSubrel(const std::string& name, Surrogate member);
  bool RemoveFromSubclass(const std::string& name, Surrogate member);
  bool RemoveFromSubrel(const std::string& name, Surrogate member);

  // ---- Relationship participants (kRelationship / kInherRel) ----
  const std::map<std::string, std::vector<Surrogate>>& participants() const {
    return participants_;
  }
  const std::vector<Surrogate>* Participants(const std::string& role) const;
  /// First participant of `role`; Invalid if none.
  Surrogate Participant(const std::string& role) const;
  void SetParticipants(const std::string& role, std::vector<Surrogate> ss);

  // ---- Inheritance binding (inheritor side) ----
  /// Surrogate of the inher-rel object binding this object to its
  /// transmitter; Invalid when unbound (type-level inheritance only).
  Surrogate bound_inher_rel() const { return bound_inher_rel_; }
  void set_bound_inher_rel(Surrogate s) { bound_inher_rel_ = s; }

  /// Local-update counter; bumped by the store on every mutation. Persisted
  /// with the object; workspace check-in and the copy-import baseline
  /// compare it to detect changes.
  uint64_t version() const { return version_; }
  void BumpVersion() { ++version_; }
  /// Restores a persisted counter; only the page codec may call this.
  void set_version(uint64_t v) { version_ = v; }

 private:
  Surrogate surrogate_;
  std::string type_name_;
  ObjKind kind_;

  Surrogate parent_;
  std::string parent_subclass_;
  std::string class_name_;

  std::map<std::string, Value> attrs_;
  std::map<std::string, std::vector<Surrogate>> subclasses_;
  std::map<std::string, std::vector<Surrogate>> subrels_;
  std::map<std::string, std::vector<Surrogate>> participants_;

  Surrogate bound_inher_rel_;
  uint64_t version_ = 0;
};

}  // namespace caddb

#endif  // CADDB_STORE_OBJECT_H_
