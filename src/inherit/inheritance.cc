#include "inherit/inheritance.h"

namespace caddb {

InheritanceManager::InheritanceManager(ObjectStore* store,
                                       NotificationCenter* notifications,
                                       obs::Observability* obs)
    : store_(store),
      notifications_(notifications),
      obs_(obs != nullptr ? obs : obs::Default()) {
  m_resolutions_ = obs_->metrics.GetCounter(
      "caddb_inherit_resolutions_total",
      "Inherited attribute/subclass reads resolved");
  m_resolve_us_ = obs_->metrics.GetHistogram(
      "caddb_inherit_resolve_us",
      "Inherited read latency; recorded only while tracing is enabled");
}

Result<Surrogate> InheritanceManager::Bind(Surrogate inheritor,
                                           Surrogate transmitter,
                                           const std::string& inher_rel_type) {
  return store_->CreateInherRel(inher_rel_type, transmitter, inheritor);
}

Status InheritanceManager::Unbind(Surrogate inheritor) {
  Result<Surrogate> rel = BindingOf(inheritor);
  CADDB_RETURN_IF_ERROR(store_->Unbind(inheritor));
  if (rel.ok() && rel->valid() && notifications_ != nullptr) {
    notifications_->Forget(*rel);
  }
  return OkStatus();
}

Result<Surrogate> InheritanceManager::TransmitterOf(
    Surrogate inheritor) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(inheritor));
  Surrogate rel_s = obj->bound_inher_rel();
  if (!rel_s.valid()) return Surrogate::Invalid();
  CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
  return rel->Participant("transmitter");
}

Result<Surrogate> InheritanceManager::BindingOf(Surrogate inheritor) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(inheritor));
  return obj->bound_inher_rel();
}

Result<std::vector<Surrogate>> InheritanceManager::InheritorsOf(
    Surrogate transmitter) const {
  std::vector<Surrogate> out;
  for (Surrogate rel_s : store_->InherRelsOfTransmitter(transmitter)) {
    Result<const DbObject*> rel = store_->Get(rel_s);
    if (!rel.ok()) {
      return InternalError(
          "where-used index names inher-rel @" + std::to_string(rel_s.id) +
          " of transmitter @" + std::to_string(transmitter.id) +
          " which the store cannot produce: " + rel.status().ToString());
    }
    out.push_back((*rel)->Participant("inheritor"));
  }
  return out;
}

Result<const DbObject*> InheritanceManager::TerminalOf(
    const DbObject* obj, const EffectiveSchema* schema,
    const std::string& item) const {
  while (schema->IsInherited(item)) {
    Surrogate rel_s = obj->bound_inher_rel();
    if (!rel_s.valid()) return nullptr;
    CADDB_ASSIGN_OR_RETURN(const DbObject* rel, store_->Get(rel_s));
    CADDB_ASSIGN_OR_RETURN(obj, store_->Get(rel->Participant("transmitter")));
    CADDB_ASSIGN_OR_RETURN(
        schema, store_->catalog().FindEffectiveSchema(obj->type_name()));
  }
  return obj;
}

Result<Value> InheritanceManager::GetAttribute(Surrogate s,
                                               const std::string& name) const {
  // Trace-gated on purpose: this is the hottest read path, so the clock
  // only runs (and the histogram only fills) while tracing is enabled.
  obs::Span span(&obs_->trace, "inherit.get_attribute", m_resolve_us_);
  span.AddAttribute("attr", name);
  m_resolutions_->Increment();
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(s));

  if (obj->kind() != ObjKind::kObject) {
    // Relationship objects have no inherited attributes.
    return store_->GetLocalAttribute(s, name);
  }

  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* schema,
      store_->catalog().FindEffectiveSchema(obj->type_name()));
  if (schema->FindAttribute(name) == nullptr) {
    return NotFound("type '" + obj->type_name() + "' has no attribute '" +
                    name + "'");
  }
  // Own attributes are read locally; inherited ones resolve through the
  // transmitter chain (view semantics). Unbound inheritors only inherit the
  // attribute *structure*, so the value is null.
  CADDB_ASSIGN_OR_RETURN(const DbObject* terminal,
                         TerminalOf(obj, schema, name));
  return terminal == nullptr ? Value::Null() : terminal->LocalAttribute(name);
}

Result<std::vector<Surrogate>> InheritanceManager::GetSubclass(
    Surrogate s, const std::string& name) const {
  obs::Span span(&obs_->trace, "inherit.get_subclass", m_resolve_us_);
  span.AddAttribute("subclass", name);
  m_resolutions_->Increment();
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(s));

  if (obj->kind() != ObjKind::kObject) {
    const std::vector<Surrogate>* members = obj->Subclass(name);
    if (members != nullptr) return *members;
    // Relationship subclasses are declared in the rel / inher-rel type.
    const RelTypeDef* rel_def =
        store_->catalog().FindRelType(obj->type_name());
    if (rel_def != nullptr && rel_def->FindSubclass(name) != nullptr) {
      return std::vector<Surrogate>{};
    }
    const InherRelTypeDef* inher_def =
        store_->catalog().FindInherRelType(obj->type_name());
    if (inher_def != nullptr) {
      for (const auto& sub : inher_def->subclasses) {
        if (sub.name == name) return std::vector<Surrogate>{};
      }
    }
    return NotFound("type '" + obj->type_name() + "' has no subclass '" +
                    name + "'");
  }

  CADDB_ASSIGN_OR_RETURN(
      const EffectiveSchema* schema,
      store_->catalog().FindEffectiveSchema(obj->type_name()));
  if (schema->FindSubclass(name) == nullptr) {
    return NotFound("type '" + obj->type_name() + "' has no subclass '" +
                    name + "'");
  }
  // Same walk as GetAttribute: an inherited member list is the terminal
  // transmitter's local subclass, viewed read-only through the chain.
  CADDB_ASSIGN_OR_RETURN(const DbObject* terminal,
                         TerminalOf(obj, schema, name));
  const std::vector<Surrogate>* members =
      terminal == nullptr ? nullptr : terminal->Subclass(name);
  return members == nullptr ? std::vector<Surrogate>{} : *members;
}

void InheritanceManager::NotifyChange(Surrogate transmitter,
                                      const std::string& item) {
  for (Surrogate rel_s : store_->InherRelsOfTransmitter(transmitter)) {
    Result<const DbObject*> rel = store_->Get(rel_s);
    if (!rel.ok()) continue;
    const InherRelTypeDef* def =
        store_->catalog().FindInherRelType((*rel)->type_name());
    if (def == nullptr || !def->Permeable(item)) continue;
    if (notifications_ != nullptr) {
      notifications_->Record(rel_s, transmitter, item);
    }
    // The inheritor's *inherited* view of `item` changed, which in turn is
    // visible to the inheritor's own inheritors if permeable there.
    NotifyChange((*rel)->Participant("inheritor"), item);
  }
}

Status InheritanceManager::SetAttribute(Surrogate s, const std::string& name,
                                        Value v) {
  CADDB_RETURN_IF_ERROR(store_->SetAttribute(s, name, std::move(v)));
  NotifyChange(s, name);
  return OkStatus();
}

Result<Surrogate> InheritanceManager::CreateSubobject(
    Surrogate parent, const std::string& subclass_name) {
  CADDB_ASSIGN_OR_RETURN(Surrogate s,
                         store_->CreateSubobject(parent, subclass_name));
  NotifyChange(parent, subclass_name);
  return s;
}

Status InheritanceManager::DeleteObject(Surrogate s,
                                        ObjectStore::DeletePolicy policy) {
  // Capture the containment context before deletion for the notification.
  Surrogate parent = Surrogate::Invalid();
  std::string subclass;
  Result<const DbObject*> obj = store_->Get(s);
  if (obj.ok() && (*obj)->IsSubobject()) {
    parent = (*obj)->parent();
    subclass = (*obj)->parent_subclass();
  }
  CADDB_RETURN_IF_ERROR(store_->Delete(s, policy));
  if (parent.valid() && !subclass.empty() && store_->Exists(parent)) {
    NotifyChange(parent, subclass);
  }
  return OkStatus();
}

Result<std::map<std::string, Value>> InheritanceManager::Snapshot(
    Surrogate s) const {
  CADDB_ASSIGN_OR_RETURN(const DbObject* obj, store_->Get(s));
  std::map<std::string, Value> out;
  if (obj->kind() == ObjKind::kObject) {
    CADDB_ASSIGN_OR_RETURN(
        const EffectiveSchema* schema,
        store_->catalog().FindEffectiveSchema(obj->type_name()));
    for (const AttributeDef& a : schema->attributes) {
      CADDB_ASSIGN_OR_RETURN(Value v, GetAttribute(s, a.name));
      out[a.name] = std::move(v);
    }
  } else {
    out = obj->attributes();
  }
  return out;
}

}  // namespace caddb
