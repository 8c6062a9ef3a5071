// The benchmark's data and its model. Deep transmitter chains come from the
// program's own generator (its return value records every root value it
// wrote); the steel yard is built here so that every value and every
// girder-to-interface binding is known to the benchmark without reading it
// back from the database.
#include <algorithm>
#include <cctype>
#include <sstream>

#include "core/paper_schemas.h"
#include "ledger.h"
#include "workload/scenario.h"

namespace ledger {

using caddb::Result;
using caddb::Status;
using caddb::Value;

int64_t Model::NewLength(size_t iface, std::mt19937_64* rng) const {
  const int64_t cap = 100 * iface_height[iface] * iface_width[iface] / 2;
  return 1 + static_cast<int64_t>((*rng)() % static_cast<uint64_t>(cap));
}

namespace {

constexpr int64_t kBoreDiameter = 9;
constexpr int64_t kBoreLength = 20;
constexpr int64_t kNutLength = 5;
constexpr int64_t kPartDiameter = 8;

Status AddBores(Database* db, Surrogate owner, std::mt19937_64* rng) {
  for (int b = 0; b < 2; ++b) {
    CADDB_ASSIGN_OR_RETURN(Surrogate bore, db->CreateSubobject(owner, "Bores"));
    CADDB_RETURN_IF_ERROR(db->Set(bore, "Diameter", Value::Int(kBoreDiameter)));
    CADDB_RETURN_IF_ERROR(db->Set(bore, "Length", Value::Int(kBoreLength)));
    CADDB_RETURN_IF_ERROR(db->Set(
        bore, "Position",
        Value::Point(static_cast<int64_t>((*rng)() % 1000),
                     static_cast<int64_t>((*rng)() % 1000))));
  }
  return caddb::OkStatus();
}

}  // namespace

Result<Model> Populate(Database* db, const PopulationSizes& sizes,
                       uint32_t seed) {
  Model model;
  model.depth = sizes.depth;
  if (sizes.chains > 0) {
    caddb::workload::HierarchyParams hp;
    hp.seed = seed;
    hp.depth = sizes.depth;
    hp.chains = sizes.chains;
    CADDB_ASSIGN_OR_RETURN(caddb::workload::Hierarchy h,
                           caddb::workload::GenerateDeepHierarchy(db, hp));
    for (size_t c = 0; c < h.chain_nodes.size(); ++c) {
      ChainModel chain;
      chain.nodes = std::move(h.chain_nodes[c]);
      chain.root_value = h.root_values[c];
      model.chains.push_back(std::move(chain));
    }
  }
  if (sizes.structures <= 0) return model;

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  CADDB_RETURN_IF_ERROR(db->ExecuteDdl(caddb::schemas::kSteel));
  std::vector<Surrogate> bolts, nuts, plate_ifaces;
  for (int i = 0; i < sizes.parts; ++i) {
    CADDB_ASSIGN_OR_RETURN(Surrogate bolt, db->CreateObject("BoltType"));
    CADDB_RETURN_IF_ERROR(
        db->Set(bolt, "Length", Value::Int(kNutLength + 2 * kBoreLength)));
    CADDB_RETURN_IF_ERROR(db->Set(bolt, "Diameter", Value::Int(kPartDiameter)));
    CADDB_ASSIGN_OR_RETURN(Surrogate nut, db->CreateObject("NutType"));
    CADDB_RETURN_IF_ERROR(db->Set(nut, "Length", Value::Int(kNutLength)));
    CADDB_RETURN_IF_ERROR(db->Set(nut, "Diameter", Value::Int(kPartDiameter)));
    bolts.push_back(bolt);
    nuts.push_back(nut);
  }
  for (int i = 0; i < sizes.girder_ifaces; ++i) {
    CADDB_ASSIGN_OR_RETURN(Surrogate iface,
                           db->CreateObject("GirderInterface"));
    model.ifaces.push_back(iface);
    model.iface_height.push_back(10 + static_cast<int64_t>(rng() % 20));
    model.iface_width.push_back(5 + static_cast<int64_t>(rng() % 10));
    model.iface_length.push_back(
        model.NewLength(model.ifaces.size() - 1, &rng));
    CADDB_RETURN_IF_ERROR(
        db->Set(iface, "Length", Value::Int(model.iface_length.back())));
    CADDB_RETURN_IF_ERROR(
        db->Set(iface, "Height", Value::Int(model.iface_height.back())));
    CADDB_RETURN_IF_ERROR(
        db->Set(iface, "Width", Value::Int(model.iface_width.back())));
    CADDB_RETURN_IF_ERROR(AddBores(db, iface, &rng));
  }
  for (int i = 0; i < sizes.plate_ifaces; ++i) {
    CADDB_ASSIGN_OR_RETURN(Surrogate iface, db->CreateObject("PlateInterface"));
    CADDB_RETURN_IF_ERROR(db->Set(
        iface, "Thickness", Value::Int(10 + static_cast<int64_t>(rng() % 30))));
    CADDB_RETURN_IF_ERROR(AddBores(db, iface, &rng));
    plate_ifaces.push_back(iface);
  }

  model.lots = (sizes.structures + sizes.lot_size - 1) / sizes.lot_size;
  for (int lot = 0; lot < model.lots; ++lot) {
    CADDB_RETURN_IF_ERROR(
        db->CreateClass(Model::LotName(lot), "WeightCarrying_Structure"));
  }
  for (int s = 0; s < sizes.structures; ++s) {
    StructureModel st;
    st.lot = s / sizes.lot_size;
    CADDB_ASSIGN_OR_RETURN(
        st.id, db->CreateObject("WeightCarrying_Structure",
                                Model::LotName(st.lot)));
    st.designer = "designer-" + std::to_string(rng() % 1000);
    CADDB_RETURN_IF_ERROR(
        db->Set(st.id, "Designer", Value::String(st.designer)));
    std::vector<Surrogate> members;
    for (int g = 0; g < sizes.girders_per_structure; ++g) {
      CADDB_ASSIGN_OR_RETURN(Surrogate girder,
                             db->CreateSubobject(st.id, "Girders"));
      const int iface = static_cast<int>(rng() % model.ifaces.size());
      CADDB_RETURN_IF_ERROR(
          db->Bind(girder, model.ifaces[iface], "AllOf_GirderIf").status());
      st.girders.push_back(girder);
      st.girder_iface.push_back(iface);
      members.push_back(girder);
    }
    if (!plate_ifaces.empty()) {
      CADDB_ASSIGN_OR_RETURN(Surrogate plate,
                             db->CreateSubobject(st.id, "Plates"));
      CADDB_RETURN_IF_ERROR(
          db->Bind(plate, plate_ifaces[rng() % plate_ifaces.size()],
                   "AllOf_PlateIf")
              .status());
      members.push_back(plate);
    }
    // Screwings tie two of the structure's (inherited) member bores to one
    // catalog bolt/nut pair, as in the paper's section 5 yard.
    std::vector<Surrogate> member_bores;
    for (Surrogate member : members) {
      CADDB_ASSIGN_OR_RETURN(std::vector<Surrogate> bores,
                             db->Subclass(member, "Bores"));
      member_bores.insert(member_bores.end(), bores.begin(), bores.end());
    }
    for (int w = 0;
         w < sizes.screwings_per_structure && member_bores.size() >= 2; ++w) {
      const size_t first = rng() % member_bores.size();
      const size_t second = (first + 1 + rng() % (member_bores.size() - 1)) %
                            member_bores.size();
      CADDB_ASSIGN_OR_RETURN(
          Surrogate screwing,
          db->CreateSubrel(
              st.id, "Screwings",
              {{"Bores", {member_bores[first], member_bores[second]}}}));
      CADDB_RETURN_IF_ERROR(
          db->Set(screwing, "Strength",
                  Value::Int(50 + static_cast<int64_t>(rng() % 50))));
      const size_t part = rng() % bolts.size();
      CADDB_ASSIGN_OR_RETURN(Surrogate bolt_slot,
                             db->CreateSubobject(screwing, "Bolt"));
      CADDB_RETURN_IF_ERROR(
          db->Bind(bolt_slot, bolts[part], "AllOf_BoltType").status());
      CADDB_ASSIGN_OR_RETURN(Surrogate nut_slot,
                             db->CreateSubobject(screwing, "Nut"));
      CADDB_RETURN_IF_ERROR(
          db->Bind(nut_slot, nuts[part], "AllOf_NutType").status());
    }
    model.structures.push_back(std::move(st));
  }
  return model;
}

namespace {

bool IntEquals(const Database& db, Surrogate s, const std::string& attr,
               int64_t want) {
  Result<Value> v = db.Get(s, attr);
  return v.ok() && v->kind() == Value::Kind::kInt && v->AsInt() == want;
}

}  // namespace

uint64_t VerifyAgainstModel(const Database& db, const Model& model,
                            const char* oracle, std::string* why) {
  uint64_t bad = 0;
  auto note = [&](const std::string& what) {
    if (bad++ == 0 && why != nullptr) *why = what;
  };
  for (size_t c = 0; c < model.chains.size(); ++c) {
    const ChainModel& chain = model.chains[c];
    const int64_t want = Expect(chain.root_value, oracle);
    for (Surrogate node : {chain.nodes.front(), chain.nodes.back()}) {
      if (!IntEquals(db, node, "A", want)) {
        note("chain " + std::to_string(c) + " node @" +
             std::to_string(node.id) + " A != " + std::to_string(want));
      }
    }
  }
  for (size_t i = 0; i < model.ifaces.size(); ++i) {
    if (!IntEquals(db, model.ifaces[i], "Length",
                   Expect(model.iface_length[i], oracle))) {
      note("interface @" + std::to_string(model.ifaces[i].id) + " Length");
    }
  }
  for (const StructureModel& st : model.structures) {
    Result<Value> designer = db.Get(st.id, "Designer");
    if (!designer.ok() || designer->kind() != Value::Kind::kString ||
        designer->AsString() != st.designer) {
      note("structure @" + std::to_string(st.id.id) + " Designer");
    }
    for (size_t g = 0; g < st.girders.size(); ++g) {
      if (!IntEquals(db, st.girders[g], "Length",
                     Expect(model.iface_length[st.girder_iface[g]], oracle))) {
        note("girder @" + std::to_string(st.girders[g].id) + " Length");
      }
    }
  }
  return bad;
}

namespace {

/// Structure id -> its girders' distinct lengths, sorted.
std::map<uint64_t, std::vector<int64_t>> ExpectedLotSelect(const Model& model,
                                                           int lot) {
  std::map<uint64_t, std::vector<int64_t>> out;
  for (const StructureModel& st : model.structures) {
    if (st.lot != lot) continue;
    std::vector<int64_t>& lengths = out[st.id.id];
    for (int iface : st.girder_iface) {
      lengths.push_back(Expect(model.iface_length[iface], "select"));
    }
    // The projection of a multi-valued path is a set: girders bound to
    // interfaces of equal length contribute one value.
    std::sort(lengths.begin(), lengths.end());
    lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  }
  return out;
}

}  // namespace

bool CheckSelectTable(const std::string& table, const Model& model, int lot,
                      std::string* why) {
  std::map<uint64_t, std::vector<int64_t>> want = ExpectedLotSelect(model, lot);
  std::map<uint64_t, std::vector<int64_t>> got;
  std::istringstream in(table);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '@') continue;
    size_t pos = 1;
    uint64_t id = 0;
    while (pos < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[pos]))) {
      id = id * 10 + static_cast<uint64_t>(line[pos++] - '0');
    }
    std::vector<int64_t>& values = got[id];
    while (pos < line.size()) {
      if (std::isdigit(static_cast<unsigned char>(line[pos]))) {
        int64_t v = 0;
        while (pos < line.size() &&
               std::isdigit(static_cast<unsigned char>(line[pos]))) {
          v = v * 10 + (line[pos++] - '0');
        }
        values.push_back(v);
      } else {
        ++pos;
      }
    }
    std::sort(values.begin(), values.end());
  }
  if (got == want) return true;
  if (why != nullptr) {
    *why = "select " + Model::LotName(lot) + ": " + std::to_string(got.size()) +
           " rows, expected " + std::to_string(want.size()) +
           " rows with the model's girder lengths";
  }
  return false;
}

}  // namespace ledger
