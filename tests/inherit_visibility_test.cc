#include <gtest/gtest.h>

#include "core/database.h"
#include "inherit/inheritance.h"

namespace caddb {
namespace {

/// View-semantics visibility on a 4-hop inheritance chain (two independent
/// copies of it, so rebinding across chains is observable):
///   L0 (A, B) --R1{A}--> L1 --R2{A}--> L2 --R3{A}--> L3 --R4{A}--> L4
/// Every inherited read walks the chain at access time, so each structural
/// or value change must be visible on the very next read.
class InheritVisibilityTest : public ::testing::Test {
 protected:
  static constexpr int kDepth = 4;

  InheritVisibilityTest() {
    std::string ddl = "obj-type L0 = attributes: A, B: integer; end L0;\n";
    for (int i = 1; i <= kDepth; ++i) {
      const std::string prev = "L" + std::to_string(i - 1);
      const std::string cur = "L" + std::to_string(i);
      const std::string rel = "R" + std::to_string(i);
      ddl += "inher-rel-type " + rel + " = transmitter: object-of-type " +
             prev + "; inheritor: object; inheriting: A; end " + rel + ";\n";
      ddl += "obj-type " + cur + " = inheritor-in: " + rel +
             "; attributes: C" + std::to_string(i) + ": integer; end " + cur +
             ";\n";
    }
    Status parsed = db_.ExecuteDdl(ddl);
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
    for (auto* chain : {&chain1_, &chain2_}) {
      for (int i = 0; i <= kDepth; ++i) {
        chain->push_back(db_.CreateObject("L" + std::to_string(i)).value());
      }
    }
  }

  /// Binds every link of `chain` and seeds the root's A.
  void BindChain(std::vector<Surrogate>& chain, int64_t root_value) {
    ASSERT_TRUE(db_.Set(chain[0], "A", Value::Int(root_value)).ok());
    for (int i = 1; i <= kDepth; ++i) {
      ASSERT_TRUE(
          db_.Bind(chain[i], chain[i - 1], "R" + std::to_string(i)).ok());
    }
  }

  InheritanceManager& inh() { return db_.inheritance(); }

  Database db_;
  std::vector<Surrogate> chain1_, chain2_;
};

TEST_F(InheritVisibilityTest, UnbindFallsBackToTypeLevel) {
  ASSERT_TRUE(db_.Set(chain1_[0], "A", Value::Int(42)).ok());
  ASSERT_TRUE(db_.Bind(chain1_[1], chain1_[0], "R1").ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 42);
  // Unbind touches the *inheritor*, not the transmitter.
  ASSERT_TRUE(db_.Unbind(chain1_[1]).ok());
  auto after = db_.Get(chain1_[1], "A");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->is_null()) << "unbound inheritor must see type level, "
                                << "not the transmitter's value";
}

TEST_F(InheritVisibilityTest, RebindToNewTransmitter) {
  ASSERT_TRUE(db_.Set(chain1_[0], "A", Value::Int(1)).ok());
  ASSERT_TRUE(db_.Set(chain2_[0], "A", Value::Int(2)).ok());
  ASSERT_TRUE(db_.Bind(chain1_[1], chain1_[0], "R1").ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 1);
  ASSERT_TRUE(db_.Unbind(chain1_[1]).ok());
  ASSERT_TRUE(db_.Bind(chain1_[1], chain2_[0], "R1").ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 2)
      << "rebinding must redirect the resolution";
}

TEST_F(InheritVisibilityTest, Depth4RootUpdateVisibleAtEveryHop) {
  BindChain(chain1_, 100);
  for (int64_t value : {101, 102, 103}) {
    ASSERT_TRUE(db_.Get(chain1_[kDepth], "A").ok());
    ASSERT_TRUE(db_.Set(chain1_[0], "A", Value::Int(value)).ok());
    EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), value)
        << "root update must be instantly visible 4 hops down";
    for (int i = 1; i < kDepth; ++i) {
      EXPECT_EQ(db_.Get(chain1_[i], "A")->AsInt(), value) << "hop " << i;
    }
  }
}

TEST_F(InheritVisibilityTest, MidChainRebindRedirectsDeepReads) {
  BindChain(chain1_, 10);
  BindChain(chain2_, 20);
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 10);
  // Splice chain1's suffix onto chain2: L2 of chain1 now hangs under
  // L1 of chain2, so the leaf must resolve to chain2's root value.
  ASSERT_TRUE(db_.Unbind(chain1_[2]).ok());
  ASSERT_TRUE(db_.Bind(chain1_[2], chain2_[1], "R2").ok());
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 20)
      << "deep read must follow the new mid-chain binding";
  ASSERT_TRUE(db_.Set(chain2_[0], "A", Value::Int(21)).ok());
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 21);
  // Splice back.
  ASSERT_TRUE(db_.Unbind(chain1_[2]).ok());
  ASSERT_TRUE(db_.Bind(chain1_[2], chain1_[1], "R2").ok());
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 10);
}

TEST_F(InheritVisibilityTest, SubclassResolutionFollowsMemberChanges) {
  Status parsed = db_.ExecuteDdl(R"(
    obj-type Part = attributes: P: integer; end Part;
    obj-type Holder =
      types-of-subclasses: Parts: Part;
    end Holder;
    inher-rel-type RH =
      transmitter: object-of-type Holder;
      inheritor: object;
      inheriting: Parts;
    end RH;
    obj-type Viewer = inheritor-in: RH; end Viewer;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  Surrogate holder = db_.CreateObject("Holder").value();
  Surrogate viewer = db_.CreateObject("Viewer").value();
  EXPECT_TRUE(db_.Subclass(viewer, "Parts")->empty()) << "unbound: no members";
  ASSERT_TRUE(db_.Bind(viewer, holder, "RH").ok());
  Surrogate part1 = db_.CreateSubobject(holder, "Parts").value();
  EXPECT_EQ(*db_.Subclass(viewer, "Parts"), std::vector<Surrogate>{part1});

  // Growing the transmitter's subclass is visible through the view...
  Surrogate part2 = db_.CreateSubobject(holder, "Parts").value();
  EXPECT_EQ(db_.Subclass(viewer, "Parts")->size(), 2u) << "no stale view";
  // ...and so is deleting a member.
  ASSERT_TRUE(db_.Delete(part2).ok());
  EXPECT_EQ(*db_.Subclass(viewer, "Parts"), std::vector<Surrogate>{part1});
}

TEST_F(InheritVisibilityTest, DdlRegistrationChangingPermeability) {
  BindChain(chain1_, 9);
  ASSERT_TRUE(db_.Set(chain1_[0], "B", Value::Int(5)).ok());
  EXPECT_EQ(db_.Get(chain1_[1], "A")->AsInt(), 9);
  EXPECT_FALSE(db_.Get(chain1_[1], "B").ok()) << "B is not permeable via R1";
  // New DDL bumps the catalog's schema epoch and drops every cached
  // effective schema; reads after it resolve against the new registry.
  ASSERT_TRUE(db_.ExecuteDdl("inher-rel-type RB = transmitter: "
                             "object-of-type L0; inheritor: object; "
                             "inheriting: A, B; end RB;\n"
                             "obj-type LB = inheritor-in: RB; end LB;")
                  .ok());
  EXPECT_EQ(db_.Get(chain1_[kDepth], "A")->AsInt(), 9);
  Surrogate wide = db_.CreateObject("LB").value();
  EXPECT_TRUE(db_.Get(wide, "B")->is_null()) << "unbound: structure only";
  ASSERT_TRUE(db_.Bind(wide, chain1_[0], "RB").ok());
  EXPECT_EQ(db_.Get(wide, "A")->AsInt(), 9);
  EXPECT_EQ(db_.Get(wide, "B")->AsInt(), 5) << "B is permeable via RB";
  ASSERT_TRUE(db_.Set(chain1_[0], "B", Value::Int(6)).ok());
  EXPECT_EQ(db_.Get(wide, "B")->AsInt(), 6);
}

TEST_F(InheritVisibilityTest, InheritorsOfReportsDirectInheritors) {
  BindChain(chain1_, 1);
  auto inheritors = inh().InheritorsOf(chain1_[0]);
  ASSERT_TRUE(inheritors.ok());
  ASSERT_EQ(inheritors->size(), 1u);
  EXPECT_EQ((*inheritors)[0], chain1_[1]);
  auto none = inh().InheritorsOf(chain1_[kDepth]);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace caddb
