#include "inherit/inheritance.h"

#include <gtest/gtest.h>

#include "core/database.h"

namespace caddb {
namespace {

/// Inheritance-engine tests on a 3-level hierarchy:
/// Top (A, B) --R1{A}--> Mid (C) --R2{A, C}--> Leaf (D)
class InheritTest : public ::testing::Test {
 protected:
  InheritTest() {
    Status parsed = db_.ExecuteDdl(R"(
      obj-type Top =
        attributes: A, B: integer;
      end Top;
      inher-rel-type R1 =
        transmitter: object-of-type Top;
        inheritor: object;
        inheriting: A;
      end R1;
      obj-type Mid =
        inheritor-in: R1;
        attributes: C: integer;
      end Mid;
      inher-rel-type R2 =
        transmitter: object-of-type Mid;
        inheritor: object;
        inheriting: A, C;
      end R2;
      obj-type Leaf =
        inheritor-in: R2;
        attributes: D: integer;
      end Leaf;
    )");
    EXPECT_TRUE(parsed.ok()) << parsed.ToString();
    top_ = db_.CreateObject("Top").value();
    mid_ = db_.CreateObject("Mid").value();
    leaf_ = db_.CreateObject("Leaf").value();
  }

  Database db_;
  Surrogate top_, mid_, leaf_;
};

TEST_F(InheritTest, UnboundInheritorSeesStructureOnly) {
  // Type-level inheritance (generalization): attribute exists, value null.
  auto a = db_.Get(mid_, "A");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->is_null());
  // B is not permeable, so it doesn't even exist on Mid.
  EXPECT_EQ(db_.Get(mid_, "B").status().code(), Code::kNotFound);
}

TEST_F(InheritTest, BoundInheritorSeesTransmitterValue) {
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(7)).ok());
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  EXPECT_EQ(db_.Get(mid_, "A")->AsInt(), 7);
  // View semantics: update is instantly visible.
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(8)).ok());
  EXPECT_EQ(db_.Get(mid_, "A")->AsInt(), 8);
}

TEST_F(InheritTest, ChainResolvesTransitively) {
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(1)).ok());
  ASSERT_TRUE(db_.Set(mid_, "C", Value::Int(2)).ok());
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  ASSERT_TRUE(db_.Bind(leaf_, mid_, "R2").ok());
  EXPECT_EQ(db_.Get(leaf_, "A")->AsInt(), 1) << "two hops";
  EXPECT_EQ(db_.Get(leaf_, "C")->AsInt(), 2) << "one hop";
  // Update at the very top propagates to the leaf instantly.
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(10)).ok());
  EXPECT_EQ(db_.Get(leaf_, "A")->AsInt(), 10);
}

TEST_F(InheritTest, PartialChainYieldsNullBeyondGap) {
  // Leaf bound to Mid, but Mid unbound: A resolves to null at the gap.
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(1)).ok());
  ASSERT_TRUE(db_.Bind(leaf_, mid_, "R2").ok());
  EXPECT_TRUE(db_.Get(leaf_, "A")->is_null());
  // Closing the gap makes the value flow.
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  EXPECT_EQ(db_.Get(leaf_, "A")->AsInt(), 1);
}

TEST_F(InheritTest, InheritedWritesRejectedEverywhere) {
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  EXPECT_EQ(db_.Set(mid_, "A", Value::Int(9)).code(),
            Code::kInheritedReadOnly);
  // Own attributes stay writable.
  EXPECT_TRUE(db_.Set(mid_, "C", Value::Int(9)).ok());
}

TEST_F(InheritTest, TransmitterOfAndInheritorsOf) {
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  EXPECT_EQ(*db_.inheritance().TransmitterOf(mid_), top_);
  EXPECT_FALSE(db_.inheritance().TransmitterOf(top_)->valid());
  auto inheritors = db_.inheritance().InheritorsOf(top_);
  ASSERT_TRUE(inheritors.ok());
  ASSERT_EQ(inheritors->size(), 1u);
  EXPECT_EQ((*inheritors)[0], mid_);
}

TEST_F(InheritTest, NotificationsFollowPermeabilityTransitively) {
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  ASSERT_TRUE(db_.Bind(leaf_, mid_, "R2").ok());
  Surrogate rel_mid = *db_.inheritance().BindingOf(mid_);
  Surrogate rel_leaf = *db_.inheritance().BindingOf(leaf_);

  // A is permeable through both relationships: both logs get a record.
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(5)).ok());
  EXPECT_EQ(db_.notifications().PendingFor(rel_mid).size(), 1u);
  EXPECT_EQ(db_.notifications().PendingFor(rel_leaf).size(), 1u);
  EXPECT_EQ(db_.notifications().PendingFor(rel_leaf)[0].item, "A");

  // B is not permeable: no notifications at all.
  ASSERT_TRUE(db_.Set(top_, "B", Value::Int(5)).ok());
  EXPECT_EQ(db_.notifications().PendingFor(rel_mid).size(), 1u);

  // C changes only concern the leaf.
  ASSERT_TRUE(db_.Set(mid_, "C", Value::Int(5)).ok());
  EXPECT_EQ(db_.notifications().PendingFor(rel_mid).size(), 1u);
  EXPECT_EQ(db_.notifications().PendingFor(rel_leaf).size(), 2u);

  // Acknowledge clears.
  db_.notifications().Acknowledge(rel_leaf);
  EXPECT_TRUE(db_.notifications().PendingFor(rel_leaf).empty());
  // AsValue renders records.
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(6)).ok());
  Value log = db_.notifications().AsValue(rel_leaf);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.elements()[0].Field_("Item")->AsString(), "A");
}

TEST_F(InheritTest, ObjectLevelCycleRejected) {
  // Type-level would be Top->Mid->Leaf, acyclic; object cycles need types
  // that close a loop, so check the direct self-bind guard instead.
  Status self_loop = db_.Bind(mid_, mid_, "R1").status();
  // mid_ is not of transmitter type Top, so this is a type error; build the
  // real cycle with two Mid-typed objects through a Top in between is
  // impossible in this schema. The store's cycle walk is exercised in
  // integration tests; here we at least pin the self-bind failure.
  EXPECT_FALSE(self_loop.ok());
}

TEST_F(InheritTest, SnapshotMaterializesInheritedValues) {
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(3)).ok());
  ASSERT_TRUE(db_.Set(mid_, "C", Value::Int(4)).ok());
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  auto snapshot = db_.inheritance().Snapshot(mid_);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->at("A"), Value::Int(3));
  EXPECT_EQ(snapshot->at("C"), Value::Int(4));
  EXPECT_EQ(snapshot->size(), 2u);
}

TEST_F(InheritTest, RepeatedReadsSeeTransmitterUpdates) {
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(3)).ok());
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  EXPECT_EQ(db_.Get(mid_, "A")->AsInt(), 3);
  EXPECT_EQ(db_.Get(mid_, "A")->AsInt(), 3);
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(4)).ok());
  EXPECT_EQ(db_.Get(mid_, "A")->AsInt(), 4) << "no stale read";
}

TEST_F(InheritTest, UnbindRestoresTypeLevelOnly) {
  ASSERT_TRUE(db_.Set(top_, "A", Value::Int(3)).ok());
  ASSERT_TRUE(db_.Bind(mid_, top_, "R1").ok());
  EXPECT_EQ(db_.Get(mid_, "A")->AsInt(), 3);
  ASSERT_TRUE(db_.Unbind(mid_).ok());
  EXPECT_TRUE(db_.Get(mid_, "A")->is_null());
  // The inher-rel object is gone from the store.
  EXPECT_TRUE(db_.store().InherRelsOfTransmitter(top_).empty());
}

TEST_F(InheritTest, DeleteObjectNotifiesSubclassWatchers) {
  // Schema with an inheritable subclass.
  Status parsed = db_.ExecuteDdl(R"(
    obj-type Part = attributes: P: integer; end Part;
    obj-type Holder =
      attributes: H: integer;
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
  ASSERT_TRUE(db_.Bind(viewer, holder, "RH").ok());
  Surrogate rel = *db_.inheritance().BindingOf(viewer);

  Surrogate part = db_.CreateSubobject(holder, "Parts").value();
  EXPECT_EQ(db_.notifications().PendingFor(rel).size(), 1u)
      << "creation notifies";
  EXPECT_EQ(db_.Subclass(viewer, "Parts")->size(), 1u)
      << "inherited subclass view";
  ASSERT_TRUE(db_.Delete(part).ok());
  EXPECT_EQ(db_.notifications().PendingFor(rel).size(), 2u)
      << "deletion notifies";
  EXPECT_TRUE(db_.Subclass(viewer, "Parts")->empty());
}

}  // namespace
}  // namespace caddb
