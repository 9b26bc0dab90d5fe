//===- tests/SpecTest.cpp - spec/ module unit tests ------------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "spec/Family.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace semcomm;

TEST(AbstractStateTest, SetSemantics) {
  AbstractState S = AbstractState::makeSet();
  EXPECT_TRUE(S.setInsert(Value::obj(1)));
  EXPECT_FALSE(S.setInsert(Value::obj(1)));
  EXPECT_TRUE(S.contains(Value::obj(1)));
  EXPECT_EQ(S.size(), 1);
  EXPECT_TRUE(S.setErase(Value::obj(1)));
  EXPECT_FALSE(S.setErase(Value::obj(1)));
  EXPECT_EQ(S.size(), 0);
}

TEST(AbstractStateTest, SetEqualityIsOrderInsensitive) {
  AbstractState A = AbstractState::makeSet(), B = AbstractState::makeSet();
  A.setInsert(Value::obj(1));
  A.setInsert(Value::obj(2));
  B.setInsert(Value::obj(2));
  B.setInsert(Value::obj(1));
  EXPECT_EQ(A, B);
}

TEST(AbstractStateTest, MapSemantics) {
  AbstractState M = AbstractState::makeMap();
  EXPECT_TRUE(M.mapPut(Value::obj(1), Value::obj(7)).isNull());
  EXPECT_EQ(M.mapPut(Value::obj(1), Value::obj(8)), Value::obj(7));
  EXPECT_EQ(M.mapGet(Value::obj(1)), Value::obj(8));
  EXPECT_TRUE(M.mapGet(Value::obj(2)).isNull());
  EXPECT_TRUE(M.mapHasKey(Value::obj(1)));
  EXPECT_EQ(M.size(), 1);
  EXPECT_EQ(M.mapErase(Value::obj(1)), Value::obj(8));
  EXPECT_TRUE(M.mapErase(Value::obj(1)).isNull());
}

TEST(AbstractStateTest, MapAgreesWithStdMap) {
  // Random put / erase / get / hasKey steps over a key range wide enough
  // that the map holds hundreds of entries, with object and integer keys
  // interleaved in the key order, against a std::map oracle.
  std::mt19937 Rng(2011);
  AbstractState M = AbstractState::makeMap();
  std::map<Value, Value> Oracle;
  for (int Step = 0; Step != 4000; ++Step) {
    int64_t N = static_cast<int64_t>(Rng() % 1000);
    Value K = Rng() % 2 ? Value::obj(N) : Value::integer(N);
    auto It = Oracle.find(K);
    Value Want = It == Oracle.end() ? Value::null() : It->second;
    switch (Rng() % 4) {
    case 0: {
      Value V = Value::obj(static_cast<int64_t>(Rng() % 64));
      EXPECT_EQ(M.mapPut(K, V), Want) << "step " << Step;
      Oracle[K] = V;
      break;
    }
    case 1:
      EXPECT_EQ(M.mapErase(K), Want) << "step " << Step;
      Oracle.erase(K);
      break;
    case 2:
      EXPECT_EQ(M.mapGet(K), Want) << "step " << Step;
      break;
    default:
      EXPECT_EQ(M.mapHasKey(K), It != Oracle.end()) << "step " << Step;
      break;
    }
    ASSERT_EQ(M.size(), static_cast<int64_t>(Oracle.size()));
  }
  EXPECT_GT(Oracle.size(), 100u);
  // The final state is the oracle's, built in key order.
  AbstractState FromOracle = AbstractState::makeMap();
  for (const auto &[K, V] : Oracle)
    FromOracle.mapPut(K, V);
  EXPECT_EQ(M, FromOracle);
}

TEST(AbstractStateTest, SeqSemantics) {
  AbstractState S = AbstractState::makeSeq();
  S.seqInsert(0, Value::obj(1)); // [1]
  S.seqInsert(1, Value::obj(2)); // [1 2]
  S.seqInsert(1, Value::obj(3)); // [1 3 2]
  EXPECT_EQ(S.seqLen(), 3);
  EXPECT_EQ(S.seqAt(1), Value::obj(3));
  EXPECT_TRUE(S.seqAt(3).isUndef());
  EXPECT_TRUE(S.seqAt(-1).isUndef());

  S.seqInsert(3, Value::obj(3)); // [1 3 2 3]
  EXPECT_EQ(S.seqIndexOf(Value::obj(3)), 1);
  EXPECT_EQ(S.seqLastIndexOf(Value::obj(3)), 3);
  EXPECT_EQ(S.seqIndexOf(Value::obj(9)), -1);

  EXPECT_EQ(S.seqSet(0, Value::obj(5)), Value::obj(1)); // [5 3 2 3]
  EXPECT_EQ(S.seqRemove(1), Value::obj(3));             // [5 2 3]
  EXPECT_EQ(S.seqLen(), 3);
  EXPECT_EQ(S.seqAt(1), Value::obj(2));
}

TEST(AbstractStateTest, CounterSemantics) {
  AbstractState C = AbstractState::makeCounter(2);
  C.increase(-5);
  EXPECT_EQ(C.counter(), -3);
  EXPECT_EQ(C, AbstractState::makeCounter(-3));
}

// --- Families ------------------------------------------------------------------

TEST(FamilyTest, PaperOperationCounts) {
  // §5.1: 2 operations for Accumulator, 6 for the sets, 7 for the maps,
  // 9 for ArrayList.
  EXPECT_EQ(accumulatorFamily().Ops.size(), 2u);
  EXPECT_EQ(setFamily().Ops.size(), 6u);
  EXPECT_EQ(mapFamily().Ops.size(), 7u);
  EXPECT_EQ(arrayListFamily().Ops.size(), 9u);
}

TEST(FamilyTest, PaperConditionArithmetic) {
  // 3*2^2 + 2*3*6^2 + 2*3*7^2 + 3*9^2 = 765 (§5.1).
  unsigned Total = 0;
  for (const Family *F : allFamilies())
    Total += 3 * F->Ops.size() * F->Ops.size() * F->StructureNames.size();
  EXPECT_EQ(Total, 765u);
}

TEST(FamilyTest, VariantFlags) {
  const Family &S = setFamily();
  EXPECT_TRUE(S.op("add").RecordsReturn);
  EXPECT_FALSE(S.op("add_").RecordsReturn);
  EXPECT_EQ(S.op("add").CallName, S.op("add_").CallName);
  EXPECT_TRUE(S.op("contains").isPure());
  EXPECT_FALSE(arrayListFamily().op("add_at").HasReturn);
}

TEST(FamilyTest, ArrayListPreconditions) {
  const Family &F = arrayListFamily();
  AbstractState S = F.emptyState();
  EXPECT_TRUE(F.op("add_at").Pre(S, {Value::integer(0), Value::obj(1)}));
  EXPECT_FALSE(F.op("add_at").Pre(S, {Value::integer(1), Value::obj(1)}));
  EXPECT_FALSE(F.op("get").Pre(S, {Value::integer(0)}));
  S.seqInsert(0, Value::obj(1));
  EXPECT_TRUE(F.op("get").Pre(S, {Value::integer(0)}));
  EXPECT_TRUE(F.op("remove_at").Pre(S, {Value::integer(0)}));
  EXPECT_FALSE(F.op("set").Pre(S, {Value::integer(1), Value::obj(2)}));
}

TEST(FamilyTest, RenderCall) {
  EXPECT_EQ(setFamily().op("add").renderCall("s1", 1), "r1 = s1.add(v1)");
  EXPECT_EQ(setFamily().op("add_").renderCall("s2", 2), "s2.add(v2)");
  EXPECT_EQ(mapFamily().op("put").renderCall("s1", 1),
            "r1 = s1.put(k1, v1)");
  EXPECT_EQ(arrayListFamily().op("remove_at_").renderCall("s2", 2),
            "s2.remove_at(i2)");
  EXPECT_EQ(setFamily().op("size").renderCall("s1", 1), "r1 = s1.size()");
}

// --- Scope enumeration ------------------------------------------------------------

TEST(ScopeTest, StateCounts) {
  Scope S;
  EXPECT_EQ(enumerateStates(accumulatorFamily(), S).size(), 5u); // [-2,2]
  EXPECT_EQ(enumerateStates(setFamily(), S).size(), 16u);        // 2^4
  EXPECT_EQ(enumerateStates(mapFamily(), S).size(), 64u);        // 4^3
  // Sequences over 3 values up to length 4: 1+3+9+27+81.
  EXPECT_EQ(enumerateStates(arrayListFamily(), S).size(), 121u);
}

TEST(ScopeTest, ArgEnumerationCoversGrownIndices) {
  Scope Sc;
  AbstractState S = AbstractState::makeSeq();
  S.seqInsert(0, Value::obj(1)); // len 1
  const Family &F = arrayListFamily();
  // Index args must range to len+1 so a second operation on a grown list
  // is covered; object args over the sequence value universe.
  std::vector<ArgList> Args = enumerateArgs(F, F.op("add_at"), S, Sc);
  EXPECT_EQ(Args.size(), 3u * 3u); // i in {0,1,2}, v in {o1,o2,o3}
  std::vector<ArgList> SetArgs =
      enumerateArgs(setFamily(), setFamily().op("add"), S, Sc);
  EXPECT_EQ(SetArgs.size(), 4u);
}
