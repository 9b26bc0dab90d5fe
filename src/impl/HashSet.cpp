//===- impl/HashSet.cpp - Separately-chained hash set ----------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "impl/HashSet.h"

#include "support/Unreachable.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>

using namespace semcomm;

static const size_t InitialBuckets = 4;

HashSet::HashSet() : Table(InitialBuckets, nullptr) {}

HashSet::HashSet(const HashSet &Other) { copyFrom(Other); }

HashSet &HashSet::operator=(const HashSet &Other) {
  if (this == &Other)
    return *this;
  clear();
  copyFrom(Other);
  return *this;
}

HashSet::~HashSet() { clear(); }

void HashSet::copyFrom(const HashSet &Other) {
  Table.assign(Other.Table.size(), nullptr);
  for (size_t B = 0; B != Other.Table.size(); ++B) {
    Node **Tail = &Table[B];
    for (Node *N = Other.Table[B]; N; N = N->Next) {
      *Tail = new Node{N->Data, nullptr};
      Tail = &(*Tail)->Next;
    }
  }
  Count = Other.Count;
}

void HashSet::clear() {
  for (Node *&Bucket : Table) {
    Node *N = Bucket;
    while (N) {
      Node *Next = N->Next;
      delete N;
      N = Next;
    }
    Bucket = nullptr;
  }
  Count = 0;
}

size_t HashSet::bucketOf(const Value &V, size_t NumBuckets) const {
  // Fibonacci hashing: the top log2(NumBuckets) bits of the hash times
  // 2^64 / phi, which every bit of the hash moves.
  uint64_t H = std::hash<Value>()(V) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H >> (64 - __builtin_ctzll(NumBuckets)));
}

size_t HashSet::longestChain() const {
  size_t Longest = 0;
  for (Node *Bucket : Table) {
    size_t Length = 0;
    for (Node *N = Bucket; N; N = N->Next)
      ++Length;
    Longest = std::max(Longest, Length);
  }
  return Longest;
}

void HashSet::rehash(size_t NewBuckets) {
  std::vector<Node *> NewTable(NewBuckets, nullptr);
  for (Node *Bucket : Table) {
    Node *N = Bucket;
    while (N) {
      Node *Next = N->Next;
      size_t B = bucketOf(N->Data, NewBuckets);
      N->Next = NewTable[B];
      NewTable[B] = N;
      N = Next;
    }
  }
  Table = std::move(NewTable);
}

bool HashSet::add(const Value &V) {
  size_t B = bucketOf(V, Table.size());
  for (Node *N = Table[B]; N; N = N->Next)
    if (N->Data == V)
      return false;
  Table[B] = new Node{V, Table[B]};
  ++Count;
  // Java-style resize at load factor 0.75.
  if (static_cast<size_t>(Count) * 4 > Table.size() * 3)
    rehash(Table.size() * 2);
  return true;
}

bool HashSet::remove(const Value &V) {
  size_t B = bucketOf(V, Table.size());
  for (Node **Link = &Table[B]; *Link; Link = &(*Link)->Next)
    if ((*Link)->Data == V) {
      Node *Victim = *Link;
      *Link = Victim->Next;
      delete Victim;
      --Count;
      return true;
    }
  return false;
}

bool HashSet::contains(const Value &V) const {
  for (Node *N = Table[bucketOf(V, Table.size())]; N; N = N->Next)
    if (N->Data == V)
      return true;
  return false;
}

Value HashSet::invoke(const std::string &CallName, const ArgList &Args) {
  if (CallName == "add")
    return Value::boolean(add(Args[0]));
  if (CallName == "remove")
    return Value::boolean(remove(Args[0]));
  if (CallName == "contains")
    return Value::boolean(contains(Args[0]));
  if (CallName == "size")
    return Value::integer(size());
  semcomm_unreachable("unknown HashSet operation");
}

AbstractState HashSet::abstraction() const {
  AbstractState S = AbstractState::makeSet();
  for (Node *Bucket : Table)
    for (Node *N = Bucket; N; N = N->Next)
      S.setInsert(N->Data);
  return S;
}

bool HashSet::repOk() const {
  // Every node resides in the bucket its hash selects; no duplicates; the
  // element count matches; chains are acyclic within the count bound.
  std::set<Value> Seen;
  int64_t Length = 0;
  for (size_t B = 0; B != Table.size(); ++B)
    for (Node *N = Table[B]; N; N = N->Next) {
      if (bucketOf(N->Data, Table.size()) != B)
        return false;
      if (!Seen.insert(N->Data).second)
        return false;
      if (++Length > Count)
        return false;
    }
  return Length == Count;
}
