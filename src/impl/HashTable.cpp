//===- impl/HashTable.cpp - Separately-chained hash map ---------------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "impl/HashTable.h"

#include "support/Unreachable.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>

using namespace semcomm;

static const size_t InitialBuckets = 4;

HashTable::HashTable() : Table(InitialBuckets, nullptr) {}

HashTable::HashTable(const HashTable &Other) { copyFrom(Other); }

HashTable &HashTable::operator=(const HashTable &Other) {
  if (this == &Other)
    return *this;
  clear();
  copyFrom(Other);
  return *this;
}

HashTable::~HashTable() { clear(); }

void HashTable::copyFrom(const HashTable &Other) {
  Table.assign(Other.Table.size(), nullptr);
  for (size_t B = 0; B != Other.Table.size(); ++B) {
    Node **Tail = &Table[B];
    for (Node *N = Other.Table[B]; N; N = N->Next) {
      *Tail = new Node{N->Key, N->Val, nullptr};
      Tail = &(*Tail)->Next;
    }
  }
  Count = Other.Count;
}

void HashTable::clear() {
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

size_t HashTable::bucketOf(const Value &K, size_t NumBuckets) const {
  // Fibonacci hashing: the top log2(NumBuckets) bits of the hash times
  // 2^64 / phi, which every bit of the hash moves.
  uint64_t H = std::hash<Value>()(K) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H >> (64 - __builtin_ctzll(NumBuckets)));
}

size_t HashTable::longestChain() const {
  size_t Longest = 0;
  for (Node *Bucket : Table) {
    size_t Length = 0;
    for (Node *N = Bucket; N; N = N->Next)
      ++Length;
    Longest = std::max(Longest, Length);
  }
  return Longest;
}

void HashTable::rehash(size_t NewBuckets) {
  std::vector<Node *> NewTable(NewBuckets, nullptr);
  for (Node *Bucket : Table) {
    Node *N = Bucket;
    while (N) {
      Node *Next = N->Next;
      size_t B = bucketOf(N->Key, NewBuckets);
      N->Next = NewTable[B];
      NewTable[B] = N;
      N = Next;
    }
  }
  Table = std::move(NewTable);
}

Value HashTable::put(const Value &K, const Value &V) {
  size_t B = bucketOf(K, Table.size());
  for (Node *N = Table[B]; N; N = N->Next)
    if (N->Key == K) {
      Value Old = N->Val;
      N->Val = V;
      return Old;
    }
  Table[B] = new Node{K, V, Table[B]};
  ++Count;
  if (static_cast<size_t>(Count) * 4 > Table.size() * 3)
    rehash(Table.size() * 2);
  return Value::null();
}

Value HashTable::remove(const Value &K) {
  size_t B = bucketOf(K, Table.size());
  for (Node **Link = &Table[B]; *Link; Link = &(*Link)->Next)
    if ((*Link)->Key == K) {
      Node *Victim = *Link;
      Value Old = Victim->Val;
      *Link = Victim->Next;
      delete Victim;
      --Count;
      return Old;
    }
  return Value::null();
}

Value HashTable::mapGet(const Value &K) const {
  for (Node *N = Table[bucketOf(K, Table.size())]; N; N = N->Next)
    if (N->Key == K)
      return N->Val;
  return Value::null();
}

bool HashTable::mapHasKey(const Value &K) const {
  for (Node *N = Table[bucketOf(K, Table.size())]; N; N = N->Next)
    if (N->Key == K)
      return true;
  return false;
}

Value HashTable::invoke(const std::string &CallName, const ArgList &Args) {
  if (CallName == "put")
    return put(Args[0], Args[1]);
  if (CallName == "remove")
    return remove(Args[0]);
  if (CallName == "get")
    return get(Args[0]);
  if (CallName == "containsKey")
    return Value::boolean(containsKey(Args[0]));
  if (CallName == "size")
    return Value::integer(size());
  semcomm_unreachable("unknown HashTable operation");
}

AbstractState HashTable::abstraction() const {
  AbstractState S = AbstractState::makeMap();
  for (Node *Bucket : Table)
    for (Node *N = Bucket; N; N = N->Next)
      S.mapPut(N->Key, N->Val);
  return S;
}

bool HashTable::repOk() const {
  std::set<Value> Keys;
  int64_t Length = 0;
  for (size_t B = 0; B != Table.size(); ++B)
    for (Node *N = Table[B]; N; N = N->Next) {
      if (bucketOf(N->Key, Table.size()) != B)
        return false;
      if (!Keys.insert(N->Key).second)
        return false;
      if (N->Val.isNull())
        return false;
      if (++Length > Count)
        return false;
    }
  return Length == Count;
}
