//===- spec/AbstractState.cpp - Abstract data structure states ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "spec/AbstractState.h"

#include "support/Unreachable.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

using namespace semcomm;

namespace {

/// The first of the key-sorted map entries \p Entries whose key is not
/// below \p K: where \p K's entry is, or would be inserted.
template <typename EntryVec>
auto lowerBoundKey(EntryVec &Entries, const Value &K) {
  return std::lower_bound(
      Entries.begin(), Entries.end(), K,
      [](const std::pair<Value, Value> &E, const Value &Key) {
        return E.first < Key;
      });
}

} // namespace

AbstractState AbstractState::makeCounter(int64_t Initial) {
  AbstractState S(StateKind::Counter);
  S.CounterVal = Initial;
  return S;
}

AbstractState AbstractState::makeSet() { return AbstractState(StateKind::Set); }

AbstractState AbstractState::makeMap() { return AbstractState(StateKind::Map); }

AbstractState AbstractState::makeSeq() { return AbstractState(StateKind::Seq); }

bool AbstractState::contains(const Value &V) const {
  assert(Kind == StateKind::Set && "contains() on a non-set state");
  return std::binary_search(Elems.begin(), Elems.end(), V);
}

Value AbstractState::mapGet(const Value &K) const {
  assert(Kind == StateKind::Map && "mapGet() on a non-map state");
  auto It = lowerBoundKey(Entries, K);
  return It != Entries.end() && It->first == K ? It->second : Value::null();
}

bool AbstractState::mapHasKey(const Value &K) const {
  assert(Kind == StateKind::Map && "mapHasKey() on a non-map state");
  auto It = lowerBoundKey(Entries, K);
  return It != Entries.end() && It->first == K;
}

int64_t AbstractState::seqLen() const {
  assert(Kind == StateKind::Seq && "seqLen() on a non-sequence state");
  return static_cast<int64_t>(Elems.size());
}

Value AbstractState::seqAt(int64_t I) const {
  assert(Kind == StateKind::Seq && "seqAt() on a non-sequence state");
  if (I < 0 || I >= static_cast<int64_t>(Elems.size()))
    return Value::undef();
  return Elems[static_cast<size_t>(I)];
}

int64_t AbstractState::seqIndexOf(const Value &V) const {
  assert(Kind == StateKind::Seq && "seqIndexOf() on a non-sequence state");
  for (size_t I = 0; I != Elems.size(); ++I)
    if (Elems[I] == V)
      return static_cast<int64_t>(I);
  return -1;
}

int64_t AbstractState::seqLastIndexOf(const Value &V) const {
  assert(Kind == StateKind::Seq && "seqLastIndexOf() on a non-sequence state");
  for (size_t I = Elems.size(); I != 0; --I)
    if (Elems[I - 1] == V)
      return static_cast<int64_t>(I - 1);
  return -1;
}

int64_t AbstractState::size() const {
  switch (Kind) {
  case StateKind::Set:
  case StateKind::Seq:
    return static_cast<int64_t>(Elems.size());
  case StateKind::Map:
    return static_cast<int64_t>(Entries.size());
  case StateKind::Counter:
    semcomm_unreachable("size() on an accumulator state");
  }
  semcomm_unreachable("invalid state kind");
}

int64_t AbstractState::counter() const {
  assert(Kind == StateKind::Counter && "counter() on a non-counter state");
  return CounterVal;
}

bool AbstractState::setInsert(const Value &V) {
  assert(Kind == StateKind::Set && "setInsert() on a non-set state");
  auto It = std::lower_bound(Elems.begin(), Elems.end(), V);
  if (It != Elems.end() && *It == V)
    return false;
  Elems.insert(It, V);
  return true;
}

bool AbstractState::setErase(const Value &V) {
  assert(Kind == StateKind::Set && "setErase() on a non-set state");
  auto It = std::lower_bound(Elems.begin(), Elems.end(), V);
  if (It == Elems.end() || *It != V)
    return false;
  Elems.erase(It);
  return true;
}

Value AbstractState::mapPut(const Value &K, const Value &V) {
  assert(Kind == StateKind::Map && "mapPut() on a non-map state");
  auto It = lowerBoundKey(Entries, K);
  if (It != Entries.end() && It->first == K) {
    Value Old = It->second;
    It->second = V;
    return Old;
  }
  Entries.emplace(It, K, V);
  return Value::null();
}

Value AbstractState::mapErase(const Value &K) {
  assert(Kind == StateKind::Map && "mapErase() on a non-map state");
  auto It = lowerBoundKey(Entries, K);
  if (It == Entries.end() || It->first != K)
    return Value::null();
  Value Old = It->second;
  Entries.erase(It);
  return Old;
}

void AbstractState::seqInsert(int64_t I, const Value &V) {
  assert(Kind == StateKind::Seq && "seqInsert() on a non-sequence state");
  assert(I >= 0 && I <= static_cast<int64_t>(Elems.size()) &&
         "seqInsert() index out of range");
  Elems.insert(Elems.begin() + static_cast<ptrdiff_t>(I), V);
}

Value AbstractState::seqRemove(int64_t I) {
  assert(Kind == StateKind::Seq && "seqRemove() on a non-sequence state");
  assert(I >= 0 && I < static_cast<int64_t>(Elems.size()) &&
         "seqRemove() index out of range");
  Value Old = Elems[static_cast<size_t>(I)];
  Elems.erase(Elems.begin() + static_cast<ptrdiff_t>(I));
  return Old;
}

Value AbstractState::seqSet(int64_t I, const Value &V) {
  assert(Kind == StateKind::Seq && "seqSet() on a non-sequence state");
  assert(I >= 0 && I < static_cast<int64_t>(Elems.size()) &&
         "seqSet() index out of range");
  Value Old = Elems[static_cast<size_t>(I)];
  Elems[static_cast<size_t>(I)] = V;
  return Old;
}

void AbstractState::increase(int64_t Delta) {
  assert(Kind == StateKind::Counter && "increase() on a non-counter state");
  CounterVal += Delta;
}

namespace semcomm {

bool operator==(const AbstractState &A, const AbstractState &B) {
  return A.Kind == B.Kind && A.CounterVal == B.CounterVal &&
         A.Elems == B.Elems && A.Entries == B.Entries;
}

bool operator<(const AbstractState &A, const AbstractState &B) {
  if (A.Kind != B.Kind)
    return static_cast<int>(A.Kind) < static_cast<int>(B.Kind);
  if (A.CounterVal != B.CounterVal)
    return A.CounterVal < B.CounterVal;
  if (A.Elems != B.Elems)
    return A.Elems < B.Elems;
  return A.Entries < B.Entries;
}

} // namespace semcomm

std::string AbstractState::str() const {
  std::string S;
  switch (Kind) {
  case StateKind::Counter:
    return "ctr(" + std::to_string(CounterVal) + ")";
  case StateKind::Set: {
    S = "{";
    for (size_t I = 0; I != Elems.size(); ++I)
      S += (I ? ", " : "") + Elems[I].str();
    return S + "}";
  }
  case StateKind::Map: {
    S = "{";
    for (size_t I = 0; I != Entries.size(); ++I)
      S += (I ? ", " : "") + Entries[I].first.str() + "->" +
           Entries[I].second.str();
    return S + "}";
  }
  case StateKind::Seq: {
    S = "[";
    for (size_t I = 0; I != Elems.size(); ++I)
      S += (I ? ", " : "") + Elems[I].str();
    return S + "]";
  }
  }
  semcomm_unreachable("invalid state kind");
}
