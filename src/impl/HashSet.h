//===- impl/HashSet.h - Separately-chained hash set -------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HashSet implements the Set interface with a separately-chained hash
/// table (Fig. 2-1): an array of buckets containing singly-linked lists of
/// elements, resized when the load factor is exceeded. The concrete state
/// (bucket layout, chain order, capacity) varies with operation history;
/// the abstract state — the `contents` ghost set — does not.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_IMPL_HASHSET_H
#define SEMCOMM_IMPL_HASHSET_H

#include "impl/ConcreteStructure.h"

namespace semcomm {

/// A set of objects in a separately-chained hash table.
class HashSet : public ConcreteStructure {
public:
  HashSet();
  HashSet(const HashSet &Other);
  HashSet &operator=(const HashSet &Other);
  ~HashSet() override;

  /// Adds \p V; returns true iff it was absent.
  bool add(const Value &V);
  /// Removes \p V; returns true iff it was present.
  bool remove(const Value &V);

  /// Current bucket count; exposed so tests can observe rehashing.
  size_t capacity() const { return Table.size(); }
  /// Node count of the longest chain; exposed so tests can observe how
  /// evenly the buckets are filled.
  size_t longestChain() const;

  // ConcreteStructure.
  std::string name() const override { return "HashSet"; }
  const Family &family() const override { return setFamily(); }
  Value invoke(const std::string &CallName, const ArgList &Args) override;
  AbstractState abstraction() const override;
  bool repOk() const override;
  std::unique_ptr<ConcreteStructure> clone() const override {
    return std::make_unique<HashSet>(*this);
  }

  // StateView.
  bool contains(const Value &V) const override;
  int64_t size() const override { return Count; }

private:
  struct Node {
    Value Data;
    Node *Next;
  };

  /// The bucket of \p V in a table of \p NumBuckets (a power of two)
  /// buckets, taken from the top bits of a multiplicatively mixed hash.
  /// The hash's low bits alone would not do: an executor shard holds only
  /// elements whose hash agrees in the low bits SpeculativeExecutor::shardOf
  /// routes by, so a bucket taken from those bits would leave all but one
  /// bucket in Shards unreachable and the chains Shards times as long.
  size_t bucketOf(const Value &V, size_t NumBuckets) const;
  void rehash(size_t NewBuckets);
  void clear();
  void copyFrom(const HashSet &Other);

  std::vector<Node *> Table;
  int64_t Count = 0;
};

} // namespace semcomm

#endif // SEMCOMM_IMPL_HASHSET_H
