//===- impl/HashTable.h - Separately-chained hash map -----------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_IMPL_HASHTABLE_H
#define SEMCOMM_IMPL_HASHTABLE_H

#include "impl/ConcreteStructure.h"

namespace semcomm {

/// HashTable implements the Map interface with a separately-chained hash
/// table (Ch. 5): an array of singly-linked key/value chains with a hash
/// function mapping keys to chains, resized under load.
class HashTable : public ConcreteStructure {
public:
  HashTable();
  HashTable(const HashTable &Other);
  HashTable &operator=(const HashTable &Other);
  ~HashTable() override;

  /// Binds \p K to \p V; returns the previous value or null.
  Value put(const Value &K, const Value &V);
  /// Unbinds \p K; returns the previous value or null.
  Value remove(const Value &K);
  /// The value bound to \p K, or null.
  Value get(const Value &K) const { return mapGet(K); }
  /// Whether \p K is bound.
  bool containsKey(const Value &K) const { return mapHasKey(K); }

  /// Current bucket count; exposed so tests can observe rehashing.
  size_t capacity() const { return Table.size(); }
  /// Node count of the longest chain; exposed so tests can observe how
  /// evenly the buckets are filled.
  size_t longestChain() const;

  // ConcreteStructure.
  std::string name() const override { return "HashTable"; }
  const Family &family() const override { return mapFamily(); }
  Value invoke(const std::string &CallName, const ArgList &Args) override;
  AbstractState abstraction() const override;
  bool repOk() const override;
  std::unique_ptr<ConcreteStructure> clone() const override {
    return std::make_unique<HashTable>(*this);
  }

  // StateView.
  Value mapGet(const Value &K) const override;
  bool mapHasKey(const Value &K) const override;
  int64_t size() const override { return Count; }

private:
  struct Node {
    Value Key;
    Value Val;
    Node *Next;
  };

  /// The bucket of \p K in a table of \p NumBuckets (a power of two)
  /// buckets, taken from the top bits of a multiplicatively mixed hash.
  /// The hash's low bits alone would not do: an executor shard holds only
  /// keys whose hash agrees in the low bits SpeculativeExecutor::shardOf
  /// routes by, so a bucket taken from those bits would leave all but one
  /// bucket in Shards unreachable and the chains Shards times as long.
  size_t bucketOf(const Value &K, size_t NumBuckets) const;
  void rehash(size_t NewBuckets);
  void clear();
  void copyFrom(const HashTable &Other);

  std::vector<Node *> Table;
  int64_t Count = 0;
};

} // namespace semcomm

#endif // SEMCOMM_IMPL_HASHTABLE_H
