// CRDT node tree. Design principle: a node's externally visible state is a
// pure function of the *set* of operations recorded in it, never of their
// arrival order. Leaves fold their operations with commutative joins; map
// slots store the raw operations and materialize candidate children lazily.
// Convergence (Lemma 6.1) therefore holds by construction and is checked by
// randomized permutation tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "crdt/op.h"
#include "crdt/types.h"
#include "crdt/value.h"

namespace orderless::crdt {

/// The result of a read API call (Table 1's Read()).
struct ReadResult {
  CrdtType type = CrdtType::kNone;
  bool exists = false;
  std::int64_t counter = 0;          // counters: summed value
  std::vector<Value> values;         // registers / sets: sorted candidates
  std::vector<std::string> keys;     // maps: sorted live keys
  std::string ToString() const;

  /// Merges `other` into this result (concurrent map candidates combine).
  void MergeFrom(const ReadResult& other);
};

/// Base of every CRDT node.
class CrdtNode {
 public:
  virtual ~CrdtNode() = default;
  CrdtNode() = default;
  CrdtNode(const CrdtNode&) = delete;
  CrdtNode& operator=(const CrdtNode&) = delete;

  virtual CrdtType type() const = 0;

  /// Applies `op`, whose path is resolved starting at `depth`. Returns true
  /// iff the node's state changed: false when the operation is incompatible
  /// with this node (deterministic, so every correct replica ignores the
  /// same operations) or adds nothing, as an exact re-delivery never does.
  virtual bool Apply(const Operation& op, std::size_t depth) = 0;

  /// Reads the value at `path` (resolved from `depth`).
  virtual ReadResult ReadAt(const std::vector<std::string>& path,
                            std::size_t depth) const = 0;

  /// Canonical encoding: two nodes that absorbed the same operation set
  /// encode identically.
  virtual void Encode(codec::Writer& w) const = 0;

  virtual std::unique_ptr<CrdtNode> Clone() const = 0;

  /// State-based merge (join): absorbs everything `other` has seen. Used by
  /// the FabricCRDT baseline's JSON-CRDT pipeline and by replica
  /// resynchronization. No-op when types differ.
  virtual void MergeFrom(const CrdtNode& other) = 0;

  /// Number of operations stored in this node (recursively).
  virtual std::size_t OpCount() const = 0;
};

/// Creates an empty node of the given leaf/map type (kNone yields nullptr).
std::unique_ptr<CrdtNode> NewNode(CrdtType t);

/// Decodes a node previously produced by Encode (given its type tag).
std::unique_ptr<CrdtNode> DecodeNode(CrdtType t, codec::Reader& r);

/// Structural equality via canonical encodings.
bool NodesEqual(const CrdtNode& a, const CrdtNode& b);

}  // namespace orderless::crdt
