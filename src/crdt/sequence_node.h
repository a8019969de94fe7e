// Replicated Growable Array (RGA) sequence CRDT — the collaborative-editing
// data type the paper's related work centers on (Logoot [77], OT [73],
// PushPin [76]). Elements form a tree anchored at their insertion position;
// concurrent inserts at the same anchor order deterministically by
// operation id (newest first, the classic RGA rule), so every replica reads
// the same sequence regardless of delivery order.
//
// Addressing (reuses the Operation schema — no wire change):
//   InsertValue, path leaf segment "a:<client>.<counter>.<seq>" (or
//   "a:root"): insert op.value after that element; the new element's id is
//   the operation's id.
//   RemoveValue, path leaf segment "e:<client>.<counter>.<seq>": tombstone
//   that element.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "clock/logical_clock.h"
#include "crdt/node.h"

namespace orderless::crdt {

class SequenceNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kSequence; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override {
    return elements_.size() + removed_.size();
  }

  /// Visible elements in document order.
  std::vector<Value> Materialize() const;

  /// Path-segment helpers for building operations.
  static std::string AnchorSegment(const OpId& id);
  static std::string AnchorRootSegment() { return "a:root"; }
  static std::string ElementSegment(const OpId& id);

  static std::unique_ptr<SequenceNode> Decode(codec::Reader& r);

 private:
  struct Element {
    OpId anchor;       // parent element (kRootId when anchored at the start)
    bool root_anchor = false;
    Value value;
  };
  /// Adds element `id`, or replaces a differing variant of it that sorts
  /// higher; returns true iff anything changed.
  bool Put(const OpId& id, Element element);
  static std::optional<OpId> ParseId(std::string_view body);
  void Walk(const OpId& anchor, bool root,
            std::vector<Value>& out) const;

  // Insert set keyed by element id (= op id); removes as a tombstone set.
  std::map<OpId, Element> elements_;
  std::set<OpId> removed_;
  // Children index: anchor → ids, rebuilt incrementally. Sorted descending
  // so concurrent inserts at one anchor read newest-first (RGA order).
  std::map<std::pair<bool, OpId>, std::set<OpId, std::greater<OpId>>>
      children_;
};

}  // namespace orderless::crdt
