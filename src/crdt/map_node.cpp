#include "crdt/map_node.h"

#include <algorithm>

namespace orderless::crdt {

CrdtType MapNode::ImpliedChildType(const Operation& op, std::size_t depth) {
  // `depth` indexes the segment being traversed; the child under it is a map
  // when more segments follow, otherwise the op's leaf/insert target type.
  if (op.value_type == CrdtType::kSequence &&
      (op.kind == OpKind::kInsertValue || op.kind == OpKind::kRemoveValue)) {
    // Sequence ops consume one extra trailing segment (the anchor/element),
    // so the sequence node itself sits one level higher.
    return depth + 2 >= op.path.size() ? CrdtType::kSequence : CrdtType::kMap;
  }
  if (depth + 1 < op.path.size()) return CrdtType::kMap;
  if (op.kind == OpKind::kInsertValue) return CrdtType::kMap;
  return op.value_type;
}

bool MapNode::Apply(const Operation& op, std::size_t depth) {
  if (depth >= op.path.size()) return false;  // leaf op aimed at a map
  const std::string& segment = op.path[depth];
  const bool is_final_insert =
      op.kind == OpKind::kInsertValue && depth + 1 == op.path.size();

  Slot& slot = slots_[segment];
  slot.depth = depth;
  if (is_final_insert) {
    const bool inserted =
        slot.inserts.insert(InsertRecord{op.clock, op.value_type, op.value})
            .second;
    if (inserted) slot.dirty = true;  // candidate set may change: rebuild
    return inserted;
  }

  const auto key = std::make_pair(op.id(), op.ContentDigest());
  if (!slot.ops.emplace(key, op).second) return false;  // re-delivery

  if (slot.dirty) return true;  // will be folded in at materialization
  if (slot.candidates.empty()) {
    // No candidate yet: materialization must create an implicit one.
    slot.dirty = true;
    return true;
  }
  // A late operation that a tombstone may cover must go through the exact
  // rebuild rule rather than the incremental fast path.
  for (const InsertRecord& record : slot.inserts) {
    if (record.child_type == CrdtType::kNone &&
        clk::HappenedBefore(op.clock, record.clock)) {
      slot.dirty = true;
      return true;
    }
  }
  // A rebuild adds a candidate for this op only when no live candidate has
  // the child type it implies; otherwise it folds the op into exactly the
  // candidates the loop below reaches.
  const CrdtType implied = ImpliedChildType(op, depth);
  bool typed = false;
  for (auto& candidate : slot.candidates) {
    typed = typed || candidate.node->type() == implied;
    if (clk::HappenedBefore(op.clock, candidate.clock)) continue;  // reset
    candidate.node->Apply(op, depth + 1);
  }
  if (!typed) slot.dirty = true;
  return true;
}

void MapNode::Slot::Materialize() const {
  candidates.clear();

  // Live inserts: maximal under happened-before.
  std::vector<const InsertRecord*> live;
  for (const auto& record : inserts) {
    bool dominated = false;
    for (const auto& other : inserts) {
      if (&other != &record && clk::HappenedBefore(record.clock, other.clock)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) live.push_back(&record);
  }

  // Live tombstones: a delete covers every operation in its causal past,
  // for explicit and implicit candidates alike.
  std::vector<clk::OpClock> live_tombstones;
  for (const InsertRecord* record : live) {
    if (record->child_type == CrdtType::kNone) {
      live_tombstones.push_back(record->clock);
    }
  }
  const auto suppressed_by_tombstone =
      [&live_tombstones](const clk::OpClock& clock) {
        for (const clk::OpClock& t : live_tombstones) {
          if (clk::HappenedBefore(clock, t)) return true;
        }
        return false;
      };

  bool any_explicit_child = false;
  for (const InsertRecord* record : live) {
    if (record->child_type == CrdtType::kNone) continue;  // tombstone
    auto node = NewNode(record->child_type);
    if (node == nullptr) continue;
    any_explicit_child = true;
    // Seed register/counter children with the insert's initial value.
    if (!record->init.IsNull()) {
      Operation seed;
      seed.clock = record->clock;
      seed.value = record->init;
      seed.value_type = record->child_type;
      seed.kind = (record->child_type == CrdtType::kGCounter ||
                   record->child_type == CrdtType::kPNCounter)
                      ? OpKind::kAddValue
                      : OpKind::kAssignValue;
      node->Apply(seed, 0);
    }
    candidates.push_back(Candidate{record->clock, std::move(node)});
  }

  if (!any_explicit_child) {
    // Only tombstones (or nothing): descendant ops that no live tombstone
    // dominates revive the key through implicit candidates, grouped by the
    // child type each op implies.
    std::set<CrdtType> needed;
    for (const auto& [key, op] : ops) {
      (void)key;
      if (!suppressed_by_tombstone(op.clock)) {
        needed.insert(ImpliedChildType(op, depth));
      }
    }
    for (CrdtType t : needed) {
      auto node = NewNode(t);
      if (node != nullptr) {
        candidates.push_back(Candidate{clk::OpClock{}, std::move(node)});
      }
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.clock != b.clock) return a.clock < b.clock;
              return a.node->type() < b.node->type();
            });

  // Fold descendant ops into every candidate they did not happen-before,
  // unless a live tombstone covers the operation.
  for (auto& candidate : candidates) {
    for (const auto& [key, op] : ops) {
      (void)key;
      if (clk::HappenedBefore(op.clock, candidate.clock)) continue;
      if (suppressed_by_tombstone(op.clock)) continue;
      candidate.node->Apply(op, depth + 1);
    }
  }

  dirty = false;
}

std::size_t MapNode::Slot::OpCount() const {
  return inserts.size() + ops.size();
}

ReadResult MapNode::ReadAt(const std::vector<std::string>& path,
                           std::size_t depth) const {
  ReadResult result;
  if (depth == path.size()) {
    result.type = CrdtType::kMap;
    result.exists = true;
    result.keys = LiveKeys();
    return result;
  }
  const auto it = slots_.find(path[depth]);
  if (it == slots_.end()) return result;
  const Slot& slot = it->second;
  if (slot.dirty) slot.Materialize();
  for (const auto& candidate : slot.candidates) {
    result.MergeFrom(candidate.node->ReadAt(path, depth + 1));
  }
  return result;
}

std::vector<std::string> MapNode::LiveKeys() const {
  std::vector<std::string> keys;
  for (const auto& [key, slot] : slots_) {
    if (slot.dirty) slot.Materialize();
    bool live = false;
    for (const auto& candidate : slot.candidates) {
      if (candidate.node != nullptr) {
        live = true;
        break;
      }
    }
    if (live) keys.push_back(key);
  }
  return keys;
}

std::size_t MapNode::OpCount() const {
  std::size_t n = 0;
  for (const auto& [key, slot] : slots_) {
    (void)key;
    n += slot.OpCount();
  }
  return n;
}

void MapNode::Encode(codec::Writer& w) const {
  // Canonical: only the recorded sets, sorted by std::map/std::set order.
  w.PutVarint(slots_.size());
  for (const auto& [key, slot] : slots_) {
    w.PutString(key);
    w.PutVarint(slot.depth);
    w.PutVarint(slot.inserts.size());
    for (const auto& record : slot.inserts) {
      record.clock.Encode(w);
      w.PutU8(static_cast<std::uint8_t>(record.child_type));
      record.init.Encode(w);
    }
    w.PutVarint(slot.ops.size());
    for (const auto& [id, op] : slot.ops) {
      (void)id;
      op.Encode(w);
    }
  }
}

std::unique_ptr<MapNode> MapNode::Decode(codec::Reader& r) {
  const auto n_slots = r.GetVarint();
  if (!n_slots) return nullptr;
  auto node = std::make_unique<MapNode>();
  for (std::uint64_t i = 0; i < *n_slots; ++i) {
    auto key = r.GetString();
    if (!key) return nullptr;
    Slot& slot = node->slots_[*key];
    const auto depth = r.GetVarint();
    if (!depth) return nullptr;
    slot.depth = *depth;
    const auto n_inserts = r.GetVarint();
    if (!n_inserts) return nullptr;
    for (std::uint64_t j = 0; j < *n_inserts; ++j) {
      const auto clock = clk::OpClock::Decode(r);
      const auto child_type = r.GetU8();
      auto init = Value::Decode(r);
      if (!clock || !child_type || !init ||
          !IsValidTypeTag(*child_type)) {
        return nullptr;
      }
      slot.inserts.insert(InsertRecord{
          *clock, static_cast<CrdtType>(*child_type), std::move(*init)});
    }
    const auto n_ops = r.GetVarint();
    if (!n_ops) return nullptr;
    for (std::uint64_t j = 0; j < *n_ops; ++j) {
      auto op = Operation::Decode(r);
      if (!op) return nullptr;
      slot.ops.emplace(std::make_pair(op->id(), op->ContentDigest()),
                       std::move(*op));
    }
  }
  return node;
}

void MapNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const MapNode*>(&other);
  if (o == nullptr) return;
  for (const auto& [key, their_slot] : o->slots_) {
    Slot& slot = slots_[key];
    slot.depth = their_slot.depth;
    const std::size_t inserts_before = slot.inserts.size();
    const std::size_t ops_before = slot.ops.size();
    slot.inserts.insert(their_slot.inserts.begin(), their_slot.inserts.end());
    slot.ops.insert(their_slot.ops.begin(), their_slot.ops.end());
    if (slot.inserts.size() != inserts_before ||
        slot.ops.size() != ops_before) {
      slot.dirty = true;
    }
  }
}

std::unique_ptr<CrdtNode> MapNode::Clone() const {
  auto node = std::make_unique<MapNode>();
  for (const auto& [key, slot] : slots_) {
    Slot& copy = node->slots_[key];
    copy.depth = slot.depth;
    copy.inserts = slot.inserts;
    copy.ops = slot.ops;
    copy.dirty = true;
  }
  return node;
}

}  // namespace orderless::crdt
