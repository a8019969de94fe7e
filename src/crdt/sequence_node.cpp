#include "crdt/sequence_node.h"

#include <charconv>

namespace orderless::crdt {

std::string SequenceNode::AnchorSegment(const OpId& id) {
  return "a:" + std::to_string(id.client) + "." + std::to_string(id.counter) +
         "." + std::to_string(id.seq);
}

std::string SequenceNode::ElementSegment(const OpId& id) {
  return "e:" + std::to_string(id.client) + "." + std::to_string(id.counter) +
         "." + std::to_string(id.seq);
}

std::optional<OpId> SequenceNode::ParseId(std::string_view body) {
  OpId id;
  const auto dot1 = body.find('.');
  if (dot1 == std::string_view::npos) return std::nullopt;
  const auto dot2 = body.find('.', dot1 + 1);
  if (dot2 == std::string_view::npos) return std::nullopt;
  const auto parse = [](std::string_view s, auto& out) {
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && ptr == s.data() + s.size();
  };
  if (!parse(body.substr(0, dot1), id.client)) return std::nullopt;
  if (!parse(body.substr(dot1 + 1, dot2 - dot1 - 1), id.counter)) {
    return std::nullopt;
  }
  if (!parse(body.substr(dot2 + 1), id.seq)) return std::nullopt;
  return id;
}

bool SequenceNode::Put(const OpId& id, Element element) {
  const auto [it, inserted] = elements_.emplace(id, element);
  if (!inserted) {
    // Byzantine id reuse with different content: converge by keeping the
    // deterministically smaller (anchor, value) variant on every replica.
    // An exact re-delivery is never smaller, so it changes nothing.
    const auto key_of = [](const Element& e) {
      return std::make_tuple(e.root_anchor, e.anchor, e.value);
    };
    if (!(key_of(element) < key_of(it->second))) return false;
    children_[{it->second.root_anchor, it->second.anchor}].erase(id);
    it->second = std::move(element);
  }
  children_[{it->second.root_anchor, it->second.anchor}].insert(id);
  return true;
}

bool SequenceNode::Apply(const Operation& op, std::size_t depth) {
  // The leaf segment addresses an anchor or element within this sequence.
  if (depth + 1 != op.path.size()) return false;
  const std::string& segment = op.path[depth];
  if (segment.size() < 2 || segment[1] != ':') return false;
  const std::string_view body = std::string_view(segment).substr(2);

  if (op.kind == OpKind::kInsertValue && segment[0] == 'a') {
    Element element;
    if (body == "root") {
      element.root_anchor = true;
    } else {
      const auto anchor = ParseId(body);
      if (!anchor) return false;
      element.anchor = *anchor;
    }
    element.value = op.value;
    return Put(op.id(), std::move(element));
  }
  if (op.kind == OpKind::kRemoveValue && segment[0] == 'e') {
    const auto target = ParseId(body);
    if (!target) return false;
    return removed_.insert(*target).second;
  }
  return false;
}

void SequenceNode::Walk(const OpId& anchor, bool root,
                        std::vector<Value>& out) const {
  const auto it = children_.find({root, anchor});
  if (it == children_.end()) return;
  for (const OpId& id : it->second) {
    const auto element = elements_.find(id);
    if (element == elements_.end()) continue;
    if (!removed_.contains(id)) out.push_back(element->second.value);
    Walk(id, /*root=*/false, out);
  }
}

std::vector<Value> SequenceNode::Materialize() const {
  std::vector<Value> out;
  Walk(OpId{}, /*root=*/true, out);
  return out;
}

ReadResult SequenceNode::ReadAt(const std::vector<std::string>& path,
                                std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kSequence;
  r.exists = true;
  r.values = Materialize();
  return r;
}

void SequenceNode::Encode(codec::Writer& w) const {
  w.PutVarint(elements_.size());
  for (const auto& [id, element] : elements_) {
    w.PutVarint(id.client);
    w.PutVarint(id.counter);
    w.PutU32(id.seq);
    w.PutBool(element.root_anchor);
    w.PutVarint(element.anchor.client);
    w.PutVarint(element.anchor.counter);
    w.PutU32(element.anchor.seq);
    element.value.Encode(w);
  }
  w.PutVarint(removed_.size());
  for (const OpId& id : removed_) {
    w.PutVarint(id.client);
    w.PutVarint(id.counter);
    w.PutU32(id.seq);
  }
}

std::unique_ptr<SequenceNode> SequenceNode::Decode(codec::Reader& r) {
  const auto n = r.GetVarint();
  if (!n) return nullptr;
  auto node = std::make_unique<SequenceNode>();
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto client = r.GetVarint();
    const auto counter = r.GetVarint();
    const auto seq = r.GetU32();
    const auto root_anchor = r.GetBool();
    const auto a_client = r.GetVarint();
    const auto a_counter = r.GetVarint();
    const auto a_seq = r.GetU32();
    auto value = Value::Decode(r);
    if (!client || !counter || !seq || !root_anchor || !a_client ||
        !a_counter || !a_seq || !value) {
      return nullptr;
    }
    const OpId id{*client, *counter, *seq};
    Element element;
    element.root_anchor = *root_anchor;
    element.anchor = OpId{*a_client, *a_counter, *a_seq};
    element.value = std::move(*value);
    node->Put(id, std::move(element));
  }
  const auto removes = r.GetVarint();
  if (!removes) return nullptr;
  for (std::uint64_t i = 0; i < *removes; ++i) {
    const auto client = r.GetVarint();
    const auto counter = r.GetVarint();
    const auto seq = r.GetU32();
    if (!client || !counter || !seq) return nullptr;
    node->removed_.insert(OpId{*client, *counter, *seq});
  }
  return node;
}

std::unique_ptr<CrdtNode> SequenceNode::Clone() const {
  auto node = std::make_unique<SequenceNode>();
  node->elements_ = elements_;
  node->removed_ = removed_;
  node->children_ = children_;
  return node;
}

void SequenceNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const SequenceNode*>(&other);
  if (o == nullptr) return;
  for (const auto& [id, element] : o->elements_) Put(id, element);
  removed_.insert(o->removed_.begin(), o->removed_.end());
}

}  // namespace orderless::crdt
