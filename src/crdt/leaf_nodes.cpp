#include "crdt/leaf_nodes.h"

#include <algorithm>
#include <vector>

namespace orderless::crdt {

namespace {
// Leaf operations must target this node exactly (path fully consumed).
bool AtLeaf(const Operation& op, std::size_t depth) {
  return depth == op.path.size();
}

// Counter totals wrap instead of overflowing: honest amounts never get near
// the limit, and a forged state must not be undefined behaviour.
std::int64_t WrappingAdd(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

// Smallest encoded entry: 1-byte varints for client, counter and amount plus
// the fixed 4-byte seq. Bounds the up-front reservation of a forged count.
constexpr std::size_t kMinEntryBytes = 7;

void PutEntry(codec::Writer& w, const ContributionSet::Entry& e) {
  w.PutVarint(e.first.client);
  w.PutVarint(e.first.counter);
  w.PutU32(e.first.seq);
  w.PutI64(e.second);
}
}  // namespace

// ---------------------------------------------------------- ContributionSet

bool ContributionSet::Insert(const Entry& e) {
  if (std::binary_search(run_.begin(), run_.end(), e)) return false;
  if (!tail_.insert(e).second) return false;
  total_ = WrappingAdd(total_, e.second);
  if (tail_.size() > MaxTail(run_.size())) Fold();
  return true;
}

void ContributionSet::Fold() const {
  if (tail_.empty()) return;
  std::vector<Entry> fresh(tail_.begin(), tail_.end());
  std::sort(fresh.begin(), fresh.end());
  // Keep the buckets: the tail refills to about this size before the next
  // fold, and its bound keeps them a fraction of the run.
  tail_.clear();
  MergeIntoRun(fresh);
}

void ContributionSet::MergeIntoRun(const std::vector<Entry>& fresh) const {
  // In place, from the back, so no entry is overwritten before it is read.
  // Capacity at least doubles: a run regrown in small steps leaves a trail
  // of freed blocks behind and measured more peak memory than the slack.
  const std::size_t old_size = run_.size();
  const std::size_t need = old_size + fresh.size();
  if (run_.capacity() < need) {
    run_.reserve(std::max(need, 2 * run_.capacity()));
  }
  run_.resize(need);
  auto out = run_.end();
  auto mine = run_.begin() + static_cast<std::ptrdiff_t>(old_size);
  auto theirs = fresh.end();
  while (theirs != fresh.begin()) {
    if (mine != run_.begin() && *(theirs - 1) < *(mine - 1)) {
      *--out = *--mine;
    } else {
      *--out = *--theirs;
    }
  }
}

void ContributionSet::Encode(codec::Writer& w) const {
  Fold();
  w.PutVarint(run_.size());
  for (const Entry& e : run_) PutEntry(w, e);
}

std::optional<ContributionSet> ContributionSet::Decode(codec::Reader& r,
                                                       bool positive_only) {
  const auto n = r.GetVarint();
  if (!n) return std::nullopt;
  ContributionSet set;
  set.run_.reserve(
      std::min<std::uint64_t>(*n, r.remaining() / kMinEntryBytes));
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto client = r.GetVarint();
    const auto counter = r.GetVarint();
    const auto seq = r.GetU32();
    const auto amount = r.GetI64();
    if (!client || !counter || !seq || !amount) return std::nullopt;
    if (positive_only && *amount <= 0) return std::nullopt;
    const Entry e{OpId{*client, *counter, *seq}, *amount};
    if (!set.run_.empty() && !(set.run_.back() < e)) return std::nullopt;
    set.total_ = WrappingAdd(set.total_, e.second);
    set.run_.push_back(e);
  }
  return set;
}

void ContributionSet::MergeFrom(const ContributionSet& other) {
  if (&other == this) return;
  Fold();
  other.Fold();
  // Both runs are sorted: walk them side by side, skipping every entry the
  // target already holds.
  std::vector<Entry> fresh;
  auto mine = run_.begin();
  for (const Entry& e : other.run_) {
    while (mine != run_.end() && *mine < e) ++mine;
    if (mine != run_.end() && *mine == e) continue;
    fresh.push_back(e);
  }
  if (fresh.empty()) return;
  for (const Entry& e : fresh) total_ = WrappingAdd(total_, e.second);
  MergeIntoRun(fresh);  // a subsequence of a sorted run
}

// ---------------------------------------------------------------- G-Counter

bool GCounterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAddValue) return false;
  if (!op.value.IsInt() || op.value.AsInt() <= 0) return false;  // grow-only
  return contributions_.Insert({op.id(), op.value.AsInt()});
}

ReadResult GCounterNode::ReadAt(const std::vector<std::string>& path,
                                std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kGCounter;
  r.exists = true;
  r.counter = contributions_.total();
  return r;
}

void GCounterNode::Encode(codec::Writer& w) const {
  contributions_.Encode(w);
}

std::unique_ptr<GCounterNode> GCounterNode::Decode(codec::Reader& r) {
  auto contributions = ContributionSet::Decode(r, /*positive_only=*/true);
  if (!contributions) return nullptr;
  auto node = std::make_unique<GCounterNode>();
  node->contributions_ = std::move(*contributions);
  return node;
}

std::unique_ptr<CrdtNode> GCounterNode::Clone() const {
  auto node = std::make_unique<GCounterNode>();
  node->contributions_ = contributions_;
  return node;
}

void GCounterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const GCounterNode*>(&other);
  if (o != nullptr) contributions_.MergeFrom(o->contributions_);
}

// --------------------------------------------------------------- PN-Counter

bool PNCounterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAddValue) return false;
  if (!op.value.IsInt()) return false;
  return contributions_.Insert({op.id(), op.value.AsInt()});
}

ReadResult PNCounterNode::ReadAt(const std::vector<std::string>& path,
                                 std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kPNCounter;
  r.exists = true;
  r.counter = contributions_.total();
  return r;
}

void PNCounterNode::Encode(codec::Writer& w) const {
  contributions_.Encode(w);
}

std::unique_ptr<PNCounterNode> PNCounterNode::Decode(codec::Reader& r) {
  auto contributions = ContributionSet::Decode(r, /*positive_only=*/false);
  if (!contributions) return nullptr;
  auto node = std::make_unique<PNCounterNode>();
  node->contributions_ = std::move(*contributions);
  return node;
}

std::unique_ptr<CrdtNode> PNCounterNode::Clone() const {
  auto node = std::make_unique<PNCounterNode>();
  node->contributions_ = contributions_;
  return node;
}

void PNCounterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const PNCounterNode*>(&other);
  if (o != nullptr) contributions_.MergeFrom(o->contributions_);
}

// -------------------------------------------------------------- MV-Register

bool MVRegisterNode::Assign(const Value& v, const clk::OpClock& clock) {
  // Keep the maximal antichain: skip if dominated, drop what we dominate.
  for (const auto& [c, existing] : candidates_) {
    (void)existing;
    if (clk::HappenedBefore(clock, c)) return false;
  }
  bool dropped = false;
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (clk::HappenedBefore(it->first, clock)) {
      it = candidates_.erase(it);
      dropped = true;
    } else {
      ++it;
    }
  }
  return candidates_.emplace(clock, v).second || dropped;
}

bool MVRegisterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAssignValue) return false;
  return Assign(op.value, op.clock);
}

ReadResult MVRegisterNode::ReadAt(const std::vector<std::string>& path,
                                  std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kMVRegister;
  r.exists = true;
  r.values.reserve(candidates_.size());
  for (const auto& [clock, value] : candidates_) {
    (void)clock;
    r.values.push_back(value);
  }
  std::sort(r.values.begin(), r.values.end());
  return r;
}

void MVRegisterNode::Encode(codec::Writer& w) const {
  w.PutVarint(candidates_.size());
  for (const auto& [clock, value] : candidates_) {
    clock.Encode(w);
    value.Encode(w);
  }
}

std::unique_ptr<MVRegisterNode> MVRegisterNode::Decode(codec::Reader& r) {
  const auto n = r.GetVarint();
  if (!n) return nullptr;
  auto node = std::make_unique<MVRegisterNode>();
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto clock = clk::OpClock::Decode(r);
    auto value = Value::Decode(r);
    if (!clock || !value) return nullptr;
    node->candidates_.emplace(*clock, std::move(*value));
  }
  return node;
}

std::unique_ptr<CrdtNode> MVRegisterNode::Clone() const {
  auto node = std::make_unique<MVRegisterNode>();
  node->candidates_ = candidates_;
  return node;
}

void MVRegisterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const MVRegisterNode*>(&other);
  if (o == nullptr) return;
  // Joining two antichains: re-assign each remote candidate.
  for (const auto& [clock, value] : o->candidates_) Assign(value, clock);
}

// ------------------------------------------------------------- LWW-Register

bool LWWRegisterNode::Assign(const Value& v, const clk::OpClock& clock) {
  // Total order: (counter, client, value) — deterministic for any arrival
  // order, even across clients.
  const auto candidate = std::make_tuple(clock.counter, clock.client, v);
  const auto current = std::make_tuple(clock_.counter, clock_.client, value_);
  if (has_value_ && !(candidate > current)) return false;
  has_value_ = true;
  clock_ = clock;
  value_ = v;
  return true;
}

bool LWWRegisterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAssignValue) return false;
  return Assign(op.value, op.clock);
}

ReadResult LWWRegisterNode::ReadAt(const std::vector<std::string>& path,
                                   std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kLWWRegister;
  r.exists = true;
  if (has_value_) r.values.push_back(value_);
  return r;
}

void LWWRegisterNode::Encode(codec::Writer& w) const {
  w.PutBool(has_value_);
  if (has_value_) {
    clock_.Encode(w);
    value_.Encode(w);
  }
}

std::unique_ptr<LWWRegisterNode> LWWRegisterNode::Decode(codec::Reader& r) {
  const auto has = r.GetBool();
  if (!has) return nullptr;
  auto node = std::make_unique<LWWRegisterNode>();
  if (*has) {
    const auto clock = clk::OpClock::Decode(r);
    auto value = Value::Decode(r);
    if (!clock || !value) return nullptr;
    node->has_value_ = true;
    node->clock_ = *clock;
    node->value_ = std::move(*value);
  }
  return node;
}

std::unique_ptr<CrdtNode> LWWRegisterNode::Clone() const {
  auto node = std::make_unique<LWWRegisterNode>();
  node->has_value_ = has_value_;
  node->clock_ = clock_;
  node->value_ = value_;
  return node;
}

void LWWRegisterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const LWWRegisterNode*>(&other);
  if (o == nullptr || !o->has_value_) return;
  Assign(o->value_, o->clock_);
}

// ------------------------------------------------------------------- OR-Set

bool ORSetNode::Element::Visible() const {
  for (const auto& add : adds) {
    bool covered = false;
    for (const auto& remove : removes) {
      if (clk::HappenedBefore(add, remove)) {
        covered = true;
        break;
      }
    }
    if (!covered) return true;
  }
  return false;
}

bool ORSetNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth)) return false;
  if (op.kind == OpKind::kAddValue) {
    return elements_[op.value].adds.insert(op.clock).second;
  }
  if (op.kind == OpKind::kRemoveValue) {
    return elements_[op.value].removes.insert(op.clock).second;
  }
  return false;
}

ReadResult ORSetNode::ReadAt(const std::vector<std::string>& path,
                             std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kORSet;
  r.exists = true;
  for (const auto& [value, element] : elements_) {
    if (element.Visible()) r.values.push_back(value);
  }
  return r;
}

bool ORSetNode::Contains(const Value& v) const {
  const auto it = elements_.find(v);
  return it != elements_.end() && it->second.Visible();
}

std::size_t ORSetNode::OpCount() const {
  std::size_t n = 0;
  for (const auto& [value, element] : elements_) {
    (void)value;
    n += element.adds.size() + element.removes.size();
  }
  return n;
}

void ORSetNode::Encode(codec::Writer& w) const {
  w.PutVarint(elements_.size());
  for (const auto& [value, element] : elements_) {
    value.Encode(w);
    w.PutVarint(element.adds.size());
    for (const auto& c : element.adds) c.Encode(w);
    w.PutVarint(element.removes.size());
    for (const auto& c : element.removes) c.Encode(w);
  }
}

std::unique_ptr<ORSetNode> ORSetNode::Decode(codec::Reader& r) {
  const auto n = r.GetVarint();
  if (!n) return nullptr;
  auto node = std::make_unique<ORSetNode>();
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto value = Value::Decode(r);
    if (!value) return nullptr;
    Element element;
    const auto adds = r.GetVarint();
    if (!adds) return nullptr;
    for (std::uint64_t j = 0; j < *adds; ++j) {
      const auto c = clk::OpClock::Decode(r);
      if (!c) return nullptr;
      element.adds.insert(*c);
    }
    const auto removes = r.GetVarint();
    if (!removes) return nullptr;
    for (std::uint64_t j = 0; j < *removes; ++j) {
      const auto c = clk::OpClock::Decode(r);
      if (!c) return nullptr;
      element.removes.insert(*c);
    }
    node->elements_.emplace(std::move(*value), std::move(element));
  }
  return node;
}

std::unique_ptr<CrdtNode> ORSetNode::Clone() const {
  auto node = std::make_unique<ORSetNode>();
  node->elements_ = elements_;
  return node;
}

void ORSetNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const ORSetNode*>(&other);
  if (o == nullptr) return;
  for (const auto& [value, element] : o->elements_) {
    Element& mine = elements_[value];
    mine.adds.insert(element.adds.begin(), element.adds.end());
    mine.removes.insert(element.removes.begin(), element.removes.end());
  }
}

}  // namespace orderless::crdt
