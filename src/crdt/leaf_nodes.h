// Leaf CRDTs: G-Counter and MV-Register from the paper's Table 1, plus the
// PN-Counter, LWW-Register and OR-Set extensions.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "clock/logical_clock.h"
#include "crdt/node.h"

namespace orderless::crdt {

/// Hash for counter contributions in the unsorted tail of a
/// ContributionSet (a membership index; Encode never iterates it unsorted).
struct ContributionHash {
  std::size_t operator()(
      const std::pair<OpId, std::int64_t>& c) const noexcept {
    std::uint64_t h = c.first.client * 0x9E3779B97F4A7C15ULL;
    h ^= (c.first.counter + 0x9E3779B97F4A7C15ULL) * 0xC2B2AE3D27D4EB4FULL;
    h ^= (static_cast<std::uint64_t>(c.first.seq) ^
          static_cast<std::uint64_t>(c.second)) *
         0x165667B19E3779F9ULL;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};

/// A counter's contributions: each (op id, amount) pair counts once, so
/// replays dedup and Byzantine op-id reuse still converges.
///
/// Layout: a sorted flat run plus an unsorted tail. Apply-path inserts land
/// in the tail, a hash set, after a binary search of the run. The tail is
/// folded into the run (sort the tail, merge in place) once it outgrows
/// MaxTail, and by Encode and MergeFrom, so every entry but a bounded
/// recent few sits at 32 bytes in the run, sealed or not. Encode then
/// writes the run in one linear pass, Decode reads the canonical (strictly
/// increasing) stream straight into the run, and MergeFrom walks two runs
/// side by side, adding only what the target lacks. Folding never changes
/// the set, so it is allowed on const objects.
class ContributionSet {
 public:
  using Entry = std::pair<OpId, std::int64_t>;

  /// Adds `e` unless already present; returns true iff it was new.
  bool Insert(const Entry& e);
  std::int64_t total() const { return total_; }
  std::size_t size() const { return run_.size() + tail_.size(); }
  std::size_t tail_size() const { return tail_.size(); }
  /// Largest tail Insert leaves behind a run of `run_size` entries: folding
  /// at a fixed fraction of the run keeps the amortized fold cost constant.
  static std::size_t MaxTail(std::size_t run_size) {
    return std::max<std::size_t>(256, run_size / 4);
  }

  /// Canonical encoding: count, then the entries in increasing order.
  void Encode(codec::Writer& w) const;
  /// Accepts only canonical encodings: entries strictly increasing (so no
  /// duplicates) and, with `positive_only`, every amount > 0. Anything else
  /// is a forgery or corruption, never an honest state.
  static std::optional<ContributionSet> Decode(codec::Reader& r,
                                               bool positive_only);
  /// Set union; the total grows by exactly the entries that were new.
  void MergeFrom(const ContributionSet& other);

 private:
  /// Moves the tail into the run.
  void Fold() const;
  /// Merges `fresh` (sorted, and absent from the set) into the run.
  void MergeIntoRun(const std::vector<Entry>& fresh) const;

  mutable std::vector<Entry> run_;  // strictly increasing
  mutable std::unordered_set<Entry, ContributionHash> tail_;
  std::int64_t total_ = 0;
};

/// Grow-only counter: value = sum of all (positive) AddValue contributions.
class GCounterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kGCounter; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return contributions_.size(); }

  std::int64_t Total() const { return contributions_.total(); }

  static std::unique_ptr<GCounterNode> Decode(codec::Reader& r);

 private:
  ContributionSet contributions_;
};

/// PN-Counter extension: increments and decrements.
class PNCounterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kPNCounter; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return contributions_.size(); }

  std::int64_t Total() const { return contributions_.total(); }

  static std::unique_ptr<PNCounterNode> Decode(codec::Reader& r);

 private:
  ContributionSet contributions_;
};

/// Multi-value register: keeps the maximal antichain of assignments under
/// happened-before; concurrent assignments all survive (paper Fig. 4).
class MVRegisterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kMVRegister; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return candidates_.size(); }

  /// Direct assignment (used when a map insert carries an initial value);
  /// returns true iff the candidate set changed.
  bool Assign(const Value& v, const clk::OpClock& clock);

  static std::unique_ptr<MVRegisterNode> Decode(codec::Reader& r);

 private:
  std::set<std::pair<clk::OpClock, Value>> candidates_;
};

/// Last-writer-wins register extension: total order on (counter, client,
/// value) picks a single winner deterministically.
class LWWRegisterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kLWWRegister; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return has_value_ ? 1 : 0; }

  /// Returns true iff (v, clock) became the winner.
  bool Assign(const Value& v, const clk::OpClock& clock);

  static std::unique_ptr<LWWRegisterNode> Decode(codec::Reader& r);

 private:
  bool has_value_ = false;
  clk::OpClock clock_;
  Value value_;
};

/// Observed-remove set extension: an element is present iff some add is not
/// happened-before any remove of the same element.
class ORSetNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kORSet; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override;

  bool Contains(const Value& v) const;

  static std::unique_ptr<ORSetNode> Decode(codec::Reader& r);

 private:
  struct Element {
    std::set<clk::OpClock> adds;
    std::set<clk::OpClock> removes;
    bool Visible() const;
  };
  std::map<Value, Element> elements_;
};

}  // namespace orderless::crdt
