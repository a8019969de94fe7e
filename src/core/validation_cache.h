// Memoized transaction validation (host-side optimization).
//
// ValidateTransaction is a pure function of (transaction bytes, PKI,
// organization key-set, endorsement policy): for a fixed simulated network
// those last three never change, so once one organization has verified a
// transaction's signatures every other organization validating an identical
// copy can reuse the verdict. The simulated validate-service time is still
// charged per organization — only the host-side SHA-256 work is skipped —
// so simulated results are bit-identical with or without a memo attached.
//
// Byzantine safety: the memo key is the transaction id, but a Byzantine
// peer could gossip a *different* body under a known-good id (the id is
// attacker-chosen on a forged transaction). Lookup therefore only returns a
// hit when the candidate is the same object (the zero-copy shared_ptr case)
// or its canonical encoding is byte-identical to the bytes that earned the
// cached verdict. A substituted body misses and takes the full
// ValidateTransaction path.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/transaction.h"

namespace orderless::core {

/// LRU of validation verdicts keyed by transaction id, guarded by
/// byte-equality of the canonical encoding.
class ValidationMemo {
 public:
  explicit ValidationMemo(std::size_t capacity = 8192);

  /// Returns the cached verdict iff `tx` is provably the same transaction
  /// that earned it (same object, or byte-identical canonical encoding).
  std::optional<TxVerdict> Lookup(
      const std::shared_ptr<const Transaction>& tx);

  /// Records the verdict for `tx`, evicting the least-recently-used entry
  /// at capacity.
  void Store(const std::shared_ptr<const Transaction>& tx, TxVerdict verdict);

  // --- Sharded mode, for the parallel simulation engine. ---
  //
  // The memo is shared across organizations, which run on different lanes
  // in a parallel epoch. Sharding splits it into a read-only base (the LRU
  // above, frozen during epochs) plus one private shard per destination
  // org: lookups consult the own shard then the base without touching LRU
  // order; stores append to the own shard. MergeShards() — called at every
  // epoch barrier — folds the shards into the base LRU in org order, so
  // the base's content is a deterministic function of the simulation, not
  // of thread timing. Verdicts are unaffected either way (the byte-equality
  // guard makes a hit equivalent to revalidation), which is why the memo
  // stays outcome-neutral under parallel execution.

  /// Switches to sharded mode with one shard per org in `orgs`. Call before
  /// the run starts; unknown orgs in LookupFor/StoreFor fall back to the
  /// unsharded path.
  void EnableShards(const std::vector<std::uint32_t>& orgs);
  bool sharded() const { return sharded_; }

  /// Sharded-aware Lookup/Store: exactly Lookup/Store when sharding is off.
  std::optional<TxVerdict> LookupFor(
      std::uint32_t org, const std::shared_ptr<const Transaction>& tx);
  void StoreFor(std::uint32_t org,
                const std::shared_ptr<const Transaction>& tx,
                TxVerdict verdict);

  /// Folds every shard into the base LRU (org order, insertion order within
  /// a shard) and merges shard-local stats. Single-threaded barrier context.
  void MergeShards();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t byte_mismatches = 0;  // Byzantine body-substitution guard
  };
  const Stats& stats() const { return stats_; }
  std::size_t size() const { return order_.size(); }
  void Clear();

 private:
  struct Entry {
    crypto::Digest id;
    // Keeps the verified body's bytes reachable for the byte-equality guard
    // (and pins them: EncodedBody() views stay valid while the entry lives).
    std::shared_ptr<const Transaction> tx;
    TxVerdict verdict = TxVerdict::kValid;
  };
  using Order = std::list<Entry>;

  /// Private per-org buffer: entries stored since the last merge, in
  /// insertion order, plus this org's view of the stats.
  struct Shard {
    std::vector<Entry> pending;
    std::unordered_map<crypto::Digest, std::size_t, crypto::DigestHash> index;
    Stats stats;
  };

  bool SameBody(const Entry& entry,
                const std::shared_ptr<const Transaction>& tx) const;

  std::size_t capacity_;
  Order order_;  // front = most recently used
  std::unordered_map<crypto::Digest, Order::iterator, crypto::DigestHash> map_;
  Stats stats_;
  bool sharded_ = false;
  std::vector<std::uint32_t> shard_orgs_;  // merge order
  std::unordered_map<std::uint32_t, Shard> shards_;
};

}  // namespace orderless::core
