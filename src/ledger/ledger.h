// The per-application ledger of one organization: an append-only hash-chain
// log plus a database (KV store for durable operations, CRDT cache for the
// current application state ST_Oi).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ledger/cache.h"
#include "ledger/hashchain.h"
#include "ledger/kvstore.h"

namespace orderless::ledger {

struct LedgerOptions {
  /// Persist each operation to the KV store (needed for RebuildCacheFromStore;
  /// large simulations turn it off to bound memory).
  bool persist_ops = true;
  /// Keep only the newest block in memory (chain hash still accumulates).
  bool rolling_log = false;
  /// Record "tx/<digest>" keys for HasTransaction (hosts that keep their own
  /// commit index turn it off).
  bool track_tx_keys = true;
};

class Ledger {
 public:
  /// `store` may be shared or owned; pass a MemKvStore in simulations or a
  /// MiniLevel store for durability.
  explicit Ledger(std::shared_ptr<KvStore> store, LedgerOptions options = {});

  /// Commits one transaction: appends a block (valid and invalid alike, for
  /// bookkeeping), and for valid transactions persists the operations and
  /// updates the cache. Returns the appended block.
  const Block& Commit(const crypto::Digest& tx_digest, bool valid,
                      const std::vector<crdt::Operation>& ops);

  /// True when a transaction with this digest was already committed (used to
  /// dedup gossip and client retries).
  bool HasTransaction(const crypto::Digest& tx_digest) const;

  /// Current value of an object (read-your-writes at this organization).
  crdt::ReadResult Read(const std::string& object_id,
                        const std::vector<std::string>& path = {}) const;

  /// Rebuilds the cache by replaying every persisted operation; exercising
  /// the recovery path LevelDB serves in the prototype.
  void RebuildCacheFromStore();

  /// One committed transaction as recovered from the persistent store.
  struct RecoveredTx {
    crypto::Digest id;
    std::uint64_t height = 0;
    bool valid = false;
    crypto::Digest block_hash;
  };

  /// Scans the persisted transaction records in block-height order (requires
  /// track_tx_keys). Used to rebuild a crashed organization's commit index.
  std::vector<RecoveredTx> RecoverCommitIndex() const;

  /// Full restart-from-storage path: replays the persisted transaction
  /// records to rebuild the hash-chain log and commit counters, then rebuilds
  /// the CRDT cache from the persisted operations. Returns false when any
  /// recomputed block hash disagrees with the persisted one (tampered or torn
  /// storage); recovery still proceeds as far as possible.
  bool RecoverFromStore();

  /// Checkpoint-seeded recovery: the hash chain restarts at the checkpoint
  /// boundary, records below it (normally pruned already) are skipped, and
  /// the cache is rebuilt by installing the snapshot object states and then
  /// replaying only the operations persisted after the frontier — O(delta)
  /// work instead of O(history).
  struct RecoveryBase {
    std::uint64_t chain_height = 0;
    crypto::Digest chain_head;
    /// Canonical object states to install before op replay (may be null).
    const std::vector<std::pair<std::string, Bytes>>* object_states = nullptr;
  };
  bool RecoverFromStore(const RecoveryBase& base);

  /// Commit records actually replayed by the last RecoverFromStore call —
  /// the O(delta) catch-up assertions key on this.
  std::size_t last_recovered_records() const {
    return last_recovered_records_;
  }

  /// CRDT-merges an encoded object state into the cache (checkpoint
  /// install). Returns false on undecodable bytes.
  bool MergeObjectState(const std::string& object_id, BytesView state) {
    return cache_.MergeEncodedState(object_id, state);
  }

  /// Durable checkpoint slots ("ckpt/<slot>"), outside every scan prefix the
  /// recovery paths use. The ledger stores the blob verbatim; en/decoding is
  /// the caller's (core::Checkpoint's) business. In-memory stores keep the
  /// refcounted buffer itself, so a checkpoint persisted by several
  /// organizations (its sealer and every installer) is held once.
  void PutCheckpointBlob(std::string_view slot,
                         std::shared_ptr<const Bytes> encoded);
  std::optional<Bytes> GetCheckpointBlob(std::string_view slot) const;

  /// Storage reclamation behind a sealed checkpoint frontier: deletes commit
  /// records below `chain_height`, the persisted bodies of `covered_ids`,
  /// and every persisted operation (the snapshot the caller just sealed
  /// supersedes them), then prunes the in-memory hash chain to the boundary.
  /// Returns the number of rows deleted. Callers pass only the ids the
  /// frontier newly covers: bodies behind an earlier frontier are already
  /// gone, so the work stays proportional to the delta.
  std::size_t PruneBehindCheckpoint(
      std::uint64_t chain_height, const crypto::Digest& chain_head,
      const std::vector<crypto::Digest>& covered_ids);

  /// Optional storage of full transaction bodies (canonical encoding), so a
  /// restarted host can keep serving gossip pulls / anti-entropy syncs for
  /// transactions committed before the crash.
  void PutTransactionBody(const crypto::Digest& tx_digest, BytesView encoded);
  /// Zero-copy variant: the store adopts the refcounted buffer (the
  /// transaction's sealed canonical encoding) instead of copying it.
  void PutTransactionBodyRef(const crypto::Digest& tx_digest,
                             std::shared_ptr<const Bytes> encoded);
  void ScanTransactionBodies(
      const std::function<void(BytesView encoded)>& visitor) const;

  const HashChainLog& log() const { return log_; }
  HashChainLog& mutable_log() { return log_; }
  const CrdtCache& cache() const { return cache_; }
  KvStore& store() { return *store_; }

  std::uint64_t committed_valid() const { return committed_valid_; }
  std::uint64_t committed_invalid() const { return committed_invalid_; }

 private:
  static std::string TxKey(const crypto::Digest& tx_digest);
  static std::string BodyKey(const crypto::Digest& tx_digest);
  static std::string OpKey(const crdt::Operation& op);

  /// Applies every persisted operation to the cache (no Clear — recovery
  /// installs checkpoint snapshot states first, then replays the delta).
  void ReplayOpsFromStore();

  std::shared_ptr<KvStore> store_;
  LedgerOptions options_;
  HashChainLog log_;
  CrdtCache cache_;
  std::uint64_t committed_valid_ = 0;
  std::uint64_t committed_invalid_ = 0;
  std::size_t last_recovered_records_ = 0;
};

}  // namespace orderless::ledger
