// Intra-organization commit pipeline — the host-side work-sharing hub.
//
// The simulated commit path is a pipeline already: dedup → validate → ledger
// append → CRDT apply → gossip enqueue, each stage an event on the org's CPU
// or cache-lock queue with its own service time. What the seed lacked is any
// *host* overlap between those stages for independent transactions: a commit
// fanned out to q organizations is signature-verified q times, once per org
// lane, even though validation is a pure function of (tx bytes, PKI,
// key-set, policy) — and the per-epoch frozen memo shards (validation_cache.h)
// can only dedup *across* epochs, so same-epoch fan-out always misses.
//
// CommitPipeline closes that gap. When an organization admits an independent
// commit (disjoint write set against everything it currently has in flight —
// see Organization::PipeAdmit), it publishes the transaction here. The item
// then gets verified exactly once on the host, by whichever thread gets
// there first:
//
//   - an idle simulation worker that ran out of lanes in the current epoch
//     (sim::Simulation::SetIdleWork → DrainOne) steals a batch of published
//     items and verifies them with one cross-transaction
//     ValidateTransactionsBatch / Pki::VerifyBatch call, or
//   - the first org lane whose charged validate service completes (Resolve)
//     claims and verifies inline, exactly like the pre-pipeline code.
//
// Later resolvers of the same item reuse the stored verdict. Conflicting
// transactions are never published (their org resolves them inline in
// canonical order), and ledger append / CRDT apply always run on the org's
// own lane at their simulated times — the hub reorders *host* verification
// work only, never simulated effects.
//
// Determinism: the verdict an org observes is byte-identical to what it
// would have computed itself (validation is pure; a Byzantine body
// substitution with a colliding id is caught by the same EncodedBody
// byte-equality guard the validation memo uses, and falls back to inline
// validation). Every simulated decision, service charge, trace event and
// memo store happens on the org's lane in canonical order, so results are
// bit-identical at any thread count and to a sequential run, which has no
// hub.
//
// Threading contract: Publish/Resolve run on simulation lanes and DrainOne
// runs on idle workers, all strictly *inside* an epoch; Sweep runs at epoch
// barriers when no lane or thief is active (sim::Simulation joins all
// workers, including their idle-work loop, before running epoch hooks). An
// item is only erased at a barrier, so raw pointers handed out under the
// mutex stay valid for the rest of the epoch.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/policy.h"
#include "core/transaction.h"
#include "crypto/pki.h"

namespace orderless::core {

/// Host-side drain/steal statistics (info-only: host scheduling dependent,
/// never part of simulated results).
struct PipelineStats {
  std::uint64_t published = 0;   // items entered into the hub
  std::uint64_t stolen = 0;      // items verified by idle workers
  std::uint64_t inline_claims = 0;  // items verified by the resolving org
  std::uint64_t shared = 0;      // resolves served from an existing verdict
  std::uint64_t batches = 0;     // cross-tx VerifyBatch calls issued
  std::uint64_t swept = 0;       // items reclaimed at epoch barriers
};

class CommitPipeline {
 public:
  /// All organizations sharing one hub must share `pki`, the full
  /// organization key directory and the endorsement policy (true for every
  /// org of one simulated network — validation is pure in those inputs,
  /// which is what makes the verdict shareable). `pki` must outlive the hub.
  CommitPipeline(const crypto::Pki& pki, std::set<crypto::KeyId> org_keys,
                 EndorsementPolicy policy);

  /// Makes `tx` available for stealing. Call from the admitting org's lane;
  /// seals the transaction's cached digests/encoding first so thief-thread
  /// reads are immutable. Idempotent per transaction id.
  void Publish(const std::shared_ptr<const Transaction>& tx);

  /// Returns the hub verdict for `tx`: the stored one if a thief (or an
  /// earlier org) already verified it, else verifies inline after claiming.
  /// Returns nullopt when the hub cannot vouch for this exact body (never
  /// published, already swept, or a byte-differing body under the same id)
  /// — the caller then validates locally, the pre-pipeline behaviour.
  std::optional<TxVerdict> Resolve(
      const std::shared_ptr<const Transaction>& tx);

  /// Steals up to `kStealBatch` unclaimed items and verifies them with one
  /// batched signature pass. Returns true if any work was done (the idle
  /// worker calls again until false). Safe to call from any thread inside
  /// an epoch.
  bool DrainOne();

  /// Epoch-barrier reclamation: drops consumed items and ages out items
  /// whose org never resolved them (crashed mid-pipeline). Must only run
  /// when no lane or thief is active — the simulation's epoch hook point.
  void Sweep();

  const PipelineStats& stats() const { return stats_; }

  static constexpr std::size_t kStealBatch = 8;

 private:
  // state: 0 = published, unclaimed; 1 = claimed, verdict being computed;
  // 2 = verdict stored. Claim is a CAS 0→1; the verdict store is
  // release-ordered so an acquire load of state 2 sees it.
  struct Item {
    std::shared_ptr<const Transaction> tx;
    std::atomic<std::uint32_t> state{0};
    TxVerdict verdict = TxVerdict::kValid;
    std::atomic<bool> consumed{false};
    std::uint32_t age = 0;  // barriers survived; stale items get swept
  };

  Item* Find(const crypto::Digest& id);
  static TxVerdict AwaitVerdict(Item& item);

  const crypto::Pki& pki_;
  const std::set<crypto::KeyId> org_keys_;
  const EndorsementPolicy policy_;

  std::mutex mutex_;
  std::unordered_map<crypto::Digest, std::unique_ptr<Item>,
                     crypto::DigestHash>
      items_;
  std::deque<crypto::Digest> steal_queue_;

  // Host-scheduling-dependent; mutated under mutex_ or with atomics folded
  // in at Sweep. Plain fields suffice: readers consume them between runs.
  PipelineStats stats_;
};

}  // namespace orderless::core
