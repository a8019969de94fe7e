// Signed CRDT-state checkpoints (ROADMAP item 3).
//
// Because the application state ST_Oi is a join of CRDT objects (a
// join-semilattice), a checkpoint is nothing more than a digest-stamped
// snapshot of the database at a gossip frontier: the canonically-encoded
// state of every object, the set of transaction ids it covers, and the
// sealing organization's hash-chain head at that point. Installing a
// checkpoint is a state *merge* — idempotent and monotone — so a lagging or
// restarted organization can adopt one wholesale and then replay only the
// delta committed after the frontier, instead of re-pulling the entire
// transaction history (O(delta) catch-up instead of O(history)).
//
// The digest is deterministic: it covers the canonical encoding of every
// field below except the digest and signature themselves, with the covered
// set sorted by transaction id and the object snapshots sorted by object id.
// The signature binds the digest to the sealing organization under a
// dedicated domain-separation context, so a tampered snapshot — or one
// forged under another identity — fails verification before any state is
// merged.
//
// Trust: the seal alone is 1-of-n — only the origin vouches for it. Quorum
// attestation (AttestationSet below) closes that gap: after sealing, the
// origin broadcasts the checkpoint and peers that can reproduce the digest
// against their own converged CRDT state return a signature over it under a
// second domain context. A checkpoint accompanied by q valid attestations
// from distinct organization keys is q-of-n trusted — exactly the
// endorsement-policy bound the transaction layer already uses — so install
// is safe with up to f = n − q Byzantine organizations. See DESIGN.md §12
// (format, seal/install) and §13 (attestation + adversary model).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "crypto/pki.h"

namespace orderless::core {

/// Domain separation for checkpoint signatures.
inline constexpr std::string_view kCheckpointContext = "orderless.ckpt";

/// Domain separation for checkpoint *attestation* signatures. A different
/// context than the seal so an attestation can never be replayed as a seal
/// (or vice versa) even over the same digest.
inline constexpr std::string_view kCheckpointAttestContext =
    "orderless.ckpt.attest";

struct Checkpoint {
  /// Monotone per-origin seal counter (first seal = 1).
  std::uint64_t seq = 0;
  /// The sealing organization's key id.
  crypto::KeyId origin = 0;
  /// The origin's hash-chain frontier at seal time: `chain_height` blocks
  /// are covered and `chain_head` is the hash of the last one. Meaningful
  /// only to the origin itself (commit orders — and therefore chains —
  /// legitimately differ across organizations); used to seed the chain base
  /// after the origin prunes and later restarts.
  std::uint64_t chain_height = 0;
  crypto::Digest chain_head;
  /// Valid-commit accumulators at the frontier (what anti-entropy summaries
  /// compare): count and XOR of id prefixes over the valid covered ids.
  std::uint64_t valid_count = 0;
  std::uint64_t valid_xor = 0;

  /// Every transaction id the checkpoint covers, with its commit verdict,
  /// sorted by id bytes. An installer adopts these into its commit/dedup
  /// index so covered transactions are never re-validated or re-committed.
  struct CoveredTx {
    crypto::Digest id;
    bool valid = false;
  };
  std::vector<CoveredTx> covered;

  /// Canonical encoded state per CRDT object, sorted by object id. The
  /// encoding is crdt::CrdtObject::EncodeState(): equal byte strings iff the
  /// objects absorbed the same operation set, so installs merge cleanly.
  std::vector<std::pair<std::string, Bytes>> objects;

  /// SHA-256 over the canonical encoding of every field above.
  crypto::Digest digest;
  /// origin's signature over `digest` under kCheckpointContext.
  crypto::Signature signature;

  /// The canonical encoding, attached by the sealing organization right
  /// after Seal() and before the checkpoint is shared, so every ledger that
  /// persists this checkpoint holds the same bytes by reference. Null on
  /// decoded and test-built checkpoints. Seal() drops it, so a copy whose
  /// fields are changed and re-sealed never carries stale bytes.
  std::shared_ptr<const Bytes> encoding;

  /// Canonical encoding (all fields, digest and signature included).
  void Encode(codec::Writer& w) const;
  static std::shared_ptr<Checkpoint> Decode(codec::Reader& r);
  /// Exact size of Encode()'s output, so an encode reserves once.
  std::size_t EncodedSize() const;

  /// Recomputes the digest from the current field values. Streams the
  /// signed fields through SHA-256; no encoding is materialized.
  crypto::Digest ComputeDigest() const;

  /// Stamps the digest and signs it. `key` must be the origin's.
  void Seal(const crypto::PrivateKey& key);

  /// Full verification: recomputed digest matches the stamped one, the
  /// origin is a known organization, and its signature checks out.
  bool Verify(const crypto::Pki& pki,
              const std::set<crypto::KeyId>& organization_keys) const;

  /// Simulated wire size (bytes) for the network cost model.
  std::size_t WireSizeBytes() const;
};

/// O(1)-expected lookup of an id in a covered list sorted by id. A radix
/// table maps the top bits of an id to the offset of the first entry whose
/// id starts with those bits, so a lookup scans one bucket of a few entries.
/// The table costs at most one byte per covered id (~4 per bucket on
/// average) and is rebuilt whenever the list is replaced. The list must
/// outlive the lookup and stay unchanged while it is in use.
class CoveredLookup {
 public:
  /// Indexes `covered` (null or empty = nothing covered).
  void Build(const std::vector<Checkpoint::CoveredTx>* covered);
  /// The covered entry with this id, or null.
  const Checkpoint::CoveredTx* Find(const crypto::Digest& id) const;
  std::size_t size() const { return covered_ ? covered_->size() : 0; }

 private:
  /// The top 64 bits of an id, big-endian: sorted ids have sorted keys.
  static std::uint64_t Key(const crypto::Digest& id);
  std::size_t Bucket(std::uint64_t key) const {
    return shift_ == 64 ? 0 : static_cast<std::size_t>(key >> shift_);
  }

  const std::vector<Checkpoint::CoveredTx>* covered_ = nullptr;
  unsigned shift_ = 64;
  // offsets_[b] .. offsets_[b + 1] is bucket b.
  std::vector<std::uint32_t> offsets_;
};

/// One organization's signature over a checkpoint digest under
/// kCheckpointAttestContext: "I reproduced this digest against my own
/// converged CRDT state".
struct CheckpointAttestation {
  crypto::KeyId attester = 0;
  crypto::Signature signature;

  void Encode(codec::Writer& w) const;
  static bool Decode(codec::Reader& r, CheckpointAttestation& out);
  bool Verify(const crypto::Pki& pki, const crypto::Digest& digest) const;

  bool operator==(const CheckpointAttestation&) const = default;
};

/// The q-of-n evidence that travels with a checkpoint in anti-entropy
/// replies. Install requires CountValid(...) >= policy.q; duplicate
/// attesters, keys outside the organization set and invalid signatures all
/// count zero, so f = n − q Byzantine organizations can never promote a
/// forged digest past an honest installer.
struct AttestationSet {
  /// The checkpoint digest every attestation signs.
  crypto::Digest ckpt_digest;
  std::vector<CheckpointAttestation> attestations;

  void Encode(codec::Writer& w) const;
  static bool Decode(codec::Reader& r, AttestationSet& out);

  /// Distinct organization keys in `organization_keys` whose attestation
  /// over `ckpt_digest` verifies.
  std::size_t CountValid(const crypto::Pki& pki,
                         const std::set<crypto::KeyId>& organization_keys) const;
  bool HasQuorum(const crypto::Pki& pki,
                 const std::set<crypto::KeyId>& organization_keys,
                 std::uint32_t q) const {
    return CountValid(pki, organization_keys) >= q;
  }

  /// Simulated wire size (bytes) for the network cost model.
  std::size_t WireSizeBytes() const { return 36 + attestations.size() * 40; }

  bool operator==(const AttestationSet&) const = default;
};

}  // namespace orderless::core
