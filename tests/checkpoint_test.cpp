// Signed CRDT checkpoints + O(delta) catch-up (ROADMAP item 3).
//
// Three layers of proof:
//  1. Checkpoint codec/crypto: canonical encode/decode roundtrip, digest
//     stability, and rejection of every tampered field before any state
//     would be merged.
//  2. The semilattice property the whole subsystem rests on: installing a
//     snapshot at a frontier and replaying only the delta yields byte-
//     identical object state to replaying the full history.
//  3. End-to-end O(delta) catch-up: the chaos presets (long partition,
//     crash + restart under load) heal with bounded sync traffic and
//     bounded recovery replay, asserted against checkpoint-free runs of
//     the same scenarios.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "common/rng.h"
#include "contracts/auction.h"
#include "contracts/synthetic.h"
#include "contracts/voting.h"
#include "core/checkpoint.h"
#include "harness/experiment.h"
#include "harness/orderless_net.h"
#include "ledger/ledger.h"

namespace orderless {
namespace core {

/// Reaches an organization's private checkpoint steps and commit index, so
/// the equivalence test below can seal and install at instants it chooses
/// and compare each outcome with a reference recomputed over the whole history.
class OrganizationTestPeer {
 public:
  static void Seal(Organization& org) { org.SealCheckpoint(); }
  static void Install(Organization& org,
                      std::shared_ptr<const Checkpoint> ckpt) {
    org.InstallCheckpoint(std::move(ckpt), AttestationSet{});
  }
  /// The commit index, in no particular order: the window above the own
  /// last seal followed by that seal's coverage.
  static std::vector<Checkpoint::CoveredTx> Index(const Organization& org) {
    std::vector<Checkpoint::CoveredTx> index;
    for (const auto& [id, record] : org.commit_index_) {
      index.push_back(Checkpoint::CoveredTx{id, record.valid});
    }
    if (org.sealed_ckpt_ != nullptr) {
      index.insert(index.end(), org.sealed_ckpt_->covered.begin(),
                   org.sealed_ckpt_->covered.end());
    }
    return index;
  }
  /// Entries in the id map (the window above the own last seal).
  static std::size_t WindowSize(const Organization& org) {
    return org.commit_index_.size();
  }
  /// The verdict and block hash the org answers a dedup or receipt with.
  static std::optional<std::pair<bool, crypto::Digest>> Lookup(
      const Organization& org, const crypto::Digest& id) {
    const auto record = org.FindCommit(id);
    if (!record) return std::nullopt;
    return std::pair{record->valid, record->block_hash};
  }
  /// (valid count, valid xor) accumulators the summaries advertise.
  static std::pair<std::uint64_t, std::uint64_t> Accumulators(
      const Organization& org) {
    return {org.committed_count_, org.committed_xor_};
  }
};

}  // namespace core

namespace {

using core::Checkpoint;

crypto::Digest D(const std::string& s) { return crypto::Sha256::Hash(s); }

bool ById(const Checkpoint::CoveredTx& a, const Checkpoint::CoveredTx& b) {
  return a.id.bytes < b.id.bytes;
}

crdt::Operation VoteOp(const std::string& object, const std::string& voter,
                       bool value, std::uint64_t client,
                       std::uint64_t counter) {
  crdt::Operation op;
  op.object_id = object;
  op.object_type = crdt::CrdtType::kMap;
  op.path = {voter};
  op.kind = crdt::OpKind::kAssignValue;
  op.value_type = crdt::CrdtType::kMVRegister;
  op.value = crdt::Value(value);
  op.clock = clk::OpClock{client, counter};
  return op;
}

/// A sealed checkpoint over a couple of objects and covered transactions.
Checkpoint MakeSealed(const crypto::PrivateKey& key) {
  ledger::Ledger source(std::make_shared<ledger::MemKvStore>());
  source.Commit(D("a"), true, {VoteOp("obj1", "v1", true, 1, 1)});
  source.Commit(D("b"), true, {VoteOp("obj2", "v2", false, 2, 1)});
  source.Commit(D("c"), false, {});

  Checkpoint ckpt;
  ckpt.seq = 3;
  ckpt.origin = key.id();
  ckpt.chain_height = source.log().total_appended();
  ckpt.chain_head = source.log().LastHash();
  ckpt.valid_count = 2;
  ckpt.valid_xor = D("a").Prefix64() ^ D("b").Prefix64();
  ckpt.covered = {{D("a"), true}, {D("b"), true}, {D("c"), false}};
  std::sort(ckpt.covered.begin(), ckpt.covered.end(),
            [](const Checkpoint::CoveredTx& x, const Checkpoint::CoveredTx& y) {
              return x.id.bytes < y.id.bytes;
            });
  ckpt.objects = source.cache().SnapshotStates();
  ckpt.Seal(key);
  return ckpt;
}

TEST(CheckpointCodec, EncodeDecodeRoundtrip) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const Checkpoint ckpt = MakeSealed(key);

  codec::Writer w;
  ckpt.Encode(w);
  codec::Reader r{BytesView(w.data())};
  const auto decoded = Checkpoint::Decode(r);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->seq, ckpt.seq);
  EXPECT_EQ(decoded->origin, ckpt.origin);
  EXPECT_EQ(decoded->chain_height, ckpt.chain_height);
  EXPECT_EQ(decoded->chain_head, ckpt.chain_head);
  EXPECT_EQ(decoded->valid_count, ckpt.valid_count);
  EXPECT_EQ(decoded->valid_xor, ckpt.valid_xor);
  ASSERT_EQ(decoded->covered.size(), ckpt.covered.size());
  for (std::size_t i = 0; i < ckpt.covered.size(); ++i) {
    EXPECT_EQ(decoded->covered[i].id, ckpt.covered[i].id);
    EXPECT_EQ(decoded->covered[i].valid, ckpt.covered[i].valid);
  }
  EXPECT_EQ(decoded->objects, ckpt.objects);
  EXPECT_EQ(decoded->digest, ckpt.digest);
  EXPECT_EQ(decoded->signature, ckpt.signature);
  EXPECT_TRUE(decoded->Verify(pki, {key.id()}));
}

TEST(CheckpointCodec, StreamedDigestAndExactSizeMatchTheEncoding) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  Checkpoint small = MakeSealed(key);
  // Large enough that the digest stream spills its staging buffer many
  // times and hands object states of several KB straight to SHA-256.
  Checkpoint large = small;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    large.covered.push_back({D("cov-" + std::to_string(i)), i % 3 != 0});
  }
  std::sort(large.covered.begin(), large.covered.end(), ById);
  large.objects.emplace_back("big", Bytes(9000, 0x5c));
  large.objects.emplace_back(std::string(200, 'k'), Bytes(130, 0x01));
  large.Seal(key);
  for (const Checkpoint* ckpt : {&small, &large}) {
    codec::Writer w;
    ckpt->Encode(w);
    EXPECT_EQ(ckpt->EncodedSize(), w.size());
    // The digest covers exactly the bytes before the digest and signature.
    const BytesView signed_fields(w.data().data(), w.size() - 64);
    EXPECT_EQ(ckpt->ComputeDigest(), crypto::Sha256::Hash(signed_fields));
    EXPECT_TRUE(ckpt->Verify(pki, {key.id()}));
  }
}

TEST(CheckpointCodec, ResealDropsTheAttachedEncoding) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  Checkpoint ckpt = MakeSealed(key);
  EXPECT_EQ(ckpt.encoding, nullptr);
  codec::Writer w;
  ckpt.Encode(w);
  ckpt.encoding = std::make_shared<const Bytes>(w.data());
  // Changed fields must be re-sealed, and the old bytes go with the seal.
  ckpt.valid_count += 1;
  ckpt.Seal(key);
  EXPECT_EQ(ckpt.encoding, nullptr);
}

TEST(CheckpointCodec, TruncatedBytesDecodeToNull) {
  crypto::Pki pki;
  const Checkpoint ckpt = MakeSealed(pki.Generate("org-0"));
  codec::Writer w;
  ckpt.Encode(w);
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, w.size() / 2,
                          w.size() - 1}) {
    codec::Reader r{BytesView(w.data().data(), cut)};
    EXPECT_EQ(Checkpoint::Decode(r), nullptr) << "cut at " << cut;
  }
}

TEST(CheckpointCodec, VerifyRejectsEveryTamperedField) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const crypto::PrivateKey other = pki.Generate("org-1");
  const std::set<crypto::KeyId> orgs = {key.id(), other.id()};

  const Checkpoint sealed = MakeSealed(key);
  ASSERT_TRUE(sealed.Verify(pki, orgs));

  {
    Checkpoint t = sealed;  // snapshot state flipped
    ASSERT_FALSE(t.objects.empty());
    t.objects[0].second[0] ^= 0x01;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // covered verdict flipped
    t.covered[0].valid = !t.covered[0].valid;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // covered id substituted
    t.covered[0].id = D("smuggled");
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // inflated valid count
    ++t.valid_count;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // rewritten chain frontier
    t.chain_head = D("forged-head");
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // digest itself tampered
    t.digest.bytes[0] ^= 0x01;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // signature tampered
    t.signature.bytes[0] ^= 0x01;
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // origin claims another org without its key
    t.origin = other.id();
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
  {
    Checkpoint t = sealed;  // origin outside the organization set
    EXPECT_FALSE(t.Verify(pki, {other.id()}));
  }
  {
    // Re-sealed under a non-origin key: digest matches but the signature
    // binds to the wrong identity.
    Checkpoint t = sealed;
    t.Seal(other);
    t.origin = key.id();
    EXPECT_FALSE(t.Verify(pki, orgs));
  }
}

// The semilattice property behind snapshot transfer: merge(snapshot at
// frontier K, replay of ops K..N) must equal replay of ops 0..N byte for
// byte, for random op histories and random frontiers.
TEST(CheckpointProperty, SnapshotPlusDeltaMatchesFullReplayByteForByte) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    const int total = 40 + static_cast<int>(rng.NextBelow(40));
    const int frontier = 1 + static_cast<int>(rng.NextBelow(
                                 static_cast<std::uint64_t>(total - 1)));

    std::vector<std::pair<crypto::Digest, crdt::Operation>> history;
    for (int i = 0; i < total; ++i) {
      const std::string object = "o" + std::to_string(rng.NextBelow(4));
      history.emplace_back(
          D("tx" + std::to_string(seed) + "-" + std::to_string(i)),
          VoteOp(object, "v" + std::to_string(rng.NextBelow(9)),
                 rng.NextBool(0.5), 1 + rng.NextBelow(5),
                 static_cast<std::uint64_t>(i + 1)));
    }

    // Full-history replay.
    ledger::Ledger full(std::make_shared<ledger::MemKvStore>());
    for (const auto& [id, op] : history) full.Commit(id, true, {op});

    // Prefix ledger up to the frontier; its cache snapshot is the
    // checkpoint payload.
    ledger::Ledger prefix(std::make_shared<ledger::MemKvStore>());
    for (int i = 0; i < frontier; ++i) {
      prefix.Commit(history[i].first, true, {history[i].second});
    }
    const auto snapshot = prefix.cache().SnapshotStates();

    // Install the snapshot into a fresh ledger, then replay only the delta.
    ledger::Ledger delta(std::make_shared<ledger::MemKvStore>());
    for (const auto& [object_id, state] : snapshot) {
      ASSERT_TRUE(delta.MergeObjectState(object_id, BytesView(state)));
    }
    for (int i = frontier; i < total; ++i) {
      delta.Commit(history[i].first, true, {history[i].second});
    }

    for (int o = 0; o < 4; ++o) {
      const std::string object = "o" + std::to_string(o);
      EXPECT_EQ(delta.cache().EncodeObjectState(object),
                full.cache().EncodeObjectState(object))
          << "seed " << seed << " frontier " << frontier << " object "
          << object;
    }
  }
}

// Installing the same snapshot twice — or installing it over a ledger that
// already replayed part of the covered history — must be idempotent (CRDT
// merge semantics).
TEST(CheckpointProperty, SnapshotInstallIsIdempotentAndMonotone) {
  ledger::Ledger source(std::make_shared<ledger::MemKvStore>());
  for (int i = 0; i < 20; ++i) {
    source.Commit(D("t" + std::to_string(i)), true,
                  {VoteOp("m", "k" + std::to_string(i % 5), i % 2 == 0,
                          1 + i % 3, static_cast<std::uint64_t>(1 + i))});
  }
  const auto snapshot = source.cache().SnapshotStates();

  ledger::Ledger target(std::make_shared<ledger::MemKvStore>());
  // Target already has a prefix of the covered history.
  for (int i = 0; i < 10; ++i) {
    target.Commit(D("t" + std::to_string(i)), true,
                  {VoteOp("m", "k" + std::to_string(i % 5), i % 2 == 0,
                          1 + i % 3, static_cast<std::uint64_t>(1 + i))});
  }
  for (const auto& [object_id, state] : snapshot) {
    ASSERT_TRUE(target.MergeObjectState(object_id, BytesView(state)));
  }
  const Bytes once = target.cache().EncodeObjectState("m");
  EXPECT_EQ(once, source.cache().EncodeObjectState("m"));
  for (const auto& [object_id, state] : snapshot) {
    ASSERT_TRUE(target.MergeObjectState(object_id, BytesView(state)));
  }
  EXPECT_EQ(target.cache().EncodeObjectState("m"), once);
}

// ---------------------------------------------------------------------------
// Quorum attestation: codec, counting rules, and decode robustness.

using core::AttestationSet;
using core::CheckpointAttestation;

AttestationSet MakeAttested(const crypto::Digest& digest,
                            const std::vector<crypto::PrivateKey>& keys) {
  AttestationSet set;
  set.ckpt_digest = digest;
  for (const crypto::PrivateKey& key : keys) {
    set.attestations.push_back(CheckpointAttestation{
        key.id(), key.Sign(core::kCheckpointAttestContext, digest)});
  }
  return set;
}

TEST(CheckpointAttest, SetRoundtripAndQuorumCounting) {
  crypto::Pki pki;
  std::vector<crypto::PrivateKey> keys;
  std::set<crypto::KeyId> orgs;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(pki.Generate("org-" + std::to_string(i)));
    orgs.insert(keys.back().id());
  }
  const crypto::Digest digest = D("ckpt");
  const AttestationSet set = MakeAttested(digest, keys);

  codec::Writer w;
  set.Encode(w);
  codec::Reader r{BytesView(w.data())};
  AttestationSet decoded;
  ASSERT_TRUE(AttestationSet::Decode(r, decoded));
  EXPECT_EQ(decoded, set);
  EXPECT_EQ(decoded.CountValid(pki, orgs), 4u);
  EXPECT_TRUE(decoded.HasQuorum(pki, orgs, 4));
  EXPECT_FALSE(decoded.HasQuorum(pki, orgs, 5));
}

TEST(CheckpointAttest, QuorumCountsDistinctValidOrgKeysOnly) {
  crypto::Pki pki;
  std::vector<crypto::PrivateKey> keys;
  std::set<crypto::KeyId> orgs;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(pki.Generate("org-" + std::to_string(i)));
    orgs.insert(keys.back().id());
  }
  const crypto::PrivateKey outsider = pki.Generate("outsider");
  const crypto::Digest digest = D("ckpt");

  {
    // A duplicated attester counts once — one Byzantine org cannot vote
    // itself into a quorum by repeating its own signature.
    AttestationSet set = MakeAttested(digest, {keys[0], keys[0], keys[0]});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
    EXPECT_FALSE(set.HasQuorum(pki, orgs, 2));
  }
  {
    // A key outside the organization set counts zero even with a valid
    // signature (a Sybil identity the PKI knows but the channel does not).
    AttestationSet set = MakeAttested(digest, {keys[0], outsider});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  {
    // A seal-context signature cannot be replayed as an attestation.
    AttestationSet set = MakeAttested(digest, {keys[0]});
    set.attestations.push_back(CheckpointAttestation{
        keys[1].id(), keys[1].Sign(core::kCheckpointContext, digest)});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  {
    // A signature over a different digest counts zero.
    AttestationSet set = MakeAttested(digest, {keys[0]});
    set.attestations.push_back(CheckpointAttestation{
        keys[1].id(),
        keys[1].Sign(core::kCheckpointAttestContext, D("other"))});
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  {
    // A tampered signature byte counts zero.
    AttestationSet set = MakeAttested(digest, {keys[0], keys[1]});
    set.attestations[1].signature.bytes[0] ^= 0x01;
    EXPECT_EQ(set.CountValid(pki, orgs), 1u);
  }
  EXPECT_EQ(AttestationSet{}.CountValid(pki, orgs), 0u);
}

// Satellite battery: every checkpoint-layer wire message must cleanly
// reject *all* byte-prefixes and survive *all* single-byte flips — a flip
// either fails to decode, fails verification, or is semantically inert
// (e.g. a nonzero bool byte); it must never yield an accepted forgery.
TEST(CheckpointAttest, CheckpointRejectsEveryPrefixAndByteFlip) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const std::set<crypto::KeyId> orgs = {key.id()};
  const Checkpoint ckpt = MakeSealed(key);
  codec::Writer w;
  ckpt.Encode(w);
  const Bytes& encoded = w.data();

  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    EXPECT_EQ(Checkpoint::Decode(r), nullptr) << "prefix of " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    codec::Reader r{BytesView(flipped)};
    const auto decoded = Checkpoint::Decode(r);
    if (decoded == nullptr) continue;
    if (!decoded->Verify(pki, orgs)) continue;
    // Decoded *and* verified: the flip must have been semantically inert —
    // the content still hashes to the original sealed digest.
    EXPECT_EQ(decoded->ComputeDigest(), ckpt.digest) << "flip at " << i;
  }
}

TEST(CheckpointAttest, AttestationSetRejectsEveryPrefixAndByteFlip) {
  crypto::Pki pki;
  std::vector<crypto::PrivateKey> keys;
  std::set<crypto::KeyId> orgs;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(pki.Generate("org-" + std::to_string(i)));
    orgs.insert(keys.back().id());
  }
  const AttestationSet set = MakeAttested(D("ckpt"), keys);
  codec::Writer w;
  set.Encode(w);
  const Bytes& encoded = w.data();

  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    AttestationSet out;
    EXPECT_FALSE(AttestationSet::Decode(r, out)) << "prefix of " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    codec::Reader r{BytesView(flipped)};
    AttestationSet out;
    if (!AttestationSet::Decode(r, out)) continue;
    // Any decodable flip must cost quorum weight, never add it.
    EXPECT_LT(out.CountValid(pki, orgs), 3u) << "flip at " << i;
  }
}

TEST(CheckpointAttest, AttestationRejectsEveryPrefixAndByteFlip) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org-0");
  const crypto::Digest digest = D("ckpt");
  const CheckpointAttestation attestation{
      key.id(), key.Sign(core::kCheckpointAttestContext, digest)};
  ASSERT_TRUE(attestation.Verify(pki, digest));
  codec::Writer w;
  attestation.Encode(w);
  const Bytes& encoded = w.data();

  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    CheckpointAttestation out;
    EXPECT_FALSE(CheckpointAttestation::Decode(r, out)) << "prefix of " << cut;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    codec::Reader r{BytesView(flipped)};
    CheckpointAttestation out;
    ASSERT_TRUE(CheckpointAttestation::Decode(r, out)) << "flip at " << i;
    EXPECT_FALSE(out.Verify(pki, digest)) << "flip at " << i;
  }
}

// ---------------------------------------------------------------------------
// End-to-end O(delta) catch-up through the chaos presets.

TEST(CheckpointCatchup, LongPartitionHealsInODelta) {
  const chaos::Scenario with = chaos::MakeLongPartitionScenario(1);
  chaos::Scenario without = with;
  without.checkpoints = false;

  const chaos::ChaosRunResult on = chaos::RunScenario(with);
  const chaos::ChaosRunResult off = chaos::RunScenario(without);
  ASSERT_TRUE(on.ok()) << on.Summary();
  ASSERT_TRUE(off.ok()) << off.Summary();
  EXPECT_GT(on.committed, 60u) << "workload mostly committed";

  // The org that spent the run partitioned away (index 4 by construction)
  // must have caught up via snapshot transfer, not by re-pulling history.
  const core::CatchupStats& healed = on.org_catchup[4];
  EXPECT_GE(healed.ckpt_installed, 1u);
  EXPECT_GE(healed.ckpt_txs_covered, on.committed / 2)
      << "the bulk of the missed history arrived as checkpoint coverage";
  EXPECT_EQ(healed.ckpt_rejected, 0u);

  // O(delta): with checkpoints the healed org receives strictly fewer
  // transaction bodies over gossip/sync than the checkpoint-free run, where
  // anti-entropy must ship the full missed history.
  const core::CatchupStats& healed_off = off.org_catchup[4];
  EXPECT_LT(healed.sync_txs_received, healed_off.sync_txs_received)
      << "checkpoints on: " << healed.sync_txs_received
      << " bodies, off: " << healed_off.sync_txs_received;
  EXPECT_LT(healed.sync_txs_received + healed.ckpt_txs_covered,
            healed_off.sync_txs_received + on.committed)
      << "coverage adoption replaces body transfer instead of adding to it";

  // Storage was actually reclaimed behind the sealed frontiers.
  EXPECT_GT(on.pruned_records_total, 0u);
  EXPECT_EQ(off.pruned_records_total, 0u);
}

TEST(CheckpointCatchup, CrashRestartUnderLoadRecoversInODelta) {
  const chaos::Scenario scenario = chaos::MakeCrashRestartScenario(1);
  const chaos::ChaosRunResult result = chaos::RunScenario(scenario);
  ASSERT_TRUE(result.ok()) << result.Summary();
  EXPECT_GT(result.committed, 60u);

  // Org 3 crashed at 1.2s and restarted at 9s under load. Its recovery must
  // have been checkpoint-seeded: only the post-frontier records were
  // replayed from its store, the rest arrived as checkpoint coverage.
  const core::CatchupStats& restarted = result.org_catchup[3];
  EXPECT_LT(restarted.recovered_records, result.committed / 2)
      << "recovery replayed O(delta) records, not the full history";
  EXPECT_GE(restarted.ckpt_installed, 1u);
  EXPECT_GE(restarted.ckpt_txs_covered, result.committed / 2);
  EXPECT_EQ(restarted.ckpt_rejected, 0u);
}

TEST(CheckpointCatchup, PresetsReplayBitIdentically) {
  for (const chaos::Scenario& scenario :
       {chaos::MakeLongPartitionScenario(2),
        chaos::MakeCrashRestartScenario(2)}) {
    const chaos::ChaosRunResult a = chaos::RunScenario(scenario);
    const chaos::ChaosRunResult b = chaos::RunScenario(scenario);
    ASSERT_TRUE(a.ok()) << a.Summary();
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.org_chain_heads, b.org_chain_heads);
    EXPECT_EQ(a.events_processed, b.events_processed);
  }
}

// ---------------------------------------------------------------------------
// Quorum-attested catch-up under active checkpoint-layer adversaries: the
// byzantine-catchup preset runs f = n − q organizations forging,
// equivocating, dishonestly attesting, withholding, replaying stale
// snapshots and corrupting deltas — and the lagging honest org must still
// heal in O(delta) through a q-of-n attested install.

TEST(CheckpointCatchup, ByzantineCatchupHealsInODeltaUnderAttack) {
  const chaos::Scenario with = chaos::MakeByzantineCatchupScenario(1);
  chaos::Scenario without = with;
  without.checkpoints = false;

  const chaos::ChaosRunResult on = chaos::RunScenario(with);
  const chaos::ChaosRunResult off = chaos::RunScenario(without);
  // ok() covers convergence, safety, and the checkpoint-attestation
  // invariant: every installed checkpoint at an honest org carries a valid
  // q-of-n attestation set and its state is dominated by local state.
  ASSERT_TRUE(on.ok()) << on.Summary();
  ASSERT_TRUE(off.ok()) << off.Summary();
  EXPECT_EQ(on.committed, with.tx_count);

  // The partitioned honest org (index 5 by construction) healed through an
  // attested snapshot, not by re-pulling history.
  const core::CatchupStats& healed = on.org_catchup[5];
  EXPECT_GE(healed.ckpt_installed, 1u);
  EXPECT_GT(healed.ckpt_txs_covered, 0u);
  EXPECT_LT(healed.sync_txs_received, off.org_catchup[5].sync_txs_received)
      << "attested on: " << healed.sync_txs_received
      << " bodies, baseline: " << off.org_catchup[5].sync_txs_received;

  // The adversaries engaged and were contained: honest orgs refused
  // unreproducible announcements and rejected unattested/forged snapshots,
  // and the network still promoted honest checkpoints to quorum.
  std::uint64_t honest_pushback = 0;
  for (const std::size_t org : {0uz, 1uz, 4uz, 5uz}) {
    honest_pushback += on.org_catchup[org].ckpt_refused +
                       on.org_catchup[org].ckpt_rejected;
  }
  EXPECT_GT(honest_pushback, 0u);
  EXPECT_GT(on.ckpt_attested_total, 0u);
  // The dishonest attester (org 2) never got its forged seals promoted.
  EXPECT_EQ(on.org_catchup[2].ckpt_attested, 0u);
}

TEST(CheckpointCatchup, ByzantineCatchupReplaysBitIdentically) {
  const chaos::Scenario scenario = chaos::MakeByzantineCatchupScenario(1);
  const chaos::ChaosRunResult a = chaos::RunScenario(scenario);
  const chaos::ChaosRunResult b = chaos::RunScenario(scenario);
  ASSERT_TRUE(a.ok()) << a.Summary();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.org_chain_heads, b.org_chain_heads);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

// ---------------------------------------------------------------------------
// Direct harness test: seal → prune → crash → checkpoint-seeded restart.

harness::OrderlessNetConfig CheckpointNetConfig() {
  harness::OrderlessNetConfig config;
  config.num_orgs = 4;
  config.num_clients = 3;
  config.policy = core::EndorsementPolicy{2, 4};
  config.net.one_way_latency = sim::Ms(5);
  config.net.jitter_stddev_ms = 0.2;
  config.org_timing.gossip_interval = sim::Ms(200);
  config.org_timing.gossip_fanout = 3;
  config.org_timing.gossip_rounds = 4;
  config.org_timing.antientropy_interval = sim::Ms(500);
  config.org_timing.checkpoint.enabled = true;
  config.org_timing.checkpoint.interval = sim::Ms(800);
  config.client_timing.max_attempts = 4;
  config.client_timing.endorse_timeout = sim::Ms(700);
  config.client_timing.commit_timeout = sim::Ms(700);
  config.seed = 211;
  return config;
}

void SubmitVotes(harness::OrderlessNet& net, int txs, int offset,
                 int& committed) {
  for (int i = 0; i < txs; ++i) {
    const int v = offset + i;
    net.client(v % net.client_count())
        .SubmitModify("voting", "Vote",
                      {crdt::Value("e"),
                       crdt::Value(static_cast<std::int64_t>(v % 4)),
                       crdt::Value(std::int64_t{4})},
                      [&committed](const core::TxOutcome& o) {
                        if (o.committed) ++committed;
                      });
    net.simulation().RunUntil(net.simulation().now() + sim::Ms(150));
  }
}

TEST(CheckpointCatchup, PrunedLedgerRestartIsCheckpointSeeded) {
  harness::OrderlessNet net(CheckpointNetConfig());
  net.RegisterContract(std::make_shared<contracts::VotingContract>());
  net.Start();

  int committed = 0;
  SubmitVotes(net, 16, 0, committed);
  net.simulation().RunUntil(net.simulation().now() + sim::Sec(10));
  ASSERT_EQ(committed, 16);

  // Every org sealed at least once and reclaimed storage behind the
  // frontier; the sealed checkpoint verifies against the network's PKI.
  std::set<crypto::KeyId> org_keys;
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    org_keys.insert(net.org(i).key());
  }
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    const auto& sealed = net.org(i).sealed_checkpoint();
    ASSERT_NE(sealed, nullptr) << "org " << i;
    EXPECT_TRUE(sealed->Verify(net.pki(), org_keys)) << "org " << i;
    EXPECT_GT(net.org(i).catchup_stats().pruned_records, 0u) << "org " << i;
  }

  const std::string object = contracts::VotingContract::PartyObject("e", 1);
  const Bytes state_before =
      net.org(2).ledger().cache().EncodeObjectState(object);
  const std::uint64_t effective_before =
      net.org(2).effective_committed_valid();
  const std::uint64_t sealed_seq_before = net.org(2).sealed_checkpoint()->seq;

  net.CrashOrg(2);
  ASSERT_TRUE(net.RestartOrg(2));

  // Checkpoint-seeded recovery: the pruned prefix was never replayed — only
  // the records committed after the last seal.
  const core::CatchupStats& stats = net.org(2).catchup_stats();
  EXPECT_LT(stats.recovered_records, 16u)
      << "full-history replay would have touched all records";
  EXPECT_GE(stats.ckpt_txs_covered,
            16u - stats.recovered_records)
      << "everything not replayed came back as checkpoint coverage";
  ASSERT_NE(net.org(2).sealed_checkpoint(), nullptr);
  EXPECT_EQ(net.org(2).sealed_checkpoint()->seq, sealed_seq_before);

  // State and effective commit counters survive byte for byte, and the
  // base-seeded chain still verifies.
  EXPECT_EQ(net.org(2).ledger().cache().EncodeObjectState(object),
            state_before);
  EXPECT_EQ(net.org(2).effective_committed_valid(), effective_before);
  EXPECT_TRUE(net.org(2).ledger().log().Verify());

  // The restarted org keeps participating: more commits, still converged.
  SubmitVotes(net, 6, 16, committed);
  net.simulation().RunUntil(net.simulation().now() + sim::Sec(12));
  EXPECT_EQ(committed, 22);
  const std::uint64_t reference = net.org(0).effective_committed_valid();
  for (std::size_t i = 0; i < net.org_count(); ++i) {
    EXPECT_EQ(net.org(i).effective_committed_valid(), reference)
        << "org " << i;
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(net.StateConverged(
        contracts::VotingContract::PartyObject("e", p)))
        << "party " << p;
  }
}

// ---------------------------------------------------------------------------
// Incremental seal / install / prune against whole-history references. Seals
// merge a delta into the previous covered list, installs skip what the own
// seal already holds and merge counter runs side by side, and prunes touch
// only the newly covered bodies. Each shortcut must be invisible: after any
// interleaving of commits, partitions, seals, installs from several origins,
// a crash/restart and a forged install, every outcome equals what the
// whole-history computation below produces.

using core::OrganizationTestPeer;
using CounterEntry =
    std::tuple<std::uint64_t, std::uint64_t, std::uint32_t, std::int64_t>;

struct CounterState {
  crdt::CrdtType type = crdt::CrdtType::kNone;
  std::set<CounterEntry> entries;
};

/// Reference counter decoder: canonical states only (entries strictly
/// increasing, G-Counter amounts positive), anything else is rejected.
std::optional<CounterState> ParseCounter(const Bytes& state) {
  codec::Reader r{BytesView(state)};
  const auto tag = r.GetU8();
  if (!tag || (*tag != static_cast<std::uint8_t>(crdt::CrdtType::kGCounter) &&
               *tag != static_cast<std::uint8_t>(crdt::CrdtType::kPNCounter))) {
    return std::nullopt;
  }
  CounterState out;
  out.type = static_cast<crdt::CrdtType>(*tag);
  const auto n = r.GetVarint();
  if (!n) return std::nullopt;
  std::optional<CounterEntry> last;
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto client = r.GetVarint();
    const auto counter = r.GetVarint();
    const auto seq = r.GetU32();
    const auto amount = r.GetI64();
    if (!client || !counter || !seq || !amount) return std::nullopt;
    if (out.type == crdt::CrdtType::kGCounter && *amount <= 0) {
      return std::nullopt;
    }
    const CounterEntry e{*client, *counter, *seq, *amount};
    if (last && !(*last < e)) return std::nullopt;
    last = e;
    out.entries.insert(e);
  }
  return out;
}

Bytes EncodeCounter(const CounterState& c) {
  codec::Writer w;
  w.PutU8(static_cast<std::uint8_t>(c.type));
  w.PutVarint(c.entries.size());
  for (const auto& [client, counter, seq, amount] : c.entries) {
    w.PutVarint(client);
    w.PutVarint(counter);
    w.PutU32(seq);
    w.PutI64(amount);
  }
  return w.Take();
}

std::int64_t CounterSum(const CounterState& c) {
  std::int64_t sum = 0;
  for (const CounterEntry& e : c.entries) sum += std::get<3>(e);
  return sum;
}

/// Body rows still stored for ids in `covered`.
std::size_t CoveredBodyRows(ledger::KvStore& store,
                            const std::vector<Checkpoint::CoveredTx>& covered) {
  std::set<std::array<std::uint8_t, 32>> ids;
  for (const auto& tx : covered) ids.insert(tx.id.bytes);
  std::size_t rows = 0;
  store.ScanPrefix("body/", [&](std::string_view key, BytesView) {
    if (ids.contains(crypto::Digest::FromHexOrZero(key.substr(5)).bytes)) {
      ++rows;
    }
    return true;
  });
  return rows;
}

/// Rows a whole-history prune behind a frontier at `chain_height` covering
/// `covered` deletes: commit records below it, every op row, and the body
/// of every covered id that still has one.
std::size_t ReferencePruneCount(ledger::KvStore& store,
                                std::uint64_t chain_height,
                                const std::vector<Checkpoint::CoveredTx>& covered) {
  std::size_t rows = 0;
  store.ScanPrefix("tx/", [&](std::string_view, BytesView value) {
    codec::Reader r(value);
    const auto height = r.GetU64();
    if (height && *height < chain_height) ++rows;
    return true;
  });
  store.ScanPrefix("op/", [&](std::string_view, BytesView) {
    ++rows;
    return true;
  });
  return rows + CoveredBodyRows(store, covered);
}

/// Seals `org` now and checks the seal against the sorted commit index, and
/// (without attestation, where the prune runs inside the seal) the pruned
/// row count against ReferencePruneCount.
void CheckSeal(core::Organization& org, bool attest) {
  auto reference = OrganizationTestPeer::Index(org);
  std::sort(reference.begin(), reference.end(), ById);
  const std::uint64_t chain_height = org.ledger().log().total_appended();
  const std::size_t expected_pruned = ReferencePruneCount(
      org.mutable_ledger().store(), chain_height, reference);
  const std::uint64_t pruned_before = org.catchup_stats().pruned_records;

  OrganizationTestPeer::Seal(org);
  const auto& sealed = org.sealed_checkpoint();
  ASSERT_NE(sealed, nullptr);

  ASSERT_EQ(sealed->covered.size(), reference.size());
  for (std::size_t k = 0; k < reference.size(); ++k) {
    ASSERT_EQ(sealed->covered[k].id, reference[k].id) << k;
    ASSERT_EQ(sealed->covered[k].valid, reference[k].valid) << k;
  }
  std::uint64_t count = 0;
  std::uint64_t xr = 0;
  for (const auto& tx : reference) {
    if (tx.valid) {
      ++count;
      xr ^= tx.id.Prefix64();
    }
  }
  EXPECT_EQ(sealed->valid_count, count);
  EXPECT_EQ(sealed->valid_xor, xr);
  Checkpoint rebuilt = *sealed;
  rebuilt.covered = reference;
  rebuilt.objects = org.ledger().cache().SnapshotStates();
  rebuilt.valid_count = count;
  rebuilt.valid_xor = xr;
  EXPECT_EQ(rebuilt.ComputeDigest(), sealed->digest);
  // The bytes the seal attached (and persisted) are the canonical encoding.
  ASSERT_NE(sealed->encoding, nullptr);
  codec::Writer fresh;
  sealed->Encode(fresh);
  EXPECT_EQ(*sealed->encoding, fresh.data());
  if (!attest) {
    EXPECT_EQ(org.catchup_stats().pruned_records - pruned_before,
              expected_pruned);
  }
}

/// Installs `ckpt` into `org` and checks coverage adoption, accumulators and
/// every merged object state against a join recomputed in full.
void CheckInstall(core::Organization& org,
                  const std::shared_ptr<const Checkpoint>& ckpt,
                  std::uint64_t& adopted_total) {
  std::map<std::array<std::uint8_t, 32>, bool> index;
  for (const auto& tx : OrganizationTestPeer::Index(org)) {
    index.emplace(tx.id.bytes, tx.valid);
  }
  // Adoption: the first occurrence of every id the index lacks.
  std::uint64_t adopted = 0;
  std::uint64_t adopted_valid = 0;
  std::uint64_t adopted_xor = 0;
  for (const auto& tx : ckpt->covered) {
    if (!index.emplace(tx.id.bytes, tx.valid).second) continue;
    ++adopted;
    if (tx.valid) {
      ++adopted_valid;
      adopted_xor ^= tx.id.Prefix64();
    }
  }
  // State: join each canonical snapshot into the current state, in order.
  std::map<std::string, Bytes> expected;
  for (const auto& [object_id, state] : ckpt->objects) {
    if (!expected.contains(object_id)) {
      expected[object_id] = org.ledger().cache().EncodeObjectState(object_id);
    }
    const auto theirs = ParseCounter(state);
    if (!theirs) continue;  // non-canonical: rejected, nothing changes
    Bytes& current = expected[object_id];
    if (current.empty()) {
      current = EncodeCounter(*theirs);
      continue;
    }
    auto mine = ParseCounter(current);
    ASSERT_TRUE(mine.has_value()) << object_id;
    if (mine->type != theirs->type) continue;
    mine->entries.insert(theirs->entries.begin(), theirs->entries.end());
    current = EncodeCounter(*mine);
  }
  const std::uint64_t covered_before = org.catchup_stats().ckpt_txs_covered;
  const std::uint64_t effective_before = org.effective_committed_valid();
  const auto [count_before, xor_before] =
      OrganizationTestPeer::Accumulators(org);

  OrganizationTestPeer::Install(org, ckpt);

  EXPECT_EQ(org.catchup_stats().ckpt_txs_covered - covered_before, adopted);
  EXPECT_EQ(org.effective_committed_valid() - effective_before,
            adopted_valid);
  const auto [count_after, xor_after] = OrganizationTestPeer::Accumulators(org);
  EXPECT_EQ(count_after, count_before + adopted_valid);
  EXPECT_EQ(xor_after, xor_before ^ adopted_xor);
  const auto index_after = OrganizationTestPeer::Index(org);
  EXPECT_EQ(index_after.size(), index.size());
  for (const auto& tx : index_after) {
    const auto it = index.find(tx.id.bytes);
    ASSERT_NE(it, index.end());
    EXPECT_EQ(it->second, tx.valid);
  }
  for (const auto& [object_id, state] : expected) {
    EXPECT_EQ(org.ledger().cache().EncodeObjectState(object_id), state)
        << object_id;
    if (const auto parsed = ParseCounter(state)) {
      EXPECT_EQ(org.ReadState(object_id).counter, CounterSum(*parsed))
          << object_id;
    }
  }
  adopted_total += adopted;
}

/// A Byzantine origin's self-made checkpoint: covered ids shuffled,
/// duplicated with flipped verdicts and padded with ids nobody committed;
/// one object replaced by an unsorted state with a duplicate entry, one
/// extended with fabricated contributions, and a new object whose state
/// lists the same contribution twice.
std::shared_ptr<const Checkpoint> MakeForgery(const Checkpoint& base,
                                              Rng& rng) {
  auto forged = std::make_shared<Checkpoint>(base);
  for (std::size_t k = 0; k < 3 && !base.covered.empty(); ++k) {
    Checkpoint::CoveredTx dup = base.covered[rng.NextBelow(base.covered.size())];
    dup.valid = !dup.valid;
    forged->covered.push_back(dup);
  }
  for (int k = 0; k < 4; ++k) {
    forged->covered.push_back(
        {D("fabricated-" + std::to_string(rng.Next())), k % 2 == 0});
  }
  rng.Shuffle(forged->covered);
  const auto canonical = [](std::vector<CounterEntry> entries) {
    CounterState c;
    c.type = crdt::CrdtType::kGCounter;
    c.entries.insert(entries.begin(), entries.end());
    return EncodeCounter(c);
  };
  for (auto& [object_id, state] : forged->objects) {
    auto parsed = ParseCounter(state);
    if (!parsed || parsed->entries.empty()) continue;
    if (object_id.back() == '0') {
      // Unsorted, with a duplicate: the decoder must refuse it.
      std::vector<CounterEntry> entries(parsed->entries.rbegin(),
                                        parsed->entries.rend());
      entries.push_back(entries.front());
      codec::Writer w;
      w.PutU8(static_cast<std::uint8_t>(parsed->type));
      w.PutVarint(entries.size());
      for (const auto& [client, counter, seq, amount] : entries) {
        w.PutVarint(client);
        w.PutVarint(counter);
        w.PutU32(seq);
        w.PutI64(amount);
      }
      state = w.Take();
    } else {
      parsed->entries.insert({9000 + rng.NextBelow(100), 1, 0, 3});
      state = EncodeCounter(*parsed);
    }
  }
  forged->objects.emplace_back(
      "forged-new", canonical({{7, 1, 0, 2}, {7, 2, 0, 4}}));
  // A first install used to count a duplicate twice in the total. Each
  // entry above encodes to 7 bytes: overwrite the second with the first.
  Bytes& dup_state = forged->objects.back().second;
  std::copy(dup_state.end() - 14, dup_state.end() - 7, dup_state.end() - 7);
  return forged;
}

TEST(CheckpointIncremental, SealInstallPruneMatchWholeHistoryReference) {
  for (const bool attest : {false, true}) {
    for (const std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
      SCOPED_TRACE(testing::Message() << "attest=" << attest
                                      << " seed=" << seed);
      harness::OrderlessNetConfig config;
      config.num_orgs = 5;
      config.num_clients = 4;
      config.policy = core::EndorsementPolicy{2, 5};
      config.net.one_way_latency = sim::Ms(5);
      config.net.jitter_stddev_ms = 0.2;
      config.org_timing.gossip_interval = sim::Ms(200);
      config.org_timing.gossip_fanout = 1;
      config.org_timing.gossip_rounds = 2;
      config.org_timing.antientropy_interval = sim::Ms(500);
      config.org_timing.checkpoint.enabled = true;
      config.org_timing.checkpoint.attest = attest;
      config.org_timing.checkpoint.interval = sim::Ms(700);
      config.client_timing.max_attempts = 4;
      config.client_timing.endorse_timeout = sim::Ms(700);
      config.client_timing.commit_timeout = sim::Ms(700);
      config.seed = seed;
      harness::OrderlessNet net(config);
      net.RegisterContract(std::make_shared<contracts::SyntheticContract>());
      net.Start();

      Rng rng(seed);
      const std::size_t steps = 60;
      const std::size_t crash_step = 15 + rng.NextBelow(20);
      const std::size_t forge_step = 10 + rng.NextBelow(40);
      std::size_t seals = 0;
      std::size_t installs = 0;
      std::uint64_t adopted_total = 0;
      std::optional<std::size_t> partitioned;
      const auto running_org = [&net, &rng]() -> std::size_t {
        for (;;) {
          const std::size_t i = rng.NextBelow(net.org_count());
          if (net.OrgRunning(i)) return i;
        }
      };
      const auto run_for = [&net](sim::SimTime dt) {
        net.simulation().RunUntil(net.simulation().now() + dt);
      };
      for (std::size_t step = 0; step < steps; ++step) {
        switch (rng.NextBelow(6)) {
          case 0:
          case 1: {
            const std::uint64_t txs = 1 + rng.NextBelow(12);
            for (std::uint64_t t = 0; t < txs; ++t) {
              net.client(rng.NextBelow(net.client_count()))
                  .SubmitModify(
                      "synthetic", "Modify",
                      {crdt::Value(static_cast<std::int64_t>(
                           1 + rng.NextBelow(2))),
                       crdt::Value(std::int64_t{1}),
                       crdt::Value(std::string(contracts::kTypeGCounter))},
                      [](const core::TxOutcome&) {});
            }
            run_for(sim::Ms(150));
            break;
          }
          case 2:
            // Cut one org off for a while so the others' checkpoints cover
            // commits it never saw.
            if (!partitioned) {
              partitioned = rng.NextBelow(net.org_count());
              net.network().SetPartition(net.org_node(*partitioned), 1);
            } else if (rng.NextBool(0.4)) {
              net.network().HealPartitions();
              partitioned.reset();
            }
            break;
          case 3:
            CheckSeal(net.org(running_org()), attest);
            ++seals;
            break;
          case 4: {
            // Installing into the cut-off org adopts what it missed.
            const std::size_t target =
                partitioned && net.OrgRunning(*partitioned) && rng.NextBool(0.5)
                    ? *partitioned
                    : running_org();
            const std::size_t origin = rng.NextBelow(net.org_count());
            const auto& ckpt = rng.NextBool(0.7)
                                   ? net.org(origin).sealed_checkpoint()
                                   : net.org(origin).installed_checkpoint();
            if (ckpt != nullptr) {
              CheckInstall(net.org(target), ckpt, adopted_total);
              ++installs;
            }
            break;
          }
          default:
            run_for(sim::Ms(300 + rng.NextBelow(1200)));
            break;
        }
        if (step == crash_step) {
          const std::size_t victim = running_org();
          net.CrashOrg(victim);
          run_for(sim::Ms(400));
          ASSERT_TRUE(net.RestartOrg(victim));
          // The seal delta is re-derived from the recovered index.
          CheckSeal(net.org(victim), attest);
          ++seals;
        }
        if (step == forge_step) {
          const std::size_t origin = running_org();
          if (net.org(origin).sealed_checkpoint() != nullptr) {
            CheckInstall(net.org((origin + 1) % net.org_count()),
                         MakeForgery(*net.org(origin).sealed_checkpoint(), rng),
                         adopted_total);
            ++installs;
          }
        }
        // Behind the pruned frontier no body survives, in either mode.
        for (std::size_t i = 0; i < net.org_count(); ++i) {
          const auto& frontier = attest ? net.org(i).attested_checkpoint()
                                        : net.org(i).sealed_checkpoint();
          if (frontier == nullptr) continue;
          EXPECT_EQ(CoveredBodyRows(net.org(i).mutable_ledger().store(),
                                    frontier->covered),
                    0u)
              << "org " << i << " step " << step;
        }
        if (testing::Test::HasFatalFailure()) return;
      }
      net.network().HealPartitions();
      run_for(sim::Sec(4));
      for (std::size_t i = 0; i < net.org_count(); ++i) {
        if (net.OrgRunning(i)) CheckSeal(net.org(i), attest);
      }
      EXPECT_GE(seals, 4u);
      EXPECT_GE(installs, 3u);
      EXPECT_GT(adopted_total, 0u) << "installs must adopt something";
    }
  }
}

// ---------------------------------------------------------------------------
// Windowed commit index. The id map holds only what an organization indexed
// since its own last seal; that seal's sorted covered list, behind a radix
// offset table, answers the rest.

/// An id whose first eight bytes are `top` (big-endian) and whose last byte
/// is `tail`.
crypto::Digest IdWithTop(std::uint64_t top, std::uint8_t tail) {
  crypto::Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(top >> (56 - 8 * i));
  }
  d.bytes[31] = tail;
  return d;
}

/// Sorts `covered`, drops repeated ids, indexes it and checks Find() against
/// a binary search for every probe and every listed id.
void ExpectLookupMatchesSearch(std::vector<Checkpoint::CoveredTx> covered,
                               const std::vector<crypto::Digest>& probes) {
  std::sort(covered.begin(), covered.end(), ById);
  covered.erase(std::unique(covered.begin(), covered.end(),
                            [](const auto& a, const auto& b) {
                              return a.id == b.id;
                            }),
                covered.end());
  core::CoveredLookup lookup;
  lookup.Build(&covered);
  ASSERT_EQ(lookup.size(), covered.size());
  const auto check = [&](const crypto::Digest& id) {
    const Checkpoint::CoveredTx key{id, false};
    const auto it = std::lower_bound(covered.begin(), covered.end(), key, ById);
    const Checkpoint::CoveredTx* expected =
        it != covered.end() && it->id == id ? &*it : nullptr;
    ASSERT_EQ(lookup.Find(id), expected)
        << id.Hex() << " in a list of " << covered.size();
  };
  for (const auto& tx : covered) check(tx.id);
  for (const auto& id : probes) check(id);
}

TEST(CoveredLookup, RadixBucketEdgeCases) {
  core::CoveredLookup lookup;
  EXPECT_EQ(lookup.Find(D("x")), nullptr);  // never built
  lookup.Build(nullptr);
  EXPECT_EQ(lookup.size(), 0u);
  EXPECT_EQ(lookup.Find(D("x")), nullptr);
  const std::vector<Checkpoint::CoveredTx> empty;
  lookup.Build(&empty);
  EXPECT_EQ(lookup.Find(crypto::Digest{}), nullptr);

  crypto::Digest lowest;  // all zero: first bucket, first slot
  crypto::Digest highest;
  highest.bytes.fill(0xff);  // last bucket, last slot
  crypto::Digest next_to_lowest = lowest;
  next_to_lowest.bytes[31] = 1;
  crypto::Digest next_to_highest = highest;
  next_to_highest.bytes[31] = 0xfe;
  // Sizes around every bucket-count step, up to 256 buckets.
  for (const std::size_t n : {0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 100, 1024,
                              1500}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    std::vector<Checkpoint::CoveredTx> covered;
    std::vector<crypto::Digest> probes = {lowest, highest, next_to_lowest,
                                          next_to_highest};
    for (std::size_t i = 0; i < n; ++i) {
      covered.push_back({D("in-" + std::to_string(i)), i % 2 == 0});
      probes.push_back(D("out-" + std::to_string(i)));
    }
    ExpectLookupMatchesSearch(covered, probes);
    covered.push_back({lowest, true});
    covered.push_back({highest, false});
    ExpectLookupMatchesSearch(covered, probes);
  }
  // Equal top bits: ids sharing their first eight bytes all fall into one
  // bucket, so Find must scan past them by full id; absent ids between them
  // must miss.
  {
    std::vector<Checkpoint::CoveredTx> covered;
    std::vector<crypto::Digest> probes;
    for (int k = 0; k < 64; ++k) {
      covered.push_back({IdWithTop(0x8000000000000000ULL, 2 * k), k % 3 == 0});
      probes.push_back(IdWithTop(0x8000000000000000ULL, 2 * k + 1));
      covered.push_back({D("spread-" + std::to_string(k)), true});
    }
    ExpectLookupMatchesSearch(covered, probes);
  }
  // Empty buckets: every id sits in the top sixteenth of the key space, so
  // most buckets are empty and probes below it must land in them and miss.
  {
    std::vector<Checkpoint::CoveredTx> covered;
    std::vector<crypto::Digest> probes;
    Rng rng(17);
    for (int k = 0; k < 512; ++k) {
      covered.push_back(
          {IdWithTop(0xf000000000000000ULL | (rng.Next() >> 4), 0), true});
      probes.push_back(IdWithTop(rng.Next() >> 1, 0));
      probes.push_back(IdWithTop(0xf000000000000000ULL | (rng.Next() >> 4), 1));
    }
    ExpectLookupMatchesSearch(covered, probes);
  }
}

/// Folds `org`'s current index into `history` (a verdict never changes) and
/// checks the windowed index against it: window and coverage are disjoint,
/// nothing indexed earlier is lost, commit_index_size() counts each id once,
/// every id answers its verdict, covered ids answer the zero block hash, and
/// ids never indexed miss.
void CheckWindowedIndex(const core::Organization& org,
                        std::map<std::array<std::uint8_t, 32>, bool>& history,
                        const std::map<std::array<std::uint8_t, 32>, bool>&
                            local_commits) {
  const auto index = OrganizationTestPeer::Index(org);
  std::set<std::array<std::uint8_t, 32>> distinct;
  for (const auto& tx : index) {
    distinct.insert(tx.id.bytes);
    const auto [it, inserted] = history.emplace(tx.id.bytes, tx.valid);
    ASSERT_EQ(it->second, tx.valid) << "verdict changed for " << tx.id.Hex();
  }
  ASSERT_EQ(distinct.size(), index.size()) << "window and coverage overlap";
  ASSERT_EQ(org.commit_index_size(), history.size());
  for (const auto& [bytes, valid] : history) {
    crypto::Digest id;
    id.bytes = bytes;
    const auto found = OrganizationTestPeer::Lookup(org, id);
    ASSERT_TRUE(found.has_value()) << "lost " << id.Hex();
    ASSERT_EQ(found->first, valid) << id.Hex();
  }
  for (const auto& [bytes, valid] : local_commits) {
    const auto it = history.find(bytes);
    ASSERT_NE(it, history.end()) << "a local commit is not indexed";
    ASSERT_EQ(it->second, valid);
  }
  if (const auto& sealed = org.sealed_checkpoint()) {
    for (const auto& tx : sealed->covered) {
      ASSERT_EQ(OrganizationTestPeer::Lookup(org, tx.id)->second,
                crypto::Digest{});
    }
  }
  for (int k = 0; k < 8; ++k) {
    ASSERT_FALSE(OrganizationTestPeer::Lookup(org, D("never-" +
                                                     std::to_string(k))))
        << k;
  }
}

TEST(CommitWindow, LookupsMatchWholeHistoryMap) {
  using IdMap = std::map<std::array<std::uint8_t, 32>, bool>;
  for (const bool attest : {false, true}) {
    for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
      SCOPED_TRACE(testing::Message() << "attest=" << attest
                                      << " seed=" << seed);
      harness::OrderlessNetConfig config;
      config.num_orgs = 5;
      config.num_clients = 4;
      config.policy = core::EndorsementPolicy{2, 5};
      config.net.one_way_latency = sim::Ms(5);
      config.net.jitter_stddev_ms = 0.2;
      config.org_timing.gossip_interval = sim::Ms(200);
      config.org_timing.gossip_fanout = 1;
      config.org_timing.gossip_rounds = 2;
      config.org_timing.antientropy_interval = sim::Ms(500);
      config.org_timing.checkpoint.enabled = true;
      config.org_timing.checkpoint.attest = attest;
      config.org_timing.checkpoint.interval = sim::Ms(600);
      config.client_timing.max_attempts = 4;
      config.client_timing.endorse_timeout = sim::Ms(700);
      config.client_timing.commit_timeout = sim::Ms(700);
      config.seed = seed;
      harness::OrderlessNet net(config);
      net.RegisterContract(std::make_shared<contracts::SyntheticContract>());
      net.Start();

      // history[i]: every id org i ever indexed, with its verdict. A restart
      // may drop coverage adopted from an install that was never persisted,
      // so it restarts from the recovered index; local commits never drop.
      std::vector<IdMap> history(net.org_count());
      std::vector<IdMap> local(net.org_count());
      const auto observe = [&net, &local](std::size_t i) {
        net.org(i).SetCommitObserver(
            [&local, i](const core::Transaction& tx, core::TxVerdict v) {
              local[i].emplace(tx.id.bytes, v == core::TxVerdict::kValid);
            });
      };
      for (std::size_t i = 0; i < net.org_count(); ++i) observe(i);

      Rng rng(seed);
      const std::size_t crash_step = 10 + rng.NextBelow(20);
      std::size_t seals = 0;
      std::size_t installs = 0;
      const auto running_org = [&net, &rng]() -> std::size_t {
        for (;;) {
          const std::size_t i = rng.NextBelow(net.org_count());
          if (net.OrgRunning(i)) return i;
        }
      };
      const auto run_for = [&net](sim::SimTime dt) {
        net.simulation().RunUntil(net.simulation().now() + dt);
      };
      for (std::size_t step = 0; step < 50; ++step) {
        switch (rng.NextBelow(5)) {
          case 0:
          case 1: {
            const std::uint64_t txs = 1 + rng.NextBelow(12);
            for (std::uint64_t t = 0; t < txs; ++t) {
              net.client(rng.NextBelow(net.client_count()))
                  .SubmitModify(
                      "synthetic", "Modify",
                      {crdt::Value(static_cast<std::int64_t>(
                           1 + rng.NextBelow(2))),
                       crdt::Value(std::int64_t{1}),
                       crdt::Value(std::string(contracts::kTypeGCounter))},
                      [](const core::TxOutcome&) {});
            }
            run_for(sim::Ms(100 + rng.NextBelow(400)));
            break;
          }
          case 2: {
            core::Organization& org = net.org(running_org());
            OrganizationTestPeer::Seal(org);
            ASSERT_EQ(OrganizationTestPeer::WindowSize(org), 0u)
                << "a seal leaves the window empty";
            ++seals;
            break;
          }
          case 3: {
            const std::size_t origin = rng.NextBelow(net.org_count());
            const auto& ckpt = rng.NextBool(0.6)
                                   ? net.org(origin).sealed_checkpoint()
                                   : net.org(origin).installed_checkpoint();
            if (ckpt != nullptr) {
              OrganizationTestPeer::Install(net.org(running_org()), ckpt);
              ++installs;
            }
            break;
          }
          default:
            run_for(sim::Ms(300 + rng.NextBelow(900)));
            break;
        }
        if (step == crash_step) {
          const std::size_t victim = running_org();
          net.CrashOrg(victim);
          run_for(sim::Ms(300));
          ASSERT_TRUE(net.RestartOrg(victim));
          observe(victim);
          history[victim].clear();
        }
        for (std::size_t i = 0; i < net.org_count(); ++i) {
          if (!net.OrgRunning(i)) continue;
          SCOPED_TRACE(testing::Message() << "org " << i << " step " << step);
          CheckWindowedIndex(net.org(i), history[i], local[i]);
          if (testing::Test::HasFatalFailure()) return;
        }
      }
      EXPECT_GE(seals, 3u);
      EXPECT_GE(installs, 3u);
      std::size_t covered = 0;
      for (std::size_t i = 0; i < net.org_count(); ++i) {
        covered += net.org(i).commit_index_size() -
                   OrganizationTestPeer::WindowSize(net.org(i));
      }
      EXPECT_GT(covered, 0u) << "some lookups must be answered by coverage";
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pin: a short soak-shaped experiment (16 orgs, EP{4 of 16},
// checkpoints every second with anti-entropy, 2 engine threads) must keep
// producing exactly the outcome recorded before the checkpoint path became
// incremental. Any change to which commits a seal covers, what an install
// adopts or what a prune deletes moves one of these numbers.

TEST(CheckpointGolden, SoakShapedRunMatchesRecordedOutcome) {
  harness::ExperimentConfig c;
  c.num_orgs = 16;
  c.policy = {4, 16};
  c.workload.arrival_tps = 600;
  c.workload.duration = sim::Sec(3);
  c.workload.drain = sim::Sec(6);
  c.workload.modify_fraction = 0.5;
  c.workload.num_clients = 200;
  c.workload.obj_count = 1;
  c.workload.ops_per_obj = 1;
  c.workload.crdt_type = "g-counter";
  c.checkpoint_interval = sim::Sec(1);
  c.threads = 2;
  c.seed = 1;
  const harness::ExperimentResult r = harness::RunExperiment(c);
  const harness::RobustnessStats& rob = r.metrics.robustness;

  codec::Writer heads;
  for (const crypto::Digest& head : r.org_chain_heads) {
    heads.PutBytes(head.View());
  }
  const std::uint64_t heads_fingerprint =
      crypto::Sha256::Hash(BytesView(heads.data())).Prefix64();
  // Recorded on the whole-history implementation (same config and seed).
  EXPECT_EQ(rob.ckpt_sealed, 69u);
  EXPECT_EQ(rob.ckpt_installed, 112u);
  EXPECT_EQ(rob.ckpt_txs_covered, 3101u);
  EXPECT_EQ(rob.pruned_records, 11027u);
  EXPECT_EQ(rob.sync_txs_sent, 11874u);
  EXPECT_EQ(r.events_processed, 79678u);
  EXPECT_EQ(r.metrics.modify_latency.count(), 883u);
  EXPECT_EQ(r.metrics.modify_latency.SumUs(), 187897927u);
  EXPECT_EQ(r.metrics.read_latency.count(), 917u);
  EXPECT_EQ(r.metrics.read_latency.SumUs(), 97131892u);
  ASSERT_EQ(r.org_chain_heads.size(), 16u);
  EXPECT_EQ(heads_fingerprint, 0xf3679e3dc9f486afULL);
}

}  // namespace
}  // namespace orderless
