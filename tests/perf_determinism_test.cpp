// The hot-path caches (encode-once/hash-once transactions, validation
// memoization) are host-side only: a simulated run must reproduce the
// fingerprint, event count and per-organization ledger chain heads recorded
// before the caches became the only path (the values below were identical
// with the memo on and off). Cached digests and encodings must equal a
// from-scratch computation. These tests pin that contract, plus the
// Byzantine body-substitution guard on the validation memo.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "core/transaction.h"
#include "core/validation_cache.h"
#include "crypto/pki.h"

namespace orderless {
namespace {

chaos::Scenario DeterminismScenario(std::uint64_t seed) {
  chaos::ScenarioLimits limits;
  limits.min_orgs = 4;
  limits.max_orgs = 6;
  limits.num_clients = 4;
  limits.tx_count = 24;
  limits.duration = sim::Sec(6);
  limits.quiesce = sim::Sec(15);
  return chaos::GenerateScenario(seed, limits);
}

struct ChaosPin {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::uint64_t events_processed;
  std::uint64_t messages_sent;
  std::uint64_t bytes_sent;
  std::uint32_t committed;
  std::vector<std::string> org_chain_heads;
};

TEST(PerfDeterminism, ChaosReplayIdenticalWithAndWithoutMemo) {
  // Two seeds so both a quiet and a fault-heavy script are covered.
  const ChaosPin pins[] = {
      {7,
       7532240566665404570ull,
       2790,
       1221,
       231220,
       24,
       {"cc352067517014f2da547790e69c3e4f919674b9bff21d5722083f28b6add6fd",
        "60766cdda86282aca8dbb6a2d5ef7db906989b43944e2cd8cd4c4cf38d843a3c",
        "7d16346f026929f857ca57a65a6af3d0f70defb55957f53f9dae2a20ed9ce78c",
        "7d16346f026929f857ca57a65a6af3d0f70defb55957f53f9dae2a20ed9ce78c",
        "b7c24f6a82cd8b7b9b5858f9efaa0926fd7c265c5ca7442df605ed6d11f0ccc8",
        "7d16346f026929f857ca57a65a6af3d0f70defb55957f53f9dae2a20ed9ce78c"}},
      {1234,
       12856665662582387212ull,
       3270,
       1684,
       436923,
       24,
       {"2b147c55ebebe09ee4a6a36b4bd600300bccf6d49d709df4a8b3cc707f291e8f",
        "526e450354781336ccbef93f0ad4e22338378910ccd47f006e9e66182d86ff8d",
        "8aca39312484e377f9b6a7c14fb342160cc641531e5b8d0dcfafce0ab92f0706",
        "2ba86116063cecd44bfcf44af7b3a80485783a556fc8269acbe83da4e3f3d7bd",
        "8bb008e697b60b9f6f85486bdfd2691217ff56a764989d596b93fb5366c2aaf1",
        "d87184ac1a5878b579a56c7bb833301af5d6975e701c355680c74c2c497edba7"}},
  };
  for (const ChaosPin& pin : pins) {
    const chaos::ChaosRunResult run =
        chaos::RunScenario(DeterminismScenario(pin.seed));
    EXPECT_EQ(run.fingerprint, pin.fingerprint) << "seed " << pin.seed;
    EXPECT_EQ(run.events_processed, pin.events_processed)
        << "seed " << pin.seed;
    EXPECT_EQ(run.messages_sent, pin.messages_sent) << "seed " << pin.seed;
    EXPECT_EQ(run.bytes_sent, pin.bytes_sent) << "seed " << pin.seed;
    EXPECT_EQ(run.committed, pin.committed) << "seed " << pin.seed;
    // Per-org chain heads pinpoint divergence if the fingerprint ever splits.
    EXPECT_EQ(run.org_chain_heads, pin.org_chain_heads) << "seed " << pin.seed;
  }
}

core::Proposal MakeProposal() {
  core::Proposal p;
  p.client = 42;
  p.contract = "voting";
  p.function = "Vote";
  p.args = {crdt::Value("e"), crdt::Value(std::int64_t{1})};
  p.clock.client = 42;
  p.clock.counter = 7;
  return p;
}

std::vector<crdt::Operation> MakeOps() {
  std::vector<crdt::Operation> ops;
  crdt::Operation op;
  op.object_id = "obj";
  op.value = crdt::Value(std::int64_t{5});
  ops.push_back(op);
  return ops;
}

TEST(PerfDeterminism, CachedDigestsMatchUncachedComputation) {
  const core::Proposal p = MakeProposal();
  const crypto::Digest cached = p.Digest();
  EXPECT_EQ(p.Digest(), cached);  // second call served from the cache
  const std::size_t size_cached = p.WireSize();

  // Reference: SHA-256 over a fresh canonical encode of an uncached copy.
  codec::Writer w;
  MakeProposal().Encode(w);
  EXPECT_EQ(cached, crypto::Sha256::Hash(BytesView(w.data())));
  EXPECT_EQ(size_cached, w.size());
}

TEST(PerfDeterminism, InvalidateCacheDropsStaleDigest) {
  core::Proposal p = MakeProposal();
  const crypto::Digest before = p.Digest();
  p.clock.counter += 1;  // the Byzantine inconsistent-clocks mutation
  p.InvalidateCache();
  const crypto::Digest after = p.Digest();
  EXPECT_NE(before, after);

  core::Proposal reference = MakeProposal();
  reference.clock.counter += 1;
  EXPECT_EQ(after, reference.Digest());
}

TEST(PerfDeterminism, TransactionEncodingIdenticalWithAndWithoutMemo) {
  crypto::Pki pki;
  const crypto::PrivateKey client = pki.Generate("client");
  const crypto::PrivateKey org = pki.Generate("org");
  const core::Proposal p = MakeProposal();
  const auto ops = MakeOps();
  core::Endorsement e;
  e.org = org.id();
  e.signature = org.Sign(core::kEndorseContext,
                         core::EndorsementMessage(p.Digest(),
                                                  core::WriteSetDigest(ops)));

  auto tx = core::Transaction::Assemble(p, ops, {e}, client);
  codec::Writer w;
  tx->Encode(w);
  tx->Encode(w);  // second append comes from the cached canonical bytes
  const Bytes cached = w.Take();

  // Reference: the canonical layout encoded field by field.
  codec::Writer ref;
  p.Encode(ref);
  crdt::EncodeOperations(ops, ref);
  ref.PutVarint(1);
  ref.PutU64(e.org);
  ref.PutBytes(e.signature.View());
  ref.PutBytes(tx->client_signature.View());
  ref.PutBytes(tx->id.View());
  Bytes expected = ref.data();
  expected.insert(expected.end(), ref.data().begin(), ref.data().end());
  EXPECT_EQ(cached, expected);
  EXPECT_EQ(tx->EncodedBody().size(), ref.size());

  // The wire-size estimate counts fixed-width endorsements and signatures
  // (40 bytes per endorsement, 32 + 32 for client signature and id, 16 of
  // framing) on top of the proposal and write-set bytes.
  codec::Writer body;
  p.Encode(body);
  crdt::EncodeOperations(ops, body);
  EXPECT_EQ(tx->WireSize(), body.size() + 40 + 32 + 32 + 16);
}

class ValidationMemoFixture : public ::testing::Test {
 protected:
  ValidationMemoFixture()
      : client_(pki_.Generate("client")),
        org0_(pki_.Generate("org0")),
        org1_(pki_.Generate("org1")),
        org_keys_({org0_.id(), org1_.id()}),
        policy_{2, 2} {}

  std::shared_ptr<const core::Transaction> MakeValidTx() {
    core::Proposal p = MakeProposal();
    p.client = client_.id();
    const auto ops = MakeOps();
    const crypto::Digest msg = core::EndorsementMessage(
        p.Digest(), core::WriteSetDigest(ops));
    core::Endorsement e0{org0_.id(), org0_.Sign(core::kEndorseContext, msg)};
    core::Endorsement e1{org1_.id(), org1_.Sign(core::kEndorseContext, msg)};
    return core::Transaction::Assemble(p, ops, {e0, e1}, client_);
  }

  crypto::Pki pki_;
  crypto::PrivateKey client_;
  crypto::PrivateKey org0_;
  crypto::PrivateKey org1_;
  std::set<crypto::KeyId> org_keys_;
  core::EndorsementPolicy policy_;
};

TEST_F(ValidationMemoFixture, SharedPointerAndByteIdenticalCopiesHit) {
  core::ValidationMemo memo(16);
  const auto tx = MakeValidTx();
  ASSERT_EQ(core::ValidateTransaction(*tx, pki_, org_keys_, policy_),
            core::TxVerdict::kValid);
  memo.Store(tx, core::TxVerdict::kValid);

  // Same object: the zero-copy gossip delivery case.
  EXPECT_EQ(memo.Lookup(tx), core::TxVerdict::kValid);

  // A decoded copy (anti-entropy / recovery path): different object, byte-
  // identical canonical form — still a hit.
  codec::Writer w;
  tx->Encode(w);
  codec::Reader r(BytesView(w.data()));
  std::shared_ptr<const core::Transaction> copy =
      core::Transaction::Decode(r);
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(memo.Lookup(copy), core::TxVerdict::kValid);
  EXPECT_EQ(memo.stats().hits, 2u);
  EXPECT_EQ(memo.stats().byte_mismatches, 0u);
}

TEST_F(ValidationMemoFixture, ByzantineBodySubstitutionMisses) {
  core::ValidationMemo memo(16);
  const auto tx = MakeValidTx();
  memo.Store(tx, core::TxVerdict::kValid);

  // A Byzantine peer gossips a different body under the verified id: the
  // memo must refuse the cached verdict and full validation must reject.
  auto forged_mut = std::make_shared<core::Transaction>(*tx);
  forged_mut->ops[0].value = crdt::Value(std::int64_t{999});
  forged_mut->InvalidateCache();
  std::shared_ptr<const core::Transaction> forged = forged_mut;
  ASSERT_EQ(forged->id, tx->id);  // id claims to be the verified tx

  EXPECT_EQ(memo.Lookup(forged), std::nullopt);
  EXPECT_EQ(memo.stats().byte_mismatches, 1u);
  EXPECT_NE(core::ValidateTransaction(*forged, pki_, org_keys_, policy_),
            core::TxVerdict::kValid);
}

TEST_F(ValidationMemoFixture, LruEvictsAtCapacity) {
  core::ValidationMemo memo(2);
  const auto a = MakeValidTx();

  core::Proposal p2 = MakeProposal();
  p2.clock.counter = 99;
  const auto ops = MakeOps();
  const crypto::Digest msg2 =
      core::EndorsementMessage(p2.Digest(), core::WriteSetDigest(ops));
  const auto b = core::Transaction::Assemble(
      p2, ops,
      {core::Endorsement{org0_.id(), org0_.Sign(core::kEndorseContext, msg2)},
       core::Endorsement{org1_.id(), org1_.Sign(core::kEndorseContext, msg2)}},
      client_);

  core::Proposal p3 = MakeProposal();
  p3.clock.counter = 100;
  const crypto::Digest msg3 =
      core::EndorsementMessage(p3.Digest(), core::WriteSetDigest(ops));
  const auto c = core::Transaction::Assemble(
      p3, ops,
      {core::Endorsement{org0_.id(), org0_.Sign(core::kEndorseContext, msg3)},
       core::Endorsement{org1_.id(), org1_.Sign(core::kEndorseContext, msg3)}},
      client_);

  memo.Store(a, core::TxVerdict::kValid);
  memo.Store(b, core::TxVerdict::kValid);
  memo.Store(c, core::TxVerdict::kValid);  // evicts a (least recently used)
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.Lookup(a), std::nullopt);
  EXPECT_EQ(memo.Lookup(b), core::TxVerdict::kValid);
  EXPECT_EQ(memo.Lookup(c), core::TxVerdict::kValid);
}

}  // namespace
}  // namespace orderless
