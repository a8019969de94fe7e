#include <gtest/gtest.h>

#include "contracts/auction.h"
#include "contracts/filestore.h"
#include "contracts/supplychain.h"
#include "contracts/synthetic.h"
#include "contracts/voting.h"
#include "core/contract.h"
#include "core/transaction.h"
#include "ledger/cache.h"

namespace orderless::core {
namespace {

TEST(Policy, SafetyAndLivenessBounds) {
  // Paper §3's EP1 {2 of 4}: safe for f<=1, live for f<=2.
  const EndorsementPolicy ep1{2, 4};
  EXPECT_TRUE(ep1.SafeAgainst(1));
  EXPECT_FALSE(ep1.SafeAgainst(2));
  EXPECT_TRUE(ep1.LiveWith(2));
  EXPECT_FALSE(ep1.LiveWith(3));

  // EP2 {4 of 4}: safe for f<=3, live only with f=0.
  const EndorsementPolicy ep2{4, 4};
  EXPECT_TRUE(ep2.SafeAgainst(3));
  EXPECT_TRUE(ep2.LiveWith(0));
  EXPECT_FALSE(ep2.LiveWith(1));

  EXPECT_EQ(ep1.MaxToleratedFaults(), 1u);
  const EndorsementPolicy ep3{4, 16};
  EXPECT_EQ(ep3.MaxToleratedFaults(), 3u);
  EXPECT_EQ(ep1.ToString(), "{2 of 4}");
}

TEST(Policy, BoundSweep) {
  // Theorem 8.1 swept over (n, q, f).
  for (std::uint32_t n = 1; n <= 12; ++n) {
    for (std::uint32_t q = 1; q <= n; ++q) {
      const EndorsementPolicy ep{q, n};
      for (std::uint32_t f = 0; f <= n; ++f) {
        EXPECT_EQ(ep.SafeAgainst(f), q >= f + 1);
        EXPECT_EQ(ep.LiveWith(f), n - q >= f);
      }
    }
  }
}

// ---------------------------------------------------------------------------

class TxFixture : public testing::Test {
 protected:
  TxFixture() {
    for (int i = 0; i < 4; ++i) {
      org_keys_.push_back(pki_.Generate("org" + std::to_string(i)));
      org_key_ids_.insert(org_keys_.back().id());
    }
    client_key_ = pki_.Generate("client");
  }

  Proposal MakeProposal() {
    Proposal p;
    p.client = client_key_.id();
    p.contract = "voting";
    p.function = "Vote";
    p.args = {crdt::Value("e1"), crdt::Value(std::int64_t{0}),
              crdt::Value(std::int64_t{2})};
    p.clock = clk::OpClock{client_key_.id(), 1};
    return p;
  }

  std::vector<crdt::Operation> MakeOps(const Proposal& p) {
    OpEmitter emit(p.clock);
    emit.Assign("vote/e1/party0", crdt::CrdtType::kMap, {"voter"},
                crdt::Value(true));
    emit.Assign("vote/e1/party1", crdt::CrdtType::kMap, {"voter"},
                crdt::Value(false));
    return emit.Take();
  }

  Endorsement Endorse(const crypto::PrivateKey& org, const Proposal& p,
                      const std::vector<crdt::Operation>& ops) {
    Endorsement e;
    e.org = org.id();
    e.signature = org.Sign(
        kEndorseContext, EndorsementMessage(p.Digest(), WriteSetDigest(ops)));
    return e;
  }

  crypto::Pki pki_;
  std::vector<crypto::PrivateKey> org_keys_;
  std::set<crypto::KeyId> org_key_ids_;
  crypto::PrivateKey client_key_;
  EndorsementPolicy policy_{2, 4};
};

TEST_F(TxFixture, ValidTransactionValidates) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kValid);
}

TEST_F(TxFixture, InsufficientEndorsementsRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(p, ops, {Endorse(org_keys_[0], p, ops)},
                                  client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kInsufficientEndorsements);
}

TEST_F(TxFixture, DuplicateEndorserRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[0], p, ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kDuplicateEndorser);
}

TEST_F(TxFixture, UnknownEndorserRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  const crypto::PrivateKey intruder = pki_.Generate("intruder");
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(intruder, p, ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kUnknownEndorser);
}

TEST_F(TxFixture, TamperedWriteSetRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      client_key_);
  // The client tampers with the endorsed write-set after signing; the id is
  // recomputed correctly, but the endorsement signatures no longer match.
  // (In-place mutation models the attacker re-serializing a modified body,
  // so the cached derivations must be dropped too.)
  tx->ops[0].value = crdt::Value(false);
  tx->InvalidateCache();
  tx->id = Transaction::ComputeId(tx->proposal.Digest(),
                                  WriteSetDigest(tx->ops));
  tx->client_signature = client_key_.Sign(kTxContext, tx->id);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kBadEndorsementSignature);
}

TEST_F(TxFixture, TamperedWithoutRecomputingIdRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      client_key_);
  tx->ops[0].value = crdt::Value(false);  // in-flight corruption
  tx->InvalidateCache();
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kIdMismatch);
}

TEST_F(TxFixture, ForgedClientSignatureRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  const crypto::PrivateKey mallory = pki_.Generate("mallory");
  auto tx = Transaction::Assemble(
      p, ops, {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, ops)},
      mallory);  // mallory signs for the client
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kBadClientSignature);
}

TEST_F(TxFixture, EndorsementOverDifferentWriteSetRejected) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  auto other_ops = ops;
  other_ops[0].value = crdt::Value(false);
  auto tx = Transaction::Assemble(
      p, ops,
      {Endorse(org_keys_[0], p, ops), Endorse(org_keys_[1], p, other_ops)},
      client_key_);
  EXPECT_EQ(ValidateTransaction(*tx, pki_, org_key_ids_, policy_),
            TxVerdict::kBadEndorsementSignature);
}

TEST_F(TxFixture, ReceiptVerification) {
  const crypto::Digest tx_id = crypto::Sha256::Hash(std::string_view("tx"));
  const crypto::Digest block = crypto::Sha256::Hash(std::string_view("block"));
  Receipt receipt = Receipt::Make(tx_id, true, block, org_keys_[0]);
  EXPECT_TRUE(receipt.Verify(pki_));
  Receipt forged = receipt;
  forged.valid = false;  // flip verdict
  EXPECT_FALSE(forged.Verify(pki_));
  Receipt wrong_block = receipt;
  wrong_block.block_hash = crypto::Sha256::Hash(std::string_view("other"));
  EXPECT_FALSE(wrong_block.Verify(pki_));
}

// The paper's validation rule written as a plain loop over Pki::Verify, in
// endorsement order, with every digest recomputed from a fresh encode: the
// reference the batched paths must reproduce verdict for verdict.
TxVerdict ReferenceVerdict(const Transaction& tx, const crypto::Pki& pki,
                           const std::set<crypto::KeyId>& organization_keys,
                           const EndorsementPolicy& policy) {
  codec::Writer encoded;
  tx.proposal.Encode(encoded);
  const crypto::Digest proposal_digest =
      crypto::Sha256::Hash(BytesView(encoded.data()));
  const crypto::Digest ws_digest = WriteSetDigest(tx.ops);
  if (Transaction::ComputeId(proposal_digest, ws_digest) != tx.id) {
    return TxVerdict::kIdMismatch;
  }
  if (!pki.Verify(tx.proposal.client, kTxContext, tx.id,
                  tx.client_signature)) {
    return TxVerdict::kBadClientSignature;
  }
  const crypto::Digest message = EndorsementMessage(proposal_digest, ws_digest);
  std::set<crypto::KeyId> seen;
  for (const Endorsement& e : tx.endorsements) {
    if (!organization_keys.contains(e.org)) return TxVerdict::kUnknownEndorser;
    if (!seen.insert(e.org).second) return TxVerdict::kDuplicateEndorser;
    if (!pki.Verify(e.org, kEndorseContext, message, e.signature)) {
      return TxVerdict::kBadEndorsementSignature;
    }
  }
  if (tx.endorsements.size() < policy.q) {
    return TxVerdict::kInsufficientEndorsements;
  }
  return TxVerdict::kValid;
}

TEST_F(TxFixture, BatchValidationMatchesScalarReference) {
  const Proposal p = MakeProposal();
  const auto ops = MakeOps(p);
  const crypto::PrivateKey intruder = pki_.Generate("intruder");
  const crypto::PrivateKey mallory = pki_.Generate("mallory");
  const Endorsement e0 = Endorse(org_keys_[0], p, ops);
  const Endorsement e1 = Endorse(org_keys_[1], p, ops);
  const Endorsement e2 = Endorse(org_keys_[2], p, ops);
  Endorsement bad0 = e0;
  bad0.signature.bytes[0] ^= 0x01;
  Endorsement bad1 = e1;
  bad1.signature.bytes[31] ^= 0x80;
  const Endorsement stranger = Endorse(intruder, p, ops);

  struct Case {
    const char* what;
    std::shared_ptr<Transaction> tx;
    TxVerdict expected;  // under policy_ ({2 of 4})
  };
  std::vector<Case> cases = {
      {"valid", Transaction::Assemble(p, ops, {e0, e1, e2}, client_key_),
       TxVerdict::kValid},
      {"tampered id", Transaction::Assemble(p, ops, {e0, e1}, client_key_),
       TxVerdict::kIdMismatch},
      {"bad client signature",
       Transaction::Assemble(p, ops, {e0, e1}, mallory),
       TxVerdict::kBadClientSignature},
      {"bad endorsement first",
       Transaction::Assemble(p, ops, {bad0, e1, e2}, client_key_),
       TxVerdict::kBadEndorsementSignature},
      {"bad endorsement last",
       Transaction::Assemble(p, ops, {e0, e2, bad1}, client_key_),
       TxVerdict::kBadEndorsementSignature},
      {"unknown endorser before bad signature",
       Transaction::Assemble(p, ops, {e0, stranger, bad1}, client_key_),
       TxVerdict::kUnknownEndorser},
      {"unknown endorser after bad signature",
       Transaction::Assemble(p, ops, {e0, bad1, stranger}, client_key_),
       TxVerdict::kBadEndorsementSignature},
      {"duplicate endorser",
       Transaction::Assemble(p, ops, {e0, e1, e0}, client_key_),
       TxVerdict::kDuplicateEndorser},
      {"fewer than q", Transaction::Assemble(p, ops, {e0}, client_key_),
       TxVerdict::kInsufficientEndorsements},
  };
  cases[1].tx->id.bytes[5] ^= 0x04;

  std::vector<const Transaction*> txs;
  for (const Case& c : cases) txs.push_back(c.tx.get());
  // {3 of 4} turns the two-endorsement cases into quorum shortfalls, so the
  // insufficient-endorsements verdict is also reached on the batch path.
  for (const EndorsementPolicy policy :
       {policy_, EndorsementPolicy{3, 4}}) {
    std::vector<TxVerdict> batched(txs.size());
    ValidateTransactionsBatch(txs.data(), txs.size(), pki_, org_key_ids_,
                              policy, batched.data());
    for (std::size_t t = 0; t < cases.size(); ++t) {
      const Transaction& tx = *cases[t].tx;
      const TxVerdict reference =
          ReferenceVerdict(tx, pki_, org_key_ids_, policy);
      if (policy.q == policy_.q) {
        EXPECT_EQ(reference, cases[t].expected) << cases[t].what;
      }
      EXPECT_EQ(batched[t], reference)
          << cases[t].what << " q=" << policy.q << ": batch "
          << TxVerdictName(batched[t]) << " vs reference "
          << TxVerdictName(reference);
      EXPECT_EQ(ValidateTransaction(tx, pki_, org_key_ids_, policy),
                reference)
          << cases[t].what << " q=" << policy.q;
    }
  }
}

TEST_F(TxFixture, CountValidDistinctMatchesScalarReference) {
  const crypto::Digest digest =
      crypto::Sha256::Hash(std::string_view("checkpoint"));
  constexpr std::string_view kContext = "orderless.test.attest";
  const crypto::PrivateKey outsider = pki_.Generate("outsider");
  const auto sign = [&](const crypto::PrivateKey& key) {
    return std::pair<crypto::KeyId, crypto::Signature>{
        key.id(), key.Sign(kContext, digest)};
  };
  // A signer id this PKI never handed out (a key from another registry
  // would reuse one of ours: ids are sequential per registry).
  const std::pair<crypto::KeyId, crypto::Signature> unknown{
      crypto::KeyId{9999}, outsider.Sign(kContext, digest)};
  auto forged = sign(org_keys_[2]);
  forged.second.bytes[7] ^= 0x20;

  // Each distinct allowed signer with a valid signature counts once.
  const auto reference =
      [&](const std::vector<std::pair<crypto::KeyId, crypto::Signature>>&
              signatures) {
        std::set<crypto::KeyId> counted;
        for (const auto& [signer, signature] : signatures) {
          if (!org_key_ids_.contains(signer) || counted.contains(signer)) {
            continue;
          }
          if (pki_.Verify(signer, kContext, digest, signature)) {
            counted.insert(signer);
          }
        }
        return counted.size();
      };
  const std::vector<std::vector<std::pair<crypto::KeyId, crypto::Signature>>>
      sets = {
          {},
          {sign(org_keys_[0])},
          {sign(org_keys_[0]), sign(org_keys_[1]), sign(org_keys_[2])},
          {sign(org_keys_[0]), sign(org_keys_[0]), sign(org_keys_[1])},
          {sign(org_keys_[0]), forged, sign(org_keys_[1])},
          {sign(org_keys_[0]), sign(org_keys_[0]), forged},
          {unknown, sign(org_keys_[0]), unknown},
          {sign(outsider), sign(org_keys_[1]), sign(org_keys_[3])},
          {forged, sign(outsider), unknown, sign(org_keys_[3]),
           sign(org_keys_[3]), sign(org_keys_[1])},
      };
  const std::size_t expected[] = {0, 1, 3, 2, 2, 1, 1, 2, 2};
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(reference(sets[i]), expected[i]) << "set " << i;
    EXPECT_EQ(pki_.CountValidDistinct(kContext, digest, sets[i], org_key_ids_),
              reference(sets[i]))
        << "set " << i;
  }
}

// ---------------------------------------------------------------------------

TEST(OpEmitterTest, SequencesAreUnique) {
  OpEmitter emit(clk::OpClock{7, 3});
  emit.Add("c", crdt::CrdtType::kGCounter, {}, 1);
  emit.Assign("r", crdt::CrdtType::kMVRegister, {}, crdt::Value(true));
  emit.Insert("m", crdt::CrdtType::kMap, {"k"}, crdt::CrdtType::kMVRegister);
  const auto ops = emit.Take();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].seq, 0u);
  EXPECT_EQ(ops[1].seq, 1u);
  EXPECT_EQ(ops[2].seq, 2u);
  for (const auto& op : ops) {
    EXPECT_EQ(op.clock, (clk::OpClock{7, 3}));
  }
}

/// ReadContext over a plain cache for contract unit tests.
class CacheContext final : public ReadContext {
 public:
  explicit CacheContext(ledger::CrdtCache& cache) : cache_(cache) {}
  crdt::ReadResult ReadObject(
      const std::string& object_id,
      const std::vector<std::string>& path) const override {
    return cache_.Read(object_id, path);
  }

 private:
  ledger::CrdtCache& cache_;
};

TEST(Contracts, VotingVoteAndCount) {
  contracts::VotingContract voting;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 42;
  in.clock = clk::OpClock{42, 1};
  in.args = {crdt::Value("e1"), crdt::Value(std::int64_t{1}),
             crdt::Value(std::int64_t{4})};
  const auto result = voting.Invoke(ctx, "Vote", in);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.ops.size(), 4u);  // one op per party (paper §6)
  cache.Apply(result.ops);

  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 1), 1);
  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 0), 0);

  // Vote switch: same voter votes party 3; only the new vote counts.
  in.clock = clk::OpClock{42, 2};
  in.args = {crdt::Value("e1"), crdt::Value(std::int64_t{3}),
             crdt::Value(std::int64_t{4})};
  cache.Apply(voting.Invoke(ctx, "Vote", in).ops);
  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 1), 0);
  EXPECT_EQ(contracts::VotingContract::CountVotes(ctx, "e1", 3), 1);

  Invocation read;
  read.args = {crdt::Value("e1"), crdt::Value(std::int64_t{3})};
  const auto count = voting.Invoke(ctx, "ReadVoteCount", read);
  ASSERT_TRUE(count.ok);
  EXPECT_EQ(count.value, crdt::Value(std::int64_t{1}));
}

TEST(Contracts, VotingRejectsBadArgs) {
  contracts::VotingContract voting;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);
  Invocation in;
  in.args = {crdt::Value("e1"), crdt::Value(std::int64_t{9}),
             crdt::Value(std::int64_t{4})};
  EXPECT_FALSE(voting.Invoke(ctx, "Vote", in).ok);  // party out of range
  in.args = {};
  EXPECT_FALSE(voting.Invoke(ctx, "Vote", in).ok);
  EXPECT_FALSE(voting.Invoke(ctx, "Nonexistent", in).ok);
}

TEST(Contracts, AuctionIncreaseOnlyBids) {
  contracts::AuctionContract auction;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation bid;
  bid.client = 1;
  bid.clock = clk::OpClock{1, 1};
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{10})};
  cache.Apply(auction.Invoke(ctx, "Bid", bid).ops);

  bid.client = 2;
  bid.clock = clk::OpClock{2, 1};
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{25})};
  cache.Apply(auction.Invoke(ctx, "Bid", bid).ops);

  bid.client = 1;
  bid.clock = clk::OpClock{1, 2};
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{20})};
  cache.Apply(auction.Invoke(ctx, "Bid", bid).ops);

  // Bidder 1's cumulative bid is 30, which beats bidder 2's 25.
  const auto [best, winner] = contracts::AuctionContract::HighestBid(ctx, "a1");
  EXPECT_EQ(best, 30);
  EXPECT_EQ(winner, contracts::AuctionContract::BidderKey(1));

  // The increase-only invariant: non-positive bids never become operations.
  bid.args = {crdt::Value("a1"), crdt::Value(std::int64_t{-5})};
  EXPECT_FALSE(auction.Invoke(ctx, "Bid", bid).ok);
}

TEST(Contracts, SyntheticModifyAndRead) {
  contracts::SyntheticContract synthetic;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 5;
  in.clock = clk::OpClock{5, 1};
  in.args = {crdt::Value(std::int64_t{3}), crdt::Value(std::int64_t{2}),
             crdt::Value(std::string(contracts::kTypeGCounter))};
  const auto result = synthetic.Invoke(ctx, "Modify", in);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.ops.size(), 6u);  // ObjCount × OpsPerObjCount
  cache.Apply(result.ops);

  Invocation read;
  read.args = {crdt::Value(std::int64_t{3}),
               crdt::Value(std::string(contracts::kTypeGCounter))};
  const auto r = synthetic.Invoke(ctx, "Read", read);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, crdt::Value(std::int64_t{6}));
  EXPECT_EQ(r.objects_read, 3u);
}

TEST(Contracts, SupplyChainViolations) {
  contracts::SupplyChainContract supply;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 9;
  auto record = [&](std::uint64_t counter, const char* sensor, double temp) {
    in.clock = clk::OpClock{9, counter};
    in.args = {crdt::Value("ship1"), crdt::Value(std::string(sensor)),
               crdt::Value(temp), crdt::Value(8.0)};
    const auto result = supply.Invoke(ctx, "RecordReading", in);
    ASSERT_TRUE(result.ok) << result.error;
    cache.Apply(result.ops);
  };
  record(1, "s1", 5.0);
  record(2, "s1", 9.5);   // violation
  record(3, "s2", 11.0);  // violation

  Invocation read;
  read.args = {crdt::Value("ship1")};
  const auto violations = supply.Invoke(ctx, "GetViolations", read);
  ASSERT_TRUE(violations.ok);
  EXPECT_EQ(violations.value, crdt::Value(std::int64_t{2}));

  read.args = {crdt::Value("ship1"), crdt::Value(std::string("s1"))};
  const auto last = supply.Invoke(ctx, "GetLastReading", read);
  ASSERT_TRUE(last.ok);
  EXPECT_EQ(last.value, crdt::Value(9.5));
}

TEST(Contracts, FileStoreRegisterGetDelete) {
  contracts::FileStoreContract files;
  ledger::CrdtCache cache;
  CacheContext ctx(cache);

  Invocation in;
  in.client = 3;
  in.clock = clk::OpClock{3, 1};
  in.args = {crdt::Value("report.pdf"), crdt::Value("digest-abc")};
  cache.Apply(files.Invoke(ctx, "RegisterFile", in).ops);

  Invocation get;
  get.args = {crdt::Value("report.pdf")};
  EXPECT_EQ(files.Invoke(ctx, "GetFile", get).value,
            crdt::Value("digest-abc"));
  EXPECT_EQ(files.Invoke(ctx, "ListFiles", Invocation{}).value,
            crdt::Value(std::int64_t{1}));

  in.clock = clk::OpClock{3, 2};
  in.args = {crdt::Value("report.pdf")};
  cache.Apply(files.Invoke(ctx, "DeleteFile", in).ops);
  EXPECT_EQ(files.Invoke(ctx, "GetFile", get).value,
            crdt::Value(std::string()));
  EXPECT_EQ(files.Invoke(ctx, "ListFiles", Invocation{}).value,
            crdt::Value(std::int64_t{0}));
}

TEST(Registry, FindsRegisteredContracts) {
  ContractRegistry registry;
  registry.Register(std::make_shared<contracts::VotingContract>());
  registry.Register(std::make_shared<contracts::AuctionContract>());
  EXPECT_NE(registry.Find("voting"), nullptr);
  EXPECT_NE(registry.Find("auction"), nullptr);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_EQ(registry.size(), 2u);
}

}  // namespace
}  // namespace orderless::core
