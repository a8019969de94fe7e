#include "core/org.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "core/pipeline.h"
#include "core/validation_cache.h"
#include "crdt/object.h"
#include "obs/trace.h"

namespace orderless::core {

namespace {
const std::vector<Checkpoint::CoveredTx> kNoCovered;

bool CoveredBefore(const Checkpoint::CoveredTx& a,
                   const Checkpoint::CoveredTx& b) {
  return a.id.bytes < b.id.bytes;
}

/// A checkpoint's canonical bytes: the encoding its sealer attached, else a
/// fresh encode at exact size.
std::shared_ptr<const Bytes> EncodingOf(const Checkpoint& ckpt) {
  if (ckpt.encoding) return ckpt.encoding;
  codec::Writer w;
  w.Reserve(ckpt.EncodedSize());
  ckpt.Encode(w);
  return std::make_shared<const Bytes>(w.Take());
}

std::shared_ptr<const Bytes> EncodingOf(const AttestationSet& set) {
  codec::Writer w;
  set.Encode(w);
  return std::make_shared<const Bytes>(w.Take());
}
}  // namespace

/// Exposes the organization's cache to executing contracts.
class Organization::LedgerReadContext final : public ReadContext {
 public:
  explicit LedgerReadContext(const ledger::Ledger& ledger) : ledger_(ledger) {}
  crdt::ReadResult ReadObject(
      const std::string& object_id,
      const std::vector<std::string>& path) const override {
    return ledger_.Read(object_id, path);
  }

 private:
  const ledger::Ledger& ledger_;
};

Organization::Organization(sim::Simulation& simulation, sim::Network& network,
                           sim::NodeId node, crypto::PrivateKey key,
                           const crypto::Pki& pki,
                           const ContractRegistry& contracts,
                           EndorsementPolicy policy, OrgTimingConfig timing,
                           Rng rng, std::shared_ptr<ledger::KvStore> store)
    : simulation_(simulation),
      network_(network),
      node_(node),
      key_(key),
      pki_(pki),
      contracts_(contracts),
      policy_(policy),
      timing_(timing),
      rng_(rng),
      cpu_(simulation, timing.cores),
      cache_lock_(simulation, 1),
      ledger_(store ? std::move(store)
                    : std::make_shared<ledger::MemKvStore>(),
              timing.ledger_options) {}

void Organization::Start() {
  running_ = true;
  network_.Register(node_,
                    [this](const sim::Delivery& d) { OnDelivery(d); });
  // Random phase offset: organizations do not share a clock, so their
  // periodic gossip is naturally desynchronized. Start() runs on the
  // harness lane, so the first tick must explicitly target this org's
  // lane; once ticking, the timer chain reschedules from within the tick
  // and stays on it.
  const sim::ActorId actor = simulation_.ActorOf(node_);
  simulation_.ScheduleFor(actor, rng_.NextBelow(timing_.gossip_interval) + 1,
                          [this] { GossipTick(); });
  if (timing_.antientropy_interval > 0) {
    simulation_.ScheduleFor(
        actor,
        timing_.antientropy_interval +
            rng_.NextBelow(timing_.antientropy_interval),
        [this] { AntiEntropyTick(); });
  }
  // Gated behind `enabled` so checkpoint-off runs draw exactly the same rng
  // stream as before this subsystem existed (bit-identical replays).
  if (timing_.checkpoint.enabled && timing_.checkpoint.interval > 0) {
    simulation_.ScheduleFor(
        actor,
        timing_.checkpoint.interval +
            rng_.NextBelow(timing_.checkpoint.interval),
        [this] { CheckpointTick(); });
  }
}

void Organization::Stop() {
  running_ = false;
  network_.Unregister(node_);
  // Queued FinishCommit events become no-ops, so admission records would
  // leak and mark unrelated later transactions conflicting; a crash empties
  // the in-flight set either way.
  pipe_pending_.clear();
  pipe_object_refs_.clear();
}

bool Organization::RecoverFromLedger() {
  // Load the persisted checkpoints first: an own seal seeds the chain base
  // (the prefix behind it was pruned) and supplies the snapshot states the
  // op replay builds on — O(delta) recovery instead of O(history).
  std::shared_ptr<const Checkpoint> sealed;
  std::shared_ptr<const Checkpoint> installed;
  std::shared_ptr<const Checkpoint> attested;
  AttestationSet attested_set;
  AttestationSet installed_set;
  if (timing_.checkpoint.enabled) {
    if (const auto blob = ledger_.GetCheckpointBlob("sealed")) {
      codec::Reader r{BytesView(*blob)};
      sealed = Checkpoint::Decode(r);
    }
    if (const auto blob = ledger_.GetCheckpointBlob("installed")) {
      codec::Reader r{BytesView(*blob)};
      installed = Checkpoint::Decode(r);
    }
    // Quorum-attestation blobs: the promoted own seal, its attestation set,
    // and the evidence that admitted the installed checkpoint. These were
    // only ever persisted after a quorum check, so a decode suffices here —
    // the digest cross-checks below guard against torn/mismatched slots.
    if (timing_.checkpoint.attest) {
      if (const auto blob = ledger_.GetCheckpointBlob("attested")) {
        codec::Reader r{BytesView(*blob)};
        attested = Checkpoint::Decode(r);
      }
      if (const auto blob = ledger_.GetCheckpointBlob("attested_attest")) {
        codec::Reader r{BytesView(*blob)};
        AttestationSet set;
        if (AttestationSet::Decode(r, set) && attested != nullptr &&
            set.ckpt_digest == attested->digest) {
          attested_set = std::move(set);
        } else {
          attested = nullptr;  // evidence missing or torn: not promoted
        }
      } else {
        attested = nullptr;
      }
      if (const auto blob = ledger_.GetCheckpointBlob("installed_attest")) {
        codec::Reader r{BytesView(*blob)};
        AttestationSet set;
        if (AttestationSet::Decode(r, set) && installed != nullptr &&
            set.ckpt_digest == installed->digest) {
          installed_set = std::move(set);
        } else {
          installed = nullptr;
        }
      } else {
        installed = nullptr;  // with attestation on, no evidence = no install
      }
    }
  }
  ledger::Ledger::RecoveryBase base;
  if (sealed && sealed->origin == key_.id()) {
    base.chain_height = sealed->chain_height;
    base.chain_head = sealed->chain_head;
    base.object_states = &sealed->objects;
  } else {
    sealed = nullptr;  // never seed a chain base from someone else's seal
  }
  const bool consistent = ledger_.RecoverFromStore(base);
  catchup_stats_.recovered_records += ledger_.last_recovered_records();
  // The restored own seal is the coverage half of the commit index. The
  // window gets the replayed records it does not cover (a crash between
  // seal and prune leaves some it does), then the coverage adopted from the
  // other persisted checkpoints.
  commit_index_.clear();
  SetSealed(sealed);
  committed_count_ = 0;
  committed_xor_ = 0;
  ckpt_external_valid_ = 0;
  std::size_t records_covered = 0;
  for (const auto& rec : ledger_.RecoverCommitIndex()) {
    if (covered_.Find(rec.id) != nullptr) {
      ++records_covered;
      continue;
    }
    commit_index_[rec.id] = CommitRecord{rec.valid, rec.block_hash};
    if (rec.valid) {
      ++committed_count_;
      committed_xor_ ^= rec.id.Prefix64();
    }
  }
  if (sealed) {
    for (const Checkpoint::CoveredTx& tx : sealed->covered) {
      if (tx.valid) {
        ++committed_count_;
        committed_xor_ ^= tx.id.Prefix64();
      }
    }
    // Covered ids whose records were pruned come back as coverage.
    catchup_stats_.ckpt_txs_covered += sealed->covered.size() - records_covered;
    ckpt_seq_ = sealed->seq;
  }
  if (attested) {
    attested_ckpt_ = attested;
    attested_set_ = std::move(attested_set);
    AdoptCheckpointCoverage(*attested_ckpt_);  // idempotent vs the seal's
    // If the promoted seal is still the current one, rebuild the collected
    // signatures so a late attestation cannot re-promote it.
    if (sealed_ckpt_ && attested_ckpt_->digest == sealed_ckpt_->digest) {
      for (const CheckpointAttestation& a : attested_set_.attestations) {
        seal_attest_.emplace(a.attester, a.signature);
      }
    }
  }
  if (installed) {
    // The sealed checkpoint's object states went in as the recovery base;
    // the installed one's are merged here.
    for (const auto& [object_id, state] : installed->objects) {
      ledger_.MergeObjectState(object_id, BytesView(state));
    }
    AdoptCheckpointCoverage(*installed);
    installed_ckpt_ = installed;
    installed_set_ = std::move(installed_set);
  }
  // A crash between sealing and pruning can leave records below the frontier
  // that the base-seeded replay skipped but the scan above still indexed;
  // derive the external count exactly instead of trusting the adoption sum.
  ckpt_external_valid_ = committed_count_ - ledger_.committed_valid();
  commits_at_last_seal_ = committed_count_;
  // Storage was last pruned behind the seal, or with attestation behind the
  // promoted one.
  pruned_ckpt_ = timing_.checkpoint.attest ? attested_ckpt_ : sealed_ckpt_;
  // Reload committed bodies so gossip pulls and anti-entropy syncs keep
  // working for transactions committed before the crash. Behind a sealed
  // frontier the bodies were pruned, so this reloads exactly the delta.
  committed_txs_.clear();
  if (timing_.antientropy_interval > 0) {
    ledger_.ScanTransactionBodies([this](BytesView encoded) {
      codec::Reader r(encoded);
      auto tx = Transaction::Decode(r);
      if (tx && FindCommit(tx->id)) {
        committed_txs_.push_back(std::move(tx));
      }
    });
  }
  return consistent;
}

void Organization::SetPeers(std::vector<sim::NodeId> peer_nodes,
                            std::set<crypto::KeyId> org_keys) {
  peers_ = std::move(peer_nodes);
  peers_.erase(std::remove(peers_.begin(), peers_.end(), node_), peers_.end());
  org_keys_ = std::move(org_keys);
}

void Organization::OnDelivery(const sim::Delivery& delivery) {
  if (!running_) return;           // crashed
  if (delivery.corrupted) return;  // undecodable on the wire
  if (const auto* proposal =
          dynamic_cast<const ProposalMsg*>(delivery.message.get())) {
    // Aliasing share of the delivered message: the handler (and the deferred
    // execution it schedules) borrows the proposal instead of copying it.
    HandleProposal(delivery.from,
                   std::shared_ptr<const ProposalMsg>(delivery.message,
                                                      proposal));
    return;
  }
  if (const auto* commit =
          dynamic_cast<const CommitMsg*>(delivery.message.get())) {
    HandleCommit(delivery.from, commit->tx, /*from_gossip=*/false);
    return;
  }
  if (const auto* gossip =
          dynamic_cast<const GossipMsg*>(delivery.message.get())) {
    catchup_stats_.sync_txs_received += gossip->txs.size();
    for (const auto& tx : gossip->txs) {
      HandleCommit(delivery.from, tx, /*from_gossip=*/true);
    }
    return;
  }
  if (const auto* advert =
          dynamic_cast<const GossipAdvertMsg*>(delivery.message.get())) {
    // Gossip is the first work class shed under overload: skipping the pull
    // is safe because the advertiser keeps re-advertising and anti-entropy
    // repairs whatever the advert window misses.
    if (timing_.overload.enabled &&
        cpu_.Backlog() > timing_.overload.max_backlog_gossip) {
      ++phase_stats_.shed_gossip;
      return;
    }
    // Pull whatever we neither committed nor already have a pull in flight
    // for; the pending-pull retry loop in GossipTick() repairs losses.
    auto pull = std::make_shared<GossipPullMsg>();
    for (const crypto::Digest& id : advert->ids) {
      if (FindCommit(id) || in_flight_.contains(id)) continue;
      if (pending_pulls_.contains(id)) continue;
      pending_pulls_[id] = PendingPull{delivery.from, 0, 0};
      pull->ids.push_back(id);
    }
    if (!pull->ids.empty()) {
      network_.Send(node_, delivery.from, pull);
    }
    return;
  }
  if (const auto* pull =
          dynamic_cast<const GossipPullMsg*>(delivery.message.get())) {
    if (byzantine_.active && byzantine_.suppress_gossip) return;
    auto msg = std::make_shared<GossipMsg>();
    for (const crypto::Digest& id : pull->ids) {
      const auto it = recent_txs_.find(id);
      if (it != recent_txs_.end()) msg->txs.push_back(it->second.first);
    }
    if (!msg->txs.empty()) {
      if (obs::Tracer* t = simulation_.tracer()) {
        for (const auto& tx : msg->txs) {
          t->Instant(obs::EventKind::kGossipSend, simulation_.now(), node_,
                     tx->id.Prefix64(), delivery.from);
        }
      }
      network_.Send(node_, delivery.from, msg);
    }
    return;
  }
  if (const auto* summary =
          dynamic_cast<const SummaryMsg*>(delivery.message.get())) {
    if (timing_.antientropy_interval > 0 &&
        (summary->tx_count != committed_count_ ||
         summary->tx_xor != committed_xor_)) {
      auto req = std::make_shared<SyncRequestMsg>();
      req->have_ckpt = BestCheckpointDigest();
      network_.Send(node_, delivery.from, req);
    }
    return;
  }
  if (const auto* sync_req =
          dynamic_cast<const SyncRequestMsg*>(delivery.message.get())) {
    if (byzantine_.active && byzantine_.suppress_gossip) return;
    // With a sealed checkpoint, the reply is snapshot + delta: the covered
    // prefix travels as one verified state merge and only the transactions
    // committed after the frontier go as full bodies (`committed_txs_` is
    // cleared at each seal — or, with attestation, of the covered prefix at
    // each promotion — so it *is* the delta). Without one, the legacy
    // full-set push. Under attestation only *promoted* checkpoints ship:
    // an unattested seal is 1-of-n trust the receiver would reject anyway.
    std::shared_ptr<const Checkpoint> ship;
    AttestationSet ship_set;
    if (timing_.checkpoint.enabled && !timing_.checkpoint.attest) {
      ship = sealed_ckpt_;
    } else if (timing_.checkpoint.enabled) {
      if (byzantine_.active && byzantine_.forge_checkpoint &&
          sealed_ckpt_ != nullptr) {
        // The strongest forgery available: tampered content validly signed
        // under its own key, padded with fabricated peer attestations. The
        // quorum check at the installer must count exactly one valid vote.
        ship = MakeForgedCheckpoint(
            byzantine_.equivocate_checkpoint ? delivery.from : 0);
        ship_set.ckpt_digest = ship->digest;
        for (crypto::KeyId id : org_keys_) {
          ship_set.attestations.push_back(CheckpointAttestation{
              id, id == key_.id()
                      ? key_.Sign(kCheckpointAttestContext, ship->digest)
                      : crypto::Signature{}});
        }
      } else if (byzantine_.active && byzantine_.replay_stale_checkpoint &&
                 stale_ckpt_ != nullptr) {
        // Stale replay: a validly attested but outdated snapshot. Installs
        // stay safe (CRDT merge is monotone) — the attack wastes bytes.
        ship = stale_ckpt_;
        ship_set = stale_set_;
      } else {
        ship = attested_ckpt_;
        ship_set = attested_set_;
        if (installed_ckpt_ != nullptr &&
            (ship == nullptr ||
             installed_ckpt_->valid_count > ship->valid_count ||
             (installed_ckpt_->valid_count == ship->valid_count &&
              installed_ckpt_->digest.bytes > ship->digest.bytes))) {
          ship = installed_ckpt_;
          ship_set = installed_set_;
        }
      }
    }
    if (ship != nullptr && ship->digest != sync_req->have_ckpt) {
      auto ckpt_msg = std::make_shared<CheckpointMsg>();
      ckpt_msg->ckpt = ship;
      ckpt_msg->attestations = std::move(ship_set);
      ++catchup_stats_.ckpt_sent;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Instant(obs::EventKind::kCkptSend, simulation_.now(), node_,
                   ship->digest.Prefix64(), delivery.from);
      }
      network_.Send(node_, delivery.from, ckpt_msg);
    }
    if (byzantine_.active && byzantine_.corrupt_delta) {
      return;  // snapshot shipped, delta withheld: the requester must heal
               // through other peers (anti-entropy keeps retrying)
    }
    if (!committed_txs_.empty()) {
      auto msg = std::make_shared<GossipMsg>();
      msg->txs = committed_txs_;
      catchup_stats_.sync_txs_sent += msg->txs.size();
      if (obs::Tracer* t = simulation_.tracer()) {
        for (const auto& tx : msg->txs) {
          t->Instant(obs::EventKind::kGossipSend, simulation_.now(), node_,
                     tx->id.Prefix64(), delivery.from);
        }
      }
      network_.Send(node_, delivery.from, msg);
    }
    return;
  }
  if (const auto* ckpt_msg =
          dynamic_cast<const CheckpointMsg*>(delivery.message.get())) {
    if (!timing_.checkpoint.enabled || ckpt_msg->ckpt == nullptr) return;
    const auto ckpt = ckpt_msg->ckpt;
    // Already holding it (or our own seal): nothing to merge.
    if ((sealed_ckpt_ && sealed_ckpt_->digest == ckpt->digest) ||
        (installed_ckpt_ && installed_ckpt_->digest == ckpt->digest)) {
      return;
    }
    auto evidence = std::make_shared<AttestationSet>(ckpt_msg->attestations);
    const sim::SimTime verify_service =
        timing_.checkpoint.install_base +
        timing_.checkpoint.install_per_object *
            static_cast<sim::SimTime>(ckpt->objects.size()) +
        (timing_.checkpoint.attest
             ? timing_.checkpoint.attest_accept *
                   static_cast<sim::SimTime>(evidence->attestations.size())
             : 0);
    cpu_.Submit(verify_service, [this, ckpt, evidence] {
      if (!running_) return;
      // The install gate. With attestation on, a valid seal is not enough:
      // the digest needs q valid attestations from distinct organization
      // keys, so a forgery backed by at most f = n − q Byzantine votes can
      // never get past here.
      bool admissible = ckpt->Verify(pki_, org_keys_);
      if (admissible && timing_.checkpoint.attest) {
        admissible = evidence->ckpt_digest == ckpt->digest &&
                     evidence->HasQuorum(pki_, org_keys_, policy_.q);
      }
      if (!admissible) {
        ++catchup_stats_.ckpt_rejected;
        if (obs::Tracer* t = simulation_.tracer()) {
          t->Instant(obs::EventKind::kCkptReject, simulation_.now(), node_,
                     ckpt->digest.Prefix64(), 1);
        }
        return;
      }
      const sim::SimTime merge_service =
          timing_.cache_apply_base +
          timing_.cache_apply_per_op *
              static_cast<sim::SimTime>(ckpt->objects.size());
      cache_lock_.Submit(merge_service, [this, ckpt, evidence] {
        if (!running_) return;
        InstallCheckpoint(ckpt, std::move(*evidence));
      });
    });
    return;
  }
  if (const auto* announce =
          dynamic_cast<const CheckpointAnnounceMsg*>(delivery.message.get())) {
    if (!timing_.checkpoint.enabled || !timing_.checkpoint.attest ||
        announce->ckpt == nullptr) {
      return;
    }
    HandleCheckpointAnnounce(delivery.from, announce->ckpt);
    return;
  }
  if (const auto* attest_msg =
          dynamic_cast<const CheckpointAttestMsg*>(delivery.message.get())) {
    if (!timing_.checkpoint.enabled || !timing_.checkpoint.attest) return;
    HandleCheckpointAttest(*attest_msg);
    return;
  }
}

void Organization::SendBusy(sim::NodeId to, const crypto::Digest& ref,
                            bool endorse_phase) {
  auto busy = std::make_shared<BusyMsg>();
  busy->ref = ref;
  busy->endorse_phase = endorse_phase;
  busy->retry_after =
      std::min(cpu_.Backlog(), timing_.overload.max_retry_after);
  ++phase_stats_.busy_sent;
  network_.Send(node_, to, busy);
}

void Organization::HandleProposal(sim::NodeId from,
                                  std::shared_ptr<const ProposalMsg> msg) {
  if (byzantine_.active && rng_.NextBool(byzantine_.ignore_proposal_prob)) {
    return;  // Byzantine: silently drop
  }
  const sim::SimTime arrival = simulation_.now();
  const Proposal& proposal = msg->proposal;
  const sim::SimTime deadline = msg->deadline;

  // Estimate service before executing: base plus argument-proportional work.
  const sim::SimTime exec_service =
      proposal.read_only
          ? timing_.read_base
          : timing_.endorse_base +
                timing_.endorse_per_op * proposal.args.size() / 4;

  if (timing_.overload.enabled) {
    if (timing_.overload.shed_past_deadline && deadline > 0 &&
        arrival + cpu_.NextStartDelay() + exec_service > deadline) {
      // By the time a core frees up and executes this, the client's
      // endorsement timer will have fired: shed instead of burning CPU on a
      // reply nobody is waiting for.
      ++phase_stats_.shed_deadline;
      return;
    }
    if (cpu_.Backlog() > timing_.overload.max_backlog_endorse) {
      ++phase_stats_.shed_endorse;
      SendBusy(from, proposal.Digest(), /*endorse_phase=*/true);
      return;
    }
  }

  // The 16-byte shared_ptr capture fits the closure's inline buffer and
  // borrows the delivered message — no Proposal deep copies. The sender
  // warms the proposal's digest cache before the send, so even a message
  // fanned out to several organizations is only ever read here.
  cpu_.Submit(exec_service,
              sim::TriviallyRelocatable{[this, from, msg, arrival] {
                ExecuteProposal(from, msg->proposal, arrival);
              }});
}

void Organization::ExecuteProposal(sim::NodeId from, const Proposal& proposal,
                                   sim::SimTime arrival) {
  if (!running_) return;
  auto reply = std::make_shared<EndorseReplyMsg>();
  reply->proposal_digest = proposal.Digest();

  const SmartContract* contract = contracts_.Find(proposal.contract);
  if (contract == nullptr) {
    reply->ok = false;
    reply->error = "unknown contract: " + proposal.contract;
    network_.Send(node_, from, reply);
    return;
  }
  Invocation in;
  in.client = proposal.client;
  in.clock = proposal.clock;
  in.args = proposal.args;
  LedgerReadContext state(ledger_);
  ContractResult result = contract->Invoke(state, proposal.function, in);
  if (!result.ok) {
    reply->ok = false;
    reply->error = result.error;
    network_.Send(node_, from, reply);
    return;
  }

  if (proposal.read_only) {
    // Reads go through the cache's lock as well (read-your-writes path).
    const sim::SimTime lock_service =
        timing_.cache_read_base +
        timing_.cache_read_per_object *
            std::max<std::uint32_t>(1, result.objects_read);
    auto value = std::make_shared<crdt::Value>(std::move(result.value));
    cache_lock_.Submit(lock_service, sim::TriviallyRelocatable{[this, from,
                                                               reply, value,
                                                               arrival] {
      reply->ok = true;
      reply->read_value = *value;
      phase_stats_.endorse_count++;
      phase_stats_.endorse_time_us += simulation_.now() - arrival;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Span(obs::EventKind::kEndorseExec, arrival, simulation_.now(),
                node_, reply->proposal_digest.Prefix64());
      }
      network_.Send(node_, from, reply);
    }});
    return;
  }

  std::vector<crdt::Operation> ops = std::move(result.ops);
  if (byzantine_.active && rng_.NextBool(byzantine_.wrong_endorse_prob) &&
      !ops.empty()) {
    // Byzantine: execute the contract incorrectly — the write-set will not
    // match honest endorsements and the client cannot assemble a valid tx.
    if (ops[0].value.IsInt()) {
      ops[0].value = crdt::Value(ops[0].value.AsInt() + 987654321);
    } else {
      ops[0].value = crdt::Value(std::string("byzantine-garbage"));
    }
  }
  const crypto::Digest ws_digest = WriteSetDigest(ops);
  reply->ok = true;
  reply->ops = std::move(ops);
  reply->endorsement.org = key_.id();
  reply->endorsement.signature = key_.Sign(
      kEndorseContext, EndorsementMessage(reply->proposal_digest, ws_digest));
  phase_stats_.endorse_count++;
  phase_stats_.endorse_time_us += simulation_.now() - arrival;
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Span(obs::EventKind::kEndorseExec, arrival, simulation_.now(), node_,
            reply->proposal_digest.Prefix64());
  }
  network_.Send(node_, from, reply);
}

void Organization::PipeAdmit(const std::shared_ptr<const Transaction>& tx) {
  // One admission record per id: re-sent or gossiped copies of an id
  // already committed, or already in flight, change nothing (the dedup
  // stage answers them from the indexes).
  if (FindCommit(tx->id)) return;
  if (pipe_pending_.find(tx->id) != pipe_pending_.end()) return;
  std::vector<std::uint64_t> objects;
  objects.reserve(tx->ops.size());
  bool independent = true;
  for (const auto& op : tx->ops) {
    // FNV-1a 64 of the object id; collisions only ever demote an
    // independent pair to conflicting (conservative).
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : op.object_id) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    if (pipe_object_refs_.find(h) != pipe_object_refs_.end()) {
      independent = false;
    }
    objects.push_back(h);
  }
  for (const std::uint64_t h : objects) ++pipe_object_refs_[h];
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kPipeAdmit, simulation_.now(), node_,
               tx->id.Prefix64(), independent ? 1 : 0);
  }
  pipe_pending_.emplace(tx->id, std::move(objects));
  // Only independent commits are eligible for out-of-order host
  // verification; conflicting ones stay on this lane in canonical event
  // order. The hub only exists in parallel runs.
  if (independent && timing_.commit_pipeline) {
    timing_.commit_pipeline->Publish(tx);
  }
}

void Organization::PipeFinish(const crypto::Digest& id) {
  const auto it = pipe_pending_.find(id);
  if (it == pipe_pending_.end()) return;
  for (const std::uint64_t h : it->second) {
    const auto ref = pipe_object_refs_.find(h);
    if (ref != pipe_object_refs_.end() && --ref->second == 0) {
      pipe_object_refs_.erase(ref);
    }
  }
  pipe_pending_.erase(it);
}

void Organization::HandleCommit(sim::NodeId from,
                                std::shared_ptr<const Transaction> tx,
                                bool from_gossip) {
  if (byzantine_.active && rng_.NextBool(byzantine_.ignore_commit_prob)) {
    return;
  }
  if (from_gossip) {
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kGossipRecv, simulation_.now(), node_,
                 tx->id.Prefix64(), from);
    }
  }
  // The transaction body arrived, so any pull for it is satisfied (even if
  // this copy ends up shed below, a later advert can restart the pull).
  pending_pulls_.erase(tx->id);
  if (timing_.overload.enabled) {
    // Commit validation has the highest admission priority — the cluster
    // already paid endorsement CPU for this transaction — but it is still
    // bounded. Gossip copies are shed at the (much lower) gossip ceiling.
    const sim::SimTime backlog = cpu_.Backlog();
    if (from_gossip) {
      if (backlog > timing_.overload.max_backlog_gossip) {
        ++phase_stats_.shed_gossip;
        return;
      }
    } else if (backlog > timing_.overload.max_backlog_commit) {
      ++phase_stats_.shed_commit;
      SendBusy(from, tx->id, /*endorse_phase=*/false);
      return;
    }
  }
  const sim::SimTime arrival = simulation_.now();
  PipeAdmit(tx);

  // TriviallyRelocatable: scalar + shared_ptr captures relocate by raw byte
  // copy inside the event queue's slab (see sim::SmallFn).
  cpu_.Submit(timing_.dedup_check, sim::TriviallyRelocatable{[this, from, tx,
                                                             from_gossip,
                                                             arrival] {
    if (!running_) return;
    // Already committed: do not commit again; resend the receipt (paper §4).
    if (const auto done = FindCommit(tx->id)) {
      // A checkpoint install covered the id between admission and this
      // dedup check — the admission record will never reach FinishCommit.
      PipeFinish(tx->id);
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Span(obs::EventKind::kPipeDedup,
                simulation_.now() - timing_.dedup_check, simulation_.now(),
                node_, tx->id.Prefix64(), 1);
      }
      if (!from_gossip) {
        auto reply = std::make_shared<CommitReplyMsg>();
        reply->receipt =
            Receipt::Make(tx->id, done->valid, done->block_hash, key_);
        network_.Send(node_, from, reply);
      }
      return;
    }
    // Already being processed: just remember who else wants the receipt.
    const auto inflight = in_flight_.find(tx->id);
    if (inflight != in_flight_.end()) {
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Span(obs::EventKind::kPipeDedup,
                simulation_.now() - timing_.dedup_check, simulation_.now(),
                node_, tx->id.Prefix64(), 2);
      }
      if (!from_gossip) inflight->second.push_back(from);
      return;
    }
    in_flight_.emplace(tx->id, std::vector<sim::NodeId>{});
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Span(obs::EventKind::kPipeDedup,
              simulation_.now() - timing_.dedup_check, simulation_.now(),
              node_, tx->id.Prefix64(), 0);
    }

    const sim::SimTime validate_service =
        timing_.commit_base +
        timing_.commit_per_sig *
            static_cast<sim::SimTime>(tx->endorsements.size() + 1);
    cpu_.Submit(validate_service,
                sim::TriviallyRelocatable{[this, from, tx, from_gossip,
                                          arrival, validate_service] {
      if (!running_) return;
      // The simulated validate_service above is charged regardless; the memo
      // only skips the host-side hashing when another organization already
      // verified byte-identical content (see validation_cache.h).
      TxVerdict verdict;
      ValidationMemo* memo = timing_.validation_memo.get();
      const auto cached = memo ? memo->LookupFor(node_, tx) : std::nullopt;
      if (cached) {
        verdict = *cached;
      } else {
        // Pipeline hub: an idle worker (or an earlier org lane) may already
        // have verified this exact body — reuse its verdict instead of
        // redoing the signature work. The memo store below is unchanged, so
        // memo contents (and everything simulated) are bit-identical with
        // or without the hub.
        std::optional<TxVerdict> hub;
        if (timing_.commit_pipeline) hub = timing_.commit_pipeline->Resolve(tx);
        verdict = hub ? *hub
                      : ValidateTransaction(*tx, pki_, org_keys_, policy_);
        if (memo) memo->StoreFor(node_, tx, verdict);
      }
      if (obs::Tracer* t = simulation_.tracer()) {
        // The span covers the charged service slice (the queue wait ahead of
        // it belongs to the dedup/admission stage, not validation).
        t->Span(obs::EventKind::kValidate,
                simulation_.now() - validate_service, simulation_.now(),
                node_, tx->id.Prefix64(), verdict == TxVerdict::kValid);
      }
      if (verdict == TxVerdict::kValid) {
        const sim::SimTime apply_service =
            timing_.cache_apply_base +
            timing_.cache_apply_per_op *
                static_cast<sim::SimTime>(tx->ops.size());
        cache_lock_.Submit(
            apply_service,
            sim::TriviallyRelocatable{[this, from, tx, from_gossip, arrival,
                                       apply_service] {
              if (!running_) return;
              if (obs::Tracer* t = simulation_.tracer()) {
                // aux tags the touched object (32-bit FNV-1a of the first
                // op's object id, 0 for op-less txs) so the report's
                // convergence heat table can pivot lag by org x object.
                // Tracer-gated: the untraced hot path never hashes.
                std::uint64_t object_tag = 0;
                if (!tx->ops.empty()) {
                  std::uint32_t h = 2166136261u;
                  for (const char c : tx->ops.front().object_id) {
                    h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
                  }
                  object_tag = h;
                }
                t->Span(obs::EventKind::kCrdtApply,
                        simulation_.now() - apply_service, simulation_.now(),
                        node_, tx->id.Prefix64(), object_tag);
              }
              FinishCommit(from, tx, from_gossip, TxVerdict::kValid, arrival);
            }});
      } else {
        FinishCommit(from, tx, from_gossip, verdict, arrival);
      }
    }});
  }});
}

void Organization::FinishCommit(sim::NodeId from,
                                std::shared_ptr<const Transaction> tx,
                                bool from_gossip, TxVerdict verdict,
                                sim::SimTime arrival) {
  // Validation is decided; later admissions touching these objects are
  // independent of this transaction again.
  PipeFinish(tx->id);
  // A checkpoint install can cover a transaction while it is in the
  // validate/commit pipeline; committing it again would double-append the
  // block and double-count it. Serve the receipt from the adopted record.
  if (const auto done = FindCommit(tx->id)) {
    std::vector<sim::NodeId> recipients;
    if (!from_gossip) recipients.push_back(from);
    if (const auto inflight = in_flight_.find(tx->id);
        inflight != in_flight_.end()) {
      for (sim::NodeId extra : inflight->second) recipients.push_back(extra);
      in_flight_.erase(inflight);
    }
    for (sim::NodeId recipient : recipients) {
      auto reply = std::make_shared<CommitReplyMsg>();
      reply->receipt =
          Receipt::Make(tx->id, done->valid, done->block_hash, key_);
      network_.Send(node_, recipient, reply);
    }
    return;
  }
  const bool valid = verdict == TxVerdict::kValid;
  // A static empty vector keeps both ternary branches lvalues: the old
  // prvalue form deep-copied tx->ops (every string in every operation) on
  // every valid commit just to pass a const reference.
  static const std::vector<crdt::Operation> kNoOps;
  const ledger::Block& block =
      ledger_.Commit(tx->id, valid, valid ? tx->ops : kNoOps);
  commit_index_[tx->id] = CommitRecord{valid, block.hash};
  if (!valid) ++rejected_;

  phase_stats_.commit_count++;
  phase_stats_.commit_time_us += simulation_.now() - arrival;

  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kLedgerAppend, simulation_.now(), node_,
               tx->id.Prefix64(), valid);
    if (valid) {
      t->CommitApplied(simulation_.now(), node_, tx->id.Prefix64());
    }
  }

  std::vector<sim::NodeId> recipients;
  if (!from_gossip) recipients.push_back(from);
  const auto inflight = in_flight_.find(tx->id);
  if (inflight != in_flight_.end()) {
    for (sim::NodeId extra : inflight->second) recipients.push_back(extra);
    in_flight_.erase(inflight);
  }
  for (sim::NodeId recipient : recipients) {
    auto reply = std::make_shared<CommitReplyMsg>();
    reply->receipt = Receipt::Make(tx->id, valid, block.hash, key_);
    network_.Send(node_, recipient, reply);
  }

  if (valid) {
    advert_queue_.emplace_back(tx->id, timing_.gossip_rounds);
    // Keep the transaction around long enough to serve pulls triggered by
    // the last advert round (one extra round-trip of slack).
    const std::uint64_t expire_at = gossip_tick_ + timing_.gossip_rounds + 4;
    recent_txs_[tx->id] = {tx, expire_at};
    recent_expiry_.emplace_back(expire_at, tx->id);
    if (timing_.antientropy_interval > 0) {
      committed_txs_.push_back(tx);
      ++committed_count_;
      committed_xor_ ^= tx->id.Prefix64();
      // Persist the body so a restart can keep serving syncs for it. The
      // store adopts the sealed canonical encoding the transaction already
      // carries, so the n organizations committing the same gossiped tx
      // serialize it once between them and copy it not at all.
      ledger_.PutTransactionBodyRef(tx->id, tx->SharedEncoding());
    }
  }
  if (commit_observer_) commit_observer_(*tx, verdict);
}

void Organization::GossipTick() {
  if (!running_) return;  // crashed: let the timer chain die
  const bool suppressed = byzantine_.active && byzantine_.suppress_gossip;
  if (!advert_queue_.empty() && !peers_.empty() && !suppressed) {
    auto msg = std::make_shared<GossipAdvertMsg>();
    msg->ids.reserve(advert_queue_.size());
    for (const auto& [id, rounds] : advert_queue_) {
      (void)rounds;
      msg->ids.push_back(id);
    }
    const std::uint32_t fanout = std::min<std::uint32_t>(
        timing_.gossip_fanout, static_cast<std::uint32_t>(peers_.size()));
    for (std::size_t idx : rng_.SampleDistinct(peers_.size(), fanout)) {
      network_.Send(node_, peers_[idx], msg);
    }
  }
  // Entries age out whether or not they were actually advertised (a
  // Byzantine organization silently withholds forwarding).
  for (auto& [id, rounds] : advert_queue_) {
    (void)id;
    --rounds;
  }
  std::erase_if(advert_queue_,
                [](const auto& entry) { return entry.second == 0; });
  // Expire the pull-serving buffer: the FIFO is in expiry order, so only
  // the entries lapsing this tick are touched (a refreshed entry's stale
  // FIFO record is skipped via the expiry recorded in the map).
  ++gossip_tick_;
  while (!recent_expiry_.empty() &&
         recent_expiry_.front().first <= gossip_tick_) {
    const crypto::Digest id = recent_expiry_.front().second;
    recent_expiry_.pop_front();
    const auto it = recent_txs_.find(id);
    if (it != recent_txs_.end() && it->second.second <= gossip_tick_) {
      recent_txs_.erase(it);
    }
  }
  // Pending-pull repair: a pull (or its reply) that got dropped leaves the
  // id waiting here; after `pull_retry_ticks` quiet ticks re-ask the
  // advertiser, then expire so a fresh advert can restart the cycle.
  if (timing_.pull_retry_ticks > 0) {
    std::unordered_map<sim::NodeId, std::shared_ptr<GossipPullMsg>> retries;
    for (auto it = pending_pulls_.begin(); it != pending_pulls_.end();) {
      PendingPull& pending = it->second;
      if (++pending.ticks_waiting < timing_.pull_retry_ticks) {
        ++it;
        continue;
      }
      if (pending.retries >= timing_.pull_retry_limit) {
        it = pending_pulls_.erase(it);
        continue;
      }
      pending.ticks_waiting = 0;
      ++pending.retries;
      auto& msg = retries[pending.advertiser];
      if (!msg) msg = std::make_shared<GossipPullMsg>();
      msg->ids.push_back(it->first);
      ++it;
    }
    for (auto& [advertiser, msg] : retries) {
      network_.Send(node_, advertiser, msg);
    }
  }
  simulation_.Schedule(timing_.gossip_interval, [this] { GossipTick(); });
}

void Organization::AntiEntropyTick() {
  if (!running_) return;  // crashed: let the timer chain die
  if (!peers_.empty() && !(byzantine_.active && byzantine_.suppress_gossip)) {
    auto msg = std::make_shared<SummaryMsg>();
    msg->tx_count = committed_count_;
    msg->tx_xor = committed_xor_;
    const std::size_t peer = rng_.NextBelow(peers_.size());
    network_.Send(node_, peers_[peer], msg);
  }
  simulation_.Schedule(timing_.antientropy_interval,
                       [this] { AntiEntropyTick(); });
}

void Organization::CheckpointTick() {
  if (!running_) return;  // crashed: let the timer chain die
  // Re-announce an unpromoted seal: announces or attestation replies lost
  // to the network (or a quorum unreachable across a partition) are retried
  // every tick until the quorum forms or a newer seal supersedes it.
  if (timing_.checkpoint.attest && sealed_ckpt_ != nullptr &&
      !seal_in_flight_ &&
      (attested_ckpt_ == nullptr ||
       attested_ckpt_->digest != sealed_ckpt_->digest)) {
    AnnounceCheckpoint();
  }
  const bool worthwhile =
      committed_count_ - commits_at_last_seal_ >=
      timing_.checkpoint.min_new_commits;
  if (worthwhile && !seal_in_flight_) {
    seal_in_flight_ = true;
    // Sealing reads the whole cache, so it runs behind the cache lock like
    // any other state access; the service charge models the snapshot encode
    // and signature.
    const sim::SimTime service =
        timing_.checkpoint.seal_base +
        timing_.checkpoint.seal_per_tx *
            static_cast<sim::SimTime>(commit_index_size());
    cache_lock_.Submit(service, [this] {
      if (!running_) return;
      seal_in_flight_ = false;
      SealCheckpoint();
    });
  }
  simulation_.Schedule(timing_.checkpoint.interval, [this] {
    CheckpointTick();
  });
}

void Organization::SealCheckpoint() {
  auto ckpt = std::make_shared<Checkpoint>();
  ckpt->seq = ++ckpt_seq_;
  ckpt->origin = key_.id();
  ckpt->chain_height = ledger_.log().total_appended();
  ckpt->chain_head = ledger_.log().LastHash();
  ckpt->valid_count = committed_count_;
  ckpt->valid_xor = committed_xor_;
  // The previous seal covers the commit index as it stood then and the
  // window holds every entry since, so merging the sorted window into it
  // yields the index sorted by id (canonical for the digest) without
  // re-sorting the history. A first seal merges into nothing.
  std::vector<Checkpoint::CoveredTx> window;
  window.reserve(commit_index_.size());
  for (const auto& [id, record] : commit_index_) {
    window.push_back(Checkpoint::CoveredTx{id, record.valid});
  }
  std::sort(window.begin(), window.end(), CoveredBefore);
  const auto& before = sealed_ckpt_ ? sealed_ckpt_->covered : kNoCovered;
  ckpt->covered.reserve(before.size() + window.size());
  std::merge(before.begin(), before.end(), window.begin(), window.end(),
             std::back_inserter(ckpt->covered), CoveredBefore);
  ckpt->objects = ledger_.cache().SnapshotStates();
  ckpt->Seal(key_);
  // Encoded once, here, before the checkpoint leaves this lane: the ledger
  // and every installer persist these bytes by reference.
  ckpt->encoding = EncodingOf(*ckpt);
  ledger_.PutCheckpointBlob("sealed", ckpt->encoding);
  // The new seal covers the whole window: the window starts over empty.
  SetSealed(ckpt);
  commit_index_.clear();
  commits_at_last_seal_ = committed_count_;
  ++catchup_stats_.ckpt_sealed;

  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kCkptSeal, simulation_.now(), node_,
               ckpt->digest.Prefix64(), ckpt->covered.size());
  }

  if (timing_.checkpoint.attest) {
    // Delta trimming and pruning are deferred to the quorum (see
    // PromoteAttestedCheckpoint): until then sync replies must keep the
    // full history available, because peers reject unattested snapshots.
    seal_attest_.clear();
    seal_attest_.emplace(
        key_.id(), key_.Sign(kCheckpointAttestContext, ckpt->digest));
    if (seal_attest_.size() >= policy_.q) {
      PromoteAttestedCheckpoint();  // degenerate q = 1: self-quorum
    } else {
      AnnounceCheckpoint();
    }
    return;
  }

  // From here on, `committed_txs_` accumulates the delta after this frontier
  // (what a sync reply ships alongside the checkpoint).
  committed_txs_.clear();

  if (timing_.checkpoint.prune) PruneBehind(ckpt);
}

std::optional<Organization::CommitRecord> Organization::FindCommit(
    const crypto::Digest& id) const {
  if (const auto it = commit_index_.find(id); it != commit_index_.end()) {
    return it->second;
  }
  if (const Checkpoint::CoveredTx* covered = covered_.Find(id)) {
    return CommitRecord{covered->valid, crypto::Digest{}};
  }
  return std::nullopt;
}

void Organization::SetSealed(std::shared_ptr<const Checkpoint> ckpt) {
  sealed_ckpt_ = std::move(ckpt);
  covered_.Build(sealed_ckpt_ ? &sealed_ckpt_->covered : nullptr);
}

void Organization::PruneBehind(std::shared_ptr<const Checkpoint> ckpt) {
  // A covered id is never committed (so never persisted) again, so the body
  // rows behind the previous pruned frontier are gone for good: hand the
  // ledger only the ids this frontier adds. Both lists are own seals, sorted
  // by id.
  const auto& before = pruned_ckpt_ ? pruned_ckpt_->covered : kNoCovered;
  std::vector<crypto::Digest> fresh;
  auto prev = before.begin();
  for (const Checkpoint::CoveredTx& tx : ckpt->covered) {
    while (prev != before.end() && CoveredBefore(*prev, tx)) ++prev;
    if (prev != before.end() && prev->id == tx.id) continue;
    fresh.push_back(tx.id);
  }
  const std::size_t pruned = ledger_.PruneBehindCheckpoint(
      ckpt->chain_height, ckpt->chain_head, fresh);
  catchup_stats_.pruned_records += pruned;
  ledger_.store().CompactRange();
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kCkptPrune, simulation_.now(), node_,
               ckpt->digest.Prefix64(), pruned);
  }
  pruned_ckpt_ = std::move(ckpt);
}

std::size_t Organization::AdoptCheckpointCoverage(const Checkpoint& ckpt) {
  // Ids the own last seal covers are already indexed there; the rest go
  // into the window unless it holds them. Any order and duplicates are fine.
  std::size_t adopted_valid = 0;
  for (const Checkpoint::CoveredTx& covered : ckpt.covered) {
    if (covered_.Find(covered.id) != nullptr) continue;
    const auto [it, inserted] = commit_index_.emplace(
        covered.id, CommitRecord{covered.valid, crypto::Digest{}});
    if (!inserted) continue;
    ++catchup_stats_.ckpt_txs_covered;
    pending_pulls_.erase(covered.id);
    if (covered.valid) {
      ++adopted_valid;
      ++committed_count_;
      committed_xor_ ^= covered.id.Prefix64();
    }
  }
  return adopted_valid;
}

void Organization::InstallCheckpoint(std::shared_ptr<const Checkpoint> ckpt,
                                     AttestationSet attestations) {
  for (const auto& [object_id, state] : ckpt->objects) {
    ledger_.MergeObjectState(object_id, BytesView(state));
  }
  ckpt_external_valid_ += AdoptCheckpointCoverage(*ckpt);
  ++catchup_stats_.ckpt_installed;
  // A quorum-attested install gives the covered prefix snapshot transport,
  // exactly like a promotion of our own seal: drop those bodies from the
  // delta buffer so our sync replies stay O(delta). Without this, an org
  // whose own seals never reach quorum would keep serving the full history
  // as bodies — O(history) traffic the checkpoint exists to avoid.
  if (timing_.checkpoint.attest && !committed_txs_.empty()) {
    std::unordered_set<crypto::Digest, crypto::DigestHash> covered;
    covered.reserve(ckpt->covered.size());
    for (const Checkpoint::CoveredTx& tx : ckpt->covered) {
      covered.insert(tx.id);
    }
    std::erase_if(committed_txs_, [&covered](const auto& tx) {
      return covered.contains(tx->id);
    });
  }
  // Pin the first quorum-backed checkpoint seen for the replay-stale
  // adversary (a Byzantine serving peer replays it forever).
  if (timing_.checkpoint.attest && stale_ckpt_ == nullptr) {
    stale_ckpt_ = ckpt;
    stale_set_ = attestations;
  }
  // Keep the better of the current and new external checkpoints persisted,
  // with a deterministic tie-break, so a restart re-installs the best
  // coverage seen so far.
  const bool better =
      installed_ckpt_ == nullptr ||
      ckpt->valid_count > installed_ckpt_->valid_count ||
      (ckpt->valid_count == installed_ckpt_->valid_count &&
       ckpt->digest.bytes > installed_ckpt_->digest.bytes);
  if (better) {
    installed_ckpt_ = ckpt;
    installed_set_ = std::move(attestations);
    ledger_.PutCheckpointBlob("installed", EncodingOf(*ckpt));
    if (timing_.checkpoint.attest) {
      ledger_.PutCheckpointBlob("installed_attest", EncodingOf(installed_set_));
    }
  }
  if (obs::Tracer* t = simulation_.tracer()) {
    t->Instant(obs::EventKind::kCkptInstall, simulation_.now(), node_,
               ckpt->digest.Prefix64(), ckpt->origin);
  }
}

void Organization::AnnounceCheckpoint() {
  if (sealed_ckpt_ == nullptr || peers_.empty()) return;
  ++catchup_stats_.ckpt_announced;
  const bool forge =
      byzantine_.active &&
      (byzantine_.forge_checkpoint || byzantine_.equivocate_checkpoint);
  std::shared_ptr<const Checkpoint> shared_forgery;
  if (forge && !byzantine_.equivocate_checkpoint) {
    shared_forgery = MakeForgedCheckpoint(0);
  }
  for (sim::NodeId peer : peers_) {
    auto msg = std::make_shared<CheckpointAnnounceMsg>();
    if (forge) {
      // Equivocation derives a *different* forged variant per recipient;
      // plain forging shows everyone the same tampered snapshot.
      msg->ckpt = byzantine_.equivocate_checkpoint ? MakeForgedCheckpoint(peer)
                                                   : shared_forgery;
    } else {
      msg->ckpt = sealed_ckpt_;
    }
    network_.Send(node_, peer, msg);
  }
}

void Organization::HandleCheckpointAnnounce(
    sim::NodeId from, std::shared_ptr<const Checkpoint> ckpt) {
  if (byzantine_.active && byzantine_.withhold_attest) return;
  if (ckpt->origin == key_.id()) return;  // own digests self-attest at seal
  const sim::SimTime service =
      timing_.checkpoint.attest_verify_base +
      timing_.checkpoint.attest_verify_per_object *
          static_cast<sim::SimTime>(ckpt->objects.size());
  cpu_.Submit(service, [this, from, ckpt] {
    if (!running_) return;
    const bool blind = byzantine_.active && byzantine_.dishonest_attest;
    if (!blind && !CanAttest(*ckpt)) {
      ++catchup_stats_.ckpt_refused;
      if (obs::Tracer* t = simulation_.tracer()) {
        t->Instant(obs::EventKind::kCkptReject, simulation_.now(), node_,
                   ckpt->digest.Prefix64(), 2);
      }
      return;
    }
    auto reply = std::make_shared<CheckpointAttestMsg>();
    reply->ckpt_digest = ckpt->digest;
    reply->attestation.attester = key_.id();
    reply->attestation.signature =
        key_.Sign(kCheckpointAttestContext, ckpt->digest);
    ++catchup_stats_.ckpt_attest_sent;
    if (obs::Tracer* t = simulation_.tracer()) {
      t->Instant(obs::EventKind::kCkptAttest, simulation_.now(), node_,
                 ckpt->digest.Prefix64(), ckpt->origin);
    }
    network_.Send(node_, from, reply);
  });
}

void Organization::HandleCheckpointAttest(const CheckpointAttestMsg& msg) {
  // Only attestations over the *current* seal matter; stragglers for an
  // already-promoted or superseded digest are dropped unverified.
  if (sealed_ckpt_ == nullptr || msg.ckpt_digest != sealed_ckpt_->digest) {
    return;
  }
  if (attested_ckpt_ != nullptr &&
      attested_ckpt_->digest == sealed_ckpt_->digest) {
    return;  // quorum already formed
  }
  const CheckpointAttestation attestation = msg.attestation;
  const crypto::Digest digest = msg.ckpt_digest;
  cpu_.Submit(timing_.checkpoint.attest_accept, [this, attestation, digest] {
    if (!running_) return;
    if (sealed_ckpt_ == nullptr || sealed_ckpt_->digest != digest) return;
    if (attested_ckpt_ != nullptr && attested_ckpt_->digest == digest) return;
    // Distinct organization keys only: duplicates, outsiders and bad
    // signatures never advance the quorum (a dishonest attester is worth at
    // most its own single vote).
    if (!org_keys_.contains(attestation.attester)) return;
    if (seal_attest_.contains(attestation.attester)) return;
    if (!attestation.Verify(pki_, digest)) return;
    seal_attest_.emplace(attestation.attester, attestation.signature);
    ++catchup_stats_.ckpt_attest_received;
    if (seal_attest_.size() >= policy_.q) PromoteAttestedCheckpoint();
  });
}

bool Organization::CanAttest(const Checkpoint& ckpt) const {
  // The seal itself must verify (known origin, digest, signature).
  if (!ckpt.Verify(pki_, org_keys_)) return false;
  // The claimed accumulators must be exactly what the covered list implies —
  // an inflated valid_count cannot hide behind a valid self-signature.
  std::uint64_t count = 0;
  std::uint64_t xr = 0;
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) {
    if (tx.valid) {
      ++count;
      xr ^= tx.id.Prefix64();
    }
  }
  if (count != ckpt.valid_count || xr != ckpt.valid_xor) return false;
  // First-hand coverage: every covered transaction must be in our own
  // commit index with the same verdict. Anything we never saw — or judged
  // differently — is something we cannot vouch for, so we refuse rather
  // than endorse an unverifiable claim.
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) {
    const auto record = FindCommit(tx.id);
    if (!record || record->valid != tx.valid) return false;
  }
  // State dominance: merging the checkpoint's copy of each object into ours
  // must change nothing, i.e. the snapshot claims no operation we have not
  // already absorbed ourselves (⊑ in the join-semilattice; our state may be
  // strictly ahead). A single tampered operation breaks this.
  for (const auto& [object_id, state] : ckpt.objects) {
    const Bytes ours = ledger_.cache().EncodeObjectState(object_id);
    if (ours.empty()) return false;
    auto mine = crdt::CrdtObject::DecodeState(object_id, BytesView(ours));
    auto theirs = crdt::CrdtObject::DecodeState(object_id, BytesView(state));
    if (!mine || !theirs) return false;
    mine->MergeState(*theirs);
    if (mine->EncodeState() != ours) return false;
  }
  return true;
}

void Organization::PromoteAttestedCheckpoint() {
  attested_ckpt_ = sealed_ckpt_;
  attested_set_ = AttestationSet{};
  attested_set_.ckpt_digest = attested_ckpt_->digest;
  for (const auto& [attester, signature] : seal_attest_) {
    attested_set_.attestations.push_back(
        CheckpointAttestation{attester, signature});
  }
  ++catchup_stats_.ckpt_attested;
  if (stale_ckpt_ == nullptr) {
    stale_ckpt_ = attested_ckpt_;
    stale_set_ = attested_set_;
  }
  ledger_.PutCheckpointBlob("attested", EncodingOf(*attested_ckpt_));
  ledger_.PutCheckpointBlob("attested_attest", EncodingOf(attested_set_));

  // The covered prefix now has quorum-backed snapshot transport: drop it
  // from the delta buffer and reclaim the storage behind the frontier (what
  // the attestation-free path did at seal time).
  if (!committed_txs_.empty()) {
    std::unordered_set<crypto::Digest, crypto::DigestHash> covered;
    covered.reserve(attested_ckpt_->covered.size());
    for (const Checkpoint::CoveredTx& tx : attested_ckpt_->covered) {
      covered.insert(tx.id);
    }
    std::erase_if(committed_txs_, [&covered](const auto& tx) {
      return covered.contains(tx->id);
    });
  }
  if (timing_.checkpoint.prune) PruneBehind(attested_ckpt_);
}

std::shared_ptr<const Checkpoint> Organization::MakeForgedCheckpoint(
    std::uint64_t nonce) const {
  // The strongest forgery a Byzantine origin can construct: arbitrary
  // content under a *valid* self-signature (it holds only its own key, so
  // it cannot sign as anyone else — the PKI's unforgeability assumption).
  auto forged = std::make_shared<Checkpoint>(*sealed_ckpt_);
  forged->valid_count += 1000 + nonce;
  forged->valid_xor ^= 0xdeadbeefULL + nonce;
  if (!forged->covered.empty()) {
    forged->covered[0].valid = !forged->covered[0].valid;
  }
  if (!forged->objects.empty() && !forged->objects[0].second.empty()) {
    forged->objects[0].second[0] ^= 0x5a;
  }
  forged->Seal(key_);
  return forged;
}

crypto::Digest Organization::BestCheckpointDigest() const {
  // Prefer the checkpoint covering more valid commits (digest tie-break so
  // the choice is deterministic). Zero digest = nothing held yet.
  const Checkpoint* best = nullptr;
  for (const auto& candidate : {sealed_ckpt_, installed_ckpt_}) {
    if (candidate == nullptr) continue;
    if (best == nullptr || candidate->valid_count > best->valid_count ||
        (candidate->valid_count == best->valid_count &&
         candidate->digest.bytes > best->digest.bytes)) {
      best = candidate.get();
    }
  }
  return best == nullptr ? crypto::Digest{} : best->digest;
}

}  // namespace orderless::core
