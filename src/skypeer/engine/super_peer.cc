#include "skypeer/engine/super_peer.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "skypeer/algo/bnl.h"
#include "skypeer/algo/filter_set.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/mapping.h"

namespace skypeer {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return std::max(0.0, elapsed.count());
}

}  // namespace

void SuperPeer::ChargeOps(sim::Simulator* simulator, const OpCounts& ops,
                          double measured_s) {
  query_ops_ += ops;
  if (!measure_cpu_) {
    return;
  }
  if (cost_.counted()) {
    simulator->ChargeCpu(cost_.Seconds(ops));
  } else {
    simulator->ChargeCpu(std::max(0.0, measured_s));
  }
}

void SuperPeer::ChargeSerialization(sim::Simulator* simulator, size_t bytes) {
  OpCounts ops;
  ops.bytes_serialized = bytes;
  query_ops_ += ops;
  // The measured model never charged marshalling (wire cost lives in the
  // link model); counted models price it so the charge — and thus the
  // departure shift — is deterministic.
  if (measure_cpu_ && cost_.counted()) {
    simulator->ChargeCpu(cost_.Seconds(ops));
  }
}

void SuperPeer::AddPeerList(int peer_id, ResultList list) {
  SKYPEER_CHECK(list.points.dims() == dims_);
  SKYPEER_CHECK(!preprocessed_);
  const bool inserted =
      peer_lists_.emplace(peer_id, std::move(list)).second;
  SKYPEER_CHECK(inserted);  // Duplicate upload.
}

void SuperPeer::RebuildStore(ThresholdScanStats* stats) {
  ThresholdScanOptions options;
  options.ext = true;
  std::vector<const ResultList*> inputs;
  inputs.reserve(peer_lists_.size());
  for (const auto& [peer_id, list] : peer_lists_) {
    inputs.push_back(&list);
  }
  // Zero inputs (every peer departed) merge to the empty store.
  InstallStore(MergeSortedSkylines(dims_, inputs, Subspace::FullSpace(dims_),
                                   options, stats));
  if (cache_ != nullptr) {
    cache_->Invalidate(id_);
  }
}

void SuperPeer::InstallStore(ResultList store) {
  bool validate = verify_maintenance_;
#ifndef NDEBUG
  validate = true;
#endif
  if (validate) {
    SKYPEER_CHECK(ValidateStore(store, dims_).ok());
  }
  if (current_pins_ > 0) {
    // The outgoing epoch is pinned by an in-flight query: retire it
    // intact — resident list, paged pages and summary — instead of
    // destroying it. `View()` keeps serving it through `scan_epoch_`
    // until the last pin is released.
    EpochStore retiring;
    retiring.store = std::move(store_);
    retiring.paged = std::move(paged_store_);
    retiring.summary = std::move(store_summary_);
    retiring.pins = current_pins_;
    current_pins_ = 0;
    retired_.emplace(store_epoch_, std::move(retiring));
    store_ = ResultList(dims_);
  }
  ++store_epoch_;
  if (buffer_ != nullptr) {
    // Spill through the buffer manager: fresh page ids (never recycled),
    // so any frame still holding a page of the previous store is
    // unreachable; the old pages themselves are dropped by Release()
    // inside Build-then-move — or travel with their retired epoch when
    // pinned. The paged store builds and carries its own summary.
    paged_store_ = PagedStore::Build(store, buffer_);
    if (validate) {
      SKYPEER_CHECK(ValidateStoreSummary(*paged_store_.summary(), store,
                                         paged_store_.layout())
                        .ok());
    }
    store_ = ResultList(dims_);
    store_summary_ = StoreSummary();
  } else {
    store_ = std::move(store);
    // Same shared builder and page geometry as the paged mode, so skip
    // decisions never diverge between modes. Rebuilt on every install —
    // initial merge, churn maintenance, incremental join, snapshot
    // restore — so an emptied store never keeps the previous summary.
    const PageLayout layout(page_size_, dims_);
    store_summary_ = StoreSummary::Build(store_, layout);
    if (validate) {
      SKYPEER_CHECK(ValidateStoreSummary(store_summary_, store_, layout).ok());
    }
  }
  if (retired_.count(scan_epoch_) == 0) {
    scan_epoch_ = store_epoch_;
  }
}

uint64_t SuperPeer::PinStoreEpoch() {
  // One scan epoch at a time: the engine serializes queries per network,
  // so pins only ever stack on the same (current) epoch. A pin while an
  // older epoch is still retired-and-pinned would redirect its view.
  SKYPEER_CHECK(retired_.empty());
  ++current_pins_;
  scan_epoch_ = store_epoch_;
  return store_epoch_;
}

void SuperPeer::UnpinStoreEpoch(uint64_t epoch) {
  if (epoch == store_epoch_) {
    SKYPEER_CHECK(current_pins_ > 0);
    --current_pins_;
  } else {
    const auto it = retired_.find(epoch);
    SKYPEER_CHECK(it != retired_.end());
    SKYPEER_CHECK(it->second.pins > 0);
    if (--it->second.pins == 0) {
      // Last pin gone: the retired epoch dies here. In paged mode
      // ~PagedStore releases its pages; ids are never recycled, so no
      // frame can serve them again.
      retired_.erase(it);
    }
  }
  scan_epoch_ = store_epoch_;
}

double SuperPeer::FinalizePreprocessing(OpCounts* ops) {
  const auto start = std::chrono::steady_clock::now();
  ThresholdScanStats stats;
  RebuildStore(&stats);
  preprocessed_ = true;
  if (!retain_peer_lists_) {
    peer_lists_.clear();
  }
  if (ops != nullptr) {
    *ops += stats.ops;
  }
  return SecondsSince(start);
}

void SuperPeer::SetStore(ResultList store) {
  SKYPEER_CHECK(store.points.dims() == dims_);
  SKYPEER_CHECK(store.IsSorted());
  InstallStore(std::move(store));
  peer_lists_.clear();
  if (cache_ != nullptr) {
    cache_->Invalidate(id_);
  }
  preprocessed_ = true;
}

Status SuperPeer::JoinPeer(int peer_id, ResultList list,
                           OpCounts* maintenance_ops) {
  if (!preprocessed_) {
    return Status::FailedPrecondition("pre-processing has not run yet");
  }
  if (list.points.dims() != dims_) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  if (retain_peer_lists_) {
    if (peer_lists_.count(peer_id) > 0) {
      return Status::InvalidArgument("peer id already present");
    }
  }
  // Incremental merge (§5.3): ext-skyline merging is associative, so the
  // existing store and the newcomer's list suffice.
  ThresholdScanOptions options;
  options.ext = true;
  // A paged store must come back into memory for the merge — the
  // incremental join is a churn-path operation, not a scan. The
  // materialization is not part of the logical maintenance cost (it has
  // no resident-mode counterpart), so maintenance ops stay identical
  // paged vs in-memory.
  ResultList materialized(dims_);
  const ResultList* current = &store_;
  if (paged_store_.valid()) {
    materialized = paged_store_.Materialize();
    current = &materialized;
  }
  std::vector<const ResultList*> inputs = {current, &list};
  ThresholdScanStats stats;
  ResultList merged = MergeSortedSkylines(inputs, Subspace::FullSpace(dims_),
                                          options, &stats);
  InstallStore(std::move(merged));
  if (retain_peer_lists_) {
    peer_lists_.emplace(peer_id, std::move(list));
  }
  if (cache_ != nullptr) {
    cache_->Invalidate(id_);
  }
  if (maintenance_ops != nullptr) {
    *maintenance_ops += stats.ops;
  }
  return Status::OK();
}

Status SuperPeer::RemovePeer(int peer_id, OpCounts* maintenance_ops) {
  if (!retain_peer_lists_) {
    return Status::FailedPrecondition(
        "peer removal requires set_retain_peer_lists(true)");
  }
  const auto it = peer_lists_.find(peer_id);
  if (it == peer_lists_.end()) {
    return Status::NotFound("unknown peer id");
  }
  const ResultList departed = std::move(it->second);
  peer_lists_.erase(it);
  if (!incremental_maintenance_) {
    // Legacy path, kept as the oracle: redo the full merge from the
    // remaining retained lists. RebuildStore routes the empty store (the
    // last peer departed) through InstallStore too, so the summary and
    // paged state always describe the store that is actually served.
    ThresholdScanStats stats;
    RebuildStore(&stats);
    if (maintenance_ops != nullptr) {
      *maintenance_ops += stats.ops;
    }
    return Status::OK();
  }
  OpCounts ops;
  ResultList next = RemoveIncremental(departed, &ops);
  if (verify_maintenance_) {
    // Checked oracle: the incremental result must be bit-identical to
    // the full rebuild's merge — same ids, coordinates and f, in the
    // same canonical order.
    ThresholdScanOptions options;
    options.ext = true;
    std::vector<const ResultList*> inputs;
    inputs.reserve(peer_lists_.size());
    for (const auto& [pid, list] : peer_lists_) {
      inputs.push_back(&list);
    }
    const ResultList oracle = MergeSortedSkylines(
        dims_, inputs, Subspace::FullSpace(dims_), options);
    SKYPEER_CHECK(oracle.size() == next.size());
    for (size_t i = 0; i < next.size(); ++i) {
      SKYPEER_CHECK(oracle.points.id(i) == next.points.id(i));
      SKYPEER_CHECK(oracle.f[i] == next.f[i]);
      for (int d = 0; d < dims_; ++d) {
        SKYPEER_CHECK(oracle.points[i][d] == next.points[i][d]);
      }
    }
  }
  // The empty store (last peer departed) flows through the same install
  // builder as every other store change: summary, paged state and epoch
  // all advance — nothing is left describing the previous store.
  InstallStore(std::move(next));
  if (cache_ != nullptr) {
    cache_->Invalidate(id_);
  }
  if (maintenance_ops != nullptr) {
    *maintenance_ops += ops;
  }
  return Status::OK();
}

ResultList SuperPeer::RemoveIncremental(const ResultList& departed,
                                        OpCounts* ops) {
  // Canonical store order is the full merge's heap order: ascending f,
  // f-ties broken by the owning peer's rank in id order, then by
  // position inside the peer's (f-sorted) list. Removing a peer
  // preserves the survivors' relative ranks, so the old store minus the
  // departing points is already canonically ordered for the new peer
  // set — only the resurrection candidates need merging back in.
  const ResultList old = MaterializeStore();
  const Subspace full = Subspace::FullSpace(dims_);

  std::unordered_set<PointId> departing;
  departing.reserve(departed.size());
  for (size_t i = 0; i < departed.size(); ++i) {
    departing.insert(departed.points.id(i));
  }
  std::unordered_set<PointId> in_store;
  in_store.reserve(old.size());
  for (size_t i = 0; i < old.size(); ++i) {
    in_store.insert(old.points.id(i));
  }

  // Drop pass: the survivors. Every one of them stays in the final store
  // (a departure only shrinks the set of potential ext-dominators), and
  // the minimum of their dist values is the exact Observation-5 cutoff
  // for the candidate scan: a candidate with f above it sits strictly
  // above some survivor on every dimension, hence is ext-dominated.
  ResultList survivors(dims_);
  double seed_threshold = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < old.size(); ++i) {
    if (departing.count(old.points.id(i)) > 0) {
      continue;
    }
    survivors.points.Append(old.points[i], old.points.id(i));
    survivors.f.push_back(old.f[i]);
    seed_threshold = std::min(seed_threshold, DistU(old.points[i], full));
  }
  ops->scan_steps += old.size();

  // Resurrection candidates: surviving peers' retained points that were
  // not in the pre-removal store — both the ext-dominated (shadowed by a
  // departed point) and the merge's threshold-truncated tail. Visited in
  // canonical (f, rank, position) order via a heap over the per-peer
  // f-sorted lists, offered into an accumulator seeded with the
  // survivors (seeds prune but are never emitted), and cut off at the
  // exact threshold above.
  ThresholdScanOptions options;
  options.ext = true;
  options.initial_threshold = seed_threshold;
  SkylineAccumulator acc(dims_, full, options);
  acc.SeedWindow(survivors);

  struct Cursor {
    const ResultList* list = nullptr;
    size_t pos = 0;
    int rank = 0;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(peer_lists_.size());
  int rank = 0;
  for (const auto& [pid, list] : peer_lists_) {
    Cursor cursor{&list, 0, rank++};
    while (cursor.pos < list.size() &&
           in_store.count(list.points.id(cursor.pos)) > 0) {
      ++cursor.pos;
    }
    if (cursor.pos < list.size()) {
      cursors.push_back(cursor);
    }
  }
  const auto later = [](const Cursor& a, const Cursor& b) {
    const double fa = a.list->f[a.pos];
    const double fb = b.list->f[b.pos];
    if (fa != fb) {
      return fa > fb;
    }
    return a.rank > b.rank;
  };
  std::make_heap(cursors.begin(), cursors.end(), later);
  ResultList resurrected(dims_);
  while (!cursors.empty()) {
    std::pop_heap(cursors.begin(), cursors.end(), later);
    Cursor cursor = cursors.back();
    cursors.pop_back();
    const double f = cursor.list->f[cursor.pos];
    if (f > acc.threshold()) {
      break;  // Observation 5: no later candidate can survive.
    }
    ops->merge_pulls += 1;
    acc.Offer((*cursor.list).points[cursor.pos],
              cursor.list->points.id(cursor.pos), f);
    ++cursor.pos;
    while (cursor.pos < cursor.list->size() &&
           in_store.count(cursor.list->points.id(cursor.pos)) > 0) {
      ++cursor.pos;
    }
    if (cursor.pos < cursor.list->size()) {
      cursors.push_back(cursor);
      std::push_heap(cursors.begin(), cursors.end(), later);
    }
  }
  ResultList result = acc.TakeResult();
  *ops += acc.ops();

  // Splice pass: two-way merge of the survivors (canonically ordered
  // subsequence of the old store) and the resurrected points (offered in
  // canonical order, so emitted in it) on (f, rank, position) — the
  // exact order the full rebuild's heap would produce.
  std::unordered_map<PointId, std::pair<int, size_t>> order;
  rank = 0;
  for (const auto& [pid, list] : peer_lists_) {
    for (size_t i = 0; i < list.size(); ++i) {
      order.emplace(list.points.id(i), std::make_pair(rank, i));
    }
    ++rank;
  }
  ResultList merged(dims_);
  size_t a = 0;
  size_t b = 0;
  const auto take_survivor = [&]() {
    if (b >= result.size()) {
      return true;
    }
    if (a >= survivors.size()) {
      return false;
    }
    if (survivors.f[a] != result.f[b]) {
      return survivors.f[a] < result.f[b];
    }
    return order.at(survivors.points.id(a)) < order.at(result.points.id(b));
  };
  while (a < survivors.size() || b < result.size()) {
    ops->merge_pulls += 1;
    if (take_survivor()) {
      merged.points.Append(survivors.points[a], survivors.points.id(a));
      merged.f.push_back(survivors.f[a]);
      ++a;
    } else {
      merged.points.Append(result.points[b], result.points.id(b));
      merged.f.push_back(result.f[b]);
      ++b;
    }
  }
  return merged;
}

std::vector<int> SuperPeer::RetainedPeerIds() const {
  std::vector<int> ids;
  ids.reserve(peer_lists_.size());
  for (const auto& [peer_id, list] : peer_lists_) {
    ids.push_back(peer_id);
  }
  return ids;
}

const ResultList& SuperPeer::final_result() const {
  SKYPEER_CHECK(finished());
  return query_->final;
}

double SuperPeer::finish_time() const {
  SKYPEER_CHECK(finished());
  return query_->finish_time;
}

bool SuperPeer::partial() const {
  SKYPEER_CHECK(finished());
  return query_->partial;
}

std::vector<int> SuperPeer::coverage() const {
  SKYPEER_CHECK(finished());
  return std::vector<int>(query_->contributors.begin(),
                          query_->contributors.end());
}

void SuperPeer::ResetProtocolState() {
  ResetQueryState();
  outbound_.clear();
  seen_.clear();
  next_hop_seq_ = 1;
  deadline_timer_id_ = 0;
  rstats_ = ReliabilityStats{};
  query_ops_ = OpCounts{};
}

void SuperPeer::HandleMessage(sim::Simulator* simulator,
                              const sim::Message& message) {
  if (const auto* envelope =
          dynamic_cast<const ReliableEnvelope*>(message.body.get())) {
    HandleEnvelope(simulator, message, *envelope);
  } else if (const auto* ack =
                 dynamic_cast<const AckMessage*>(message.body.get())) {
    HandleAck(simulator, *ack);
  } else if (const auto* retransmit =
                 dynamic_cast<const RetransmitTimer*>(message.body.get())) {
    HandleRetransmit(simulator, *retransmit);
  } else if (const auto* deadline =
                 dynamic_cast<const DeadlineTimer*>(message.body.get())) {
    HandleDeadline(simulator, *deadline);
  } else if (const auto* start =
                 dynamic_cast<const StartQueryMessage*>(message.body.get())) {
    HandleStart(simulator, *start);
  } else if (const auto* query =
                 dynamic_cast<const QueryMessage*>(message.body.get())) {
    HandleQuery(simulator, message, *query);
  } else if (const auto* reply =
                 dynamic_cast<const ReplyMessage*>(message.body.get())) {
    HandleReply(simulator, message.src, *reply);
  } else if (const auto* pipeline =
                 dynamic_cast<const PipelineMessage*>(message.body.get())) {
    HandlePipeline(simulator, message.src, *pipeline);
  } else if (const auto* churn =
                 dynamic_cast<const ChurnTickMessage*>(message.body.get())) {
    // Scheduled churn maintenance lands on this node's virtual clock at
    // the event's simulated time. The ops are logical (no measured
    // seconds — the membership change itself already ran outside the
    // simulation), so the charge is identical in both simulation runs,
    // across store modes and under every cost model.
    ChargeOps(simulator, churn->ops, 0.0);
  } else if (reliable_.enabled) {
    ++rstats_.stale_ignored;  // Unknown payloads are tolerated, not fatal.
  } else {
    SKYPEER_CHECK(false);  // Unknown message type.
  }
}

// --- reliable transport --------------------------------------------------

void SuperPeer::SendEnvelope(sim::Simulator* simulator, int dst,
                             size_t payload_bytes,
                             std::shared_ptr<const sim::MessageBody> payload,
                             Outbound hop) {
  SKYPEER_CHECK(reliable_.enabled);
  SKYPEER_CHECK(query_.has_value());
  auto envelope = std::make_shared<ReliableEnvelope>();
  envelope->query_id = query_->query_id;
  envelope->seq = next_hop_seq_++;
  envelope->payload = std::move(payload);

  hop.dst = dst;
  hop.bytes = payload_bytes + wire_.envelope_bytes;
  hop.envelope = envelope;
  hop.attempts = 0;
  ChargeSerialization(simulator, hop.bytes);
  simulator->Send(id_, dst, hop.bytes, envelope);

  auto timer = std::make_shared<RetransmitTimer>();
  timer->seq = envelope->seq;
  hop.timer_id = simulator->ScheduleTimer(
      id_, RetryTimeout(reliable_, 0, hop.bytes), std::move(timer));
  outbound_[envelope->seq] = std::move(hop);
}

void SuperPeer::HandleEnvelope(sim::Simulator* simulator,
                               const sim::Message& message,
                               const ReliableEnvelope& envelope) {
  if (!reliable_.enabled || message.src < 0) {
    ++rstats_.stale_ignored;
    return;
  }
  // Always acknowledge — the sender may be retransmitting because our
  // previous acknowledgement was lost, not because the payload was.
  auto ack = std::make_shared<AckMessage>();
  ack->query_id = envelope.query_id;
  ack->seq = envelope.seq;
  ChargeSerialization(simulator, wire_.ack_bytes);
  simulator->Send(id_, message.src, wire_.ack_bytes, std::move(ack));

  // Effectively-once: at-least-once delivery plus (src, query, seq)
  // suppression. A retransmitted hop never re-triggers scans, merges or
  // metric counting.
  if (!seen_.insert({message.src, envelope.query_id, envelope.seq}).second) {
    ++rstats_.duplicates_suppressed;
    return;
  }
  // Stale traffic from an earlier query is acknowledged (to quiesce the
  // sender) but its payload is discarded.
  if (query_.has_value() && envelope.query_id != query_->query_id) {
    ++rstats_.stale_ignored;
    return;
  }
  const sim::MessageBody* payload = envelope.payload.get();
  if (const auto* query = dynamic_cast<const QueryMessage*>(payload)) {
    sim::Message inner = message;
    inner.body = envelope.payload;
    HandleQuery(simulator, inner, *query);
  } else if (const auto* reply = dynamic_cast<const ReplyMessage*>(payload)) {
    if (reply->reroute_origin >= 0) {
      HandleReroutedReply(simulator, *reply);
    } else {
      HandleReply(simulator, message.src, *reply);
    }
  } else if (const auto* pipeline =
                 dynamic_cast<const PipelineMessage*>(payload)) {
    HandlePipeline(simulator, message.src, *pipeline);
  } else {
    ++rstats_.stale_ignored;
  }
}

void SuperPeer::HandleAck(sim::Simulator* simulator, const AckMessage& ack) {
  const auto it = outbound_.find(ack.seq);
  if (it == outbound_.end() ||
      it->second.envelope->query_id != ack.query_id) {
    return;  // Already resolved (or a stale stray) — nothing to do.
  }
  simulator->CancelTimer(it->second.timer_id);
  outbound_.erase(it);
}

void SuperPeer::HandleRetransmit(sim::Simulator* simulator,
                                 const RetransmitTimer& timer) {
  const auto it = outbound_.find(timer.seq);
  if (it == outbound_.end()) {
    return;  // Acknowledged after the timer was already in flight.
  }
  Outbound& hop = it->second;
  ++hop.attempts;
  if (hop.attempts > reliable_.max_retries) {
    ++rstats_.gave_up;
    Outbound failed = std::move(hop);
    outbound_.erase(it);
    switch (failed.kind) {
      case HopKind::kQuery:
        OnChildUnreachable(simulator, failed.dst);
        break;
      case HopKind::kReply:
        RerouteReply(simulator, std::move(failed));
        break;
      case HopKind::kPipeline:
        SkipPipelineHop(simulator, failed);
        break;
    }
    return;
  }
  ++rstats_.retransmits;
  ChargeSerialization(simulator, hop.bytes);
  simulator->Send(id_, hop.dst, hop.bytes, hop.envelope);
  auto next_timer = std::make_shared<RetransmitTimer>();
  next_timer->seq = timer.seq;
  hop.timer_id = simulator->ScheduleTimer(
      id_, RetryTimeout(reliable_, hop.attempts, hop.bytes),
      std::move(next_timer));
}

void SuperPeer::HandleDeadline(sim::Simulator* simulator,
                               const DeadlineTimer& timer) {
  if (!query_.has_value() || query_->query_id != timer.query_id ||
      query_->finished || !query_->is_initiator) {
    return;
  }
  QueryState* state = &*query_;
  state->deadline_fired = true;
  // Quiesce the transport: outstanding hops will never improve this
  // answer.
  for (auto& [seq, hop] : outbound_) {
    simulator->CancelTimer(hop.timer_id);
  }
  outbound_.clear();
  FinishInitiator(simulator, state);
}

void SuperPeer::OnChildUnreachable(sim::Simulator* simulator, int child) {
  if (!query_.has_value() || query_->finished) {
    return;
  }
  QueryState* state = &*query_;
  const auto it = state->child_done.find(child);
  if (it == state->child_done.end() || it->second) {
    return;
  }
  it->second = true;
  --state->pending;
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

void SuperPeer::RerouteReply(sim::Simulator* simulator, Outbound hop) {
  if (!query_.has_value() || hop.reply == nullptr) {
    return;
  }
  hop.tried.push_back(hop.dst);
  for (int neighbor : neighbors_) {
    if (std::find(hop.tried.begin(), hop.tried.end(), neighbor) !=
        hop.tried.end()) {
      continue;
    }
    auto rerouted = std::make_shared<ReplyMessage>(*hop.reply);
    if (rerouted->reroute_origin < 0) {
      rerouted->reroute_origin = id_;
    }
    ++rstats_.rerouted;
    SendReplyReliable(simulator, neighbor, std::move(rerouted),
                      query_->subspace.Count(), std::move(hop.tried));
    return;
  }
  // Every backbone edge is exhausted: the data is stranded; the
  // initiator's deadline (or give-up accounting) surfaces the loss as a
  // partial result instead of a hang.
}

void SuperPeer::SkipPipelineHop(sim::Simulator* simulator,
                                const Outbound& hop) {
  if (!query_.has_value() || query_->finished || hop.pipeline == nullptr) {
    return;
  }
  const PipelineMessage& failed = *hop.pipeline;
  const std::vector<int>& route = *failed.route;
  const auto resume = [&](size_t position, int dst) {
    auto next = std::make_shared<PipelineMessage>(failed);
    next->position = position;
    const size_t bytes =
        wire_.query_bytes +
        wire_.ReplyBytes(next->subspace.Count(), 1,
                         next->accumulated->size()) +
        wire_.ContributorBytes(next->contributors.size()) +
        wire_.FilterBytes(next->subspace.Count(),
                          next->filter != nullptr ? next->filter->size() : 0);
    Outbound skip;
    skip.kind = HopKind::kPipeline;
    skip.pipeline = next;
    SendEnvelope(simulator, dst, bytes, next, std::move(skip));
  };
  // Resume the walk at the earliest later route position this node can
  // legally hand the message to: right after a later occurrence of itself
  // (the tour's own continuation), or directly at a later occurrence of a
  // backbone neighbor — adjacency keeps the hop sendable, non-tree edges
  // route around crashed subtrees, and a revisited receiver passes the
  // walk through unchanged. Taking the *earliest* such position keeps the
  // skipped gap (and thus the coverage loss) minimal. Occurrences of the
  // node that just failed are avoided; other crashed nodes are discovered
  // by their own retry cycles.
  const int failed_dst = route[failed.position];
  for (size_t p = failed.position + 1; p < route.size(); ++p) {
    if (route[p] == id_) {
      if (p + 1 < route.size() && route[p + 1] != failed_dst) {
        resume(p + 1, route[p + 1]);
        return;
      }
      continue;
    }
    if (route[p] == failed_dst) {
      continue;
    }
    if (std::find(neighbors_.begin(), neighbors_.end(), route[p]) !=
        neighbors_.end()) {
      resume(p, route[p]);
      return;
    }
  }
  // No later route position is reachable from here (typically the final
  // return hop to an initiator that is not our backbone neighbor). The
  // walk itself is over, but the accumulated result is not lost: convert
  // it into a rerouted reply and send it home along the tour-predecessor
  // chain, whose hops all delivered at least once.
  QueryState* state = &*query_;
  if (state->is_initiator) {
    state->contributors.insert(failed.contributors.begin(),
                               failed.contributors.end());
    state->extras[id_].push_back(failed.accumulated);
    FinishInitiator(simulator, state);
    return;
  }
  auto stranded = std::make_shared<ReplyMessage>();
  stranded->query_id = failed.query_id;
  stranded->duplicate = false;
  stranded->lists.push_back(failed.accumulated);
  stranded->contributors = failed.contributors;
  stranded->reroute_origin = id_;
  ++rstats_.rerouted;
  SendReplyReliable(simulator, state->parent, std::move(stranded),
                    state->subspace.Count(), {});
}

void SuperPeer::HandleReroutedReply(sim::Simulator* simulator,
                                    const ReplyMessage& reply) {
  if (!query_.has_value() || reply.query_id != query_->query_id ||
      reply.reroute_origin == id_) {
    // Unknown query, or our own rerouted data echoed back through a
    // cycle: drop it (the cycle guard below handles repeats).
    ++rstats_.stale_ignored;
    return;
  }
  QueryState* state = &*query_;
  if (state->finished) {
    ++rstats_.stale_ignored;
    return;
  }
  const int origin = reply.reroute_origin;
  if (!state->reroutes_handled.insert(origin).second) {
    ++rstats_.duplicates_suppressed;  // Already folded or relayed.
    return;
  }
  if (!state->is_initiator &&
      (state->replied || state->variant == Variant::kPipeline)) {
    // Our answer already left (or, on the pipeline, we never answer
    // upstream at all): relay the stray towards the initiator. Pipeline
    // parents are the tour predecessors, so the chain terminates there.
    SendReplyReliable(simulator, state->parent,
                      std::make_shared<ReplyMessage>(reply),
                      state->subspace.Count(), {});
    return;
  }
  // Fold the detoured subtree in as extra data — unless everything it
  // covers already arrived through the spanning tree.
  bool fresh = false;
  for (int contributor : reply.contributors) {
    if (state->contributors.count(contributor) == 0) {
      fresh = true;
      break;
    }
  }
  if (fresh) {
    auto& bucket = state->extras[origin];
    bucket.insert(bucket.end(), reply.lists.begin(), reply.lists.end());
    state->contributors.insert(reply.contributors.begin(),
                               reply.contributors.end());
  } else {
    ++rstats_.duplicates_suppressed;
  }
  if (state->is_initiator && state->variant == Variant::kPipeline &&
      !state->finished) {
    // The walk's token was converted into this reply when it stranded —
    // nothing further is in flight, so answer with what came home.
    FinishInitiator(simulator, state);
  }
}

void SuperPeer::SendReplyReliable(sim::Simulator* simulator, int dst,
                                  std::shared_ptr<const ReplyMessage> reply,
                                  int query_dims, std::vector<int> tried) {
  const size_t bytes =
      wire_.ReplyBytes(query_dims, reply->lists.size(), reply->TotalPoints()) +
      wire_.ContributorBytes(reply->contributors.size());
  Outbound hop;
  hop.kind = HopKind::kReply;
  hop.reply = reply;
  hop.tried = std::move(tried);
  SendEnvelope(simulator, dst, bytes, std::move(reply), std::move(hop));
}

// --- local computation ---------------------------------------------------

SuperPeer::LocalScan& SuperPeer::ResetMemo(const Subspace& subspace,
                                           Variant variant,
                                           double threshold_in,
                                           uint64_t filter_fp) {
  LocalScan& scan = memo_.emplace();
  scan.epoch = scan_epoch_;
  scan.mask = subspace.mask();
  scan.variant = variant;
  scan.threshold_in = threshold_in;
  scan.filter_fp = filter_fp;
  return scan;
}

const SuperPeer::LocalScan& SuperPeer::RunLocalScan(
    const Subspace& subspace, Variant variant, double threshold_in,
    const ResultList* filter, uint64_t filter_fp) {
  // The output is a pure function of the key: the epoch pins the store
  // content, and block skipping / the cache (the only other inputs) reset
  // the memo when toggled.
  if (memo_.has_value() && memo_->epoch == scan_epoch_ &&
      memo_->mask == subspace.mask() && memo_->variant == variant &&
      memo_->threshold_in == threshold_in && memo_->filter_fp == filter_fp) {
    return *memo_;
  }
  LocalScan& scan = ResetMemo(subspace, variant, threshold_in, filter_fp);
  const StoreView view = View();
  if (variant == Variant::kNaive) {
    // The baseline ignores the f-ordering and the threshold: a plain BNL
    // over the store, then sorted for shipping.
    const auto start = std::chrono::steady_clock::now();
    PointSet skyline = BnlSkylineView(view, subspace, /*ext=*/false,
                                      &scan.ops);
    scan.ops.sort_steps += SortCost(skyline.size());
    scan.local = std::make_shared<const ResultList>(BuildSortedByF(skyline));
    scan.threshold_out = threshold_in;
    scan.scanned = view.size();
    scan.cpu_s = SecondsSince(start);
    return scan;
  }

  if (cache_enabled_ && filter_fp == 0) {
    // Serve from the per-subspace cache: the event trace of the
    // *unconstrained* sequential scan is recorded once; every incoming
    // threshold then replays it into the exact truncated-scan result —
    // same survivors, same consumed-point count, same final threshold and
    // op counts as a fresh Algorithm 1 pass — without a single dominance
    // test. (Filtering a cached skyline *list* is not enough: the store
    // is f-sorted in full space while dominance is tested in the query
    // subspace, so a point's dominator can lie beyond the threshold
    // cutoff — the truncated scan keeps such a point, the unconstrained
    // skyline has already dropped it.) The cache is thread-safe and may
    // be shared across replica clones: the trace is a pure function of
    // (store, mask), so whichever filler publishes first, every reader
    // replays the same trace, and the replay is identical on hit and
    // miss, which keeps workload aggregates independent of query order.
    // Filtered scans never publish: their filter changes with the
    // initiator, so their traces would almost never be reused.
    const auto start = std::chrono::steady_clock::now();
    if (cache_ == nullptr) {
      cache_ = std::make_shared<SubspaceScanTraceCache>();
    }
    std::shared_ptr<const ScanTrace> entry =
        cache_->Lookup(id_, scan_epoch_, subspace.mask(), 0);
    if (entry == nullptr) {
      auto trace = std::make_shared<ScanTrace>();
      ThresholdScanOptions fill_options;
      fill_options.block_skip = block_skip_;
      TracedSortedSkyline(view, subspace, fill_options, nullptr,
                          trace.get());
      // Keyed by the epoch the scan actually read (`scan_epoch_`), so a
      // pinned query's old-epoch fill can never serve queries of a newer
      // store.
      entry = cache_->Insert(id_, scan_epoch_, subspace.mask(), 0,
                             std::move(trace));
    }
    ThresholdScanStats stats;
    scan.local = std::make_shared<const ResultList>(
        ReplayScanTrace(view, *entry, threshold_in, &stats));
    scan.threshold_out = stats.final_threshold;
    scan.scanned = stats.scanned;
    // Only the replay is counted: its ops are those of the direct scan
    // under `threshold_in`, and excluding the fill keeps counted charges
    // independent of hit/miss order (replicas sharing a cache see
    // different orders). Measured time covers the whole call.
    scan.ops = stats.ops;
    scan.cpu_s = SecondsSince(start);
    return scan;
  }

  ThresholdScanOptions options;
  options.initial_threshold = threshold_in;
  options.block_skip = block_skip_;
  options.filter = filter;
  ThresholdScanStats stats;
  scan.local = std::make_shared<const ResultList>(
      SortedSkyline(view, subspace, options, &stats));
  // The scan threshold only ever tightens; RT*M forwards this value.
  scan.threshold_out = stats.final_threshold;
  scan.scanned = stats.scanned;
  scan.ops = stats.ops;
  scan.cpu_s = stats.cpu_seconds;
  return scan;
}

void SuperPeer::StageLocalScan(const Subspace& subspace, Variant variant,
                               double threshold,
                               std::shared_ptr<const ResultList> filter) {
  if (filter != nullptr && filter->empty()) {
    filter = nullptr;
  }
  RunLocalScan(subspace, variant, threshold, filter.get(),
               filter != nullptr ? FilterFingerprint(*filter) : 0);
}

double SuperPeer::StagedThreshold() const {
  SKYPEER_CHECK(memo_.has_value());
  return memo_->threshold_out;
}

std::shared_ptr<const ResultList> SuperPeer::StagedLocal() const {
  SKYPEER_CHECK(memo_.has_value());
  return memo_->local;
}

void SuperPeer::StageSpeculativeScan(const Subspace& subspace, Variant variant,
                                     double fixed_threshold,
                                     std::shared_ptr<const ResultList> filter) {
  SKYPEER_CHECK(RefinesThresholdOnPath(variant));
  if (filter != nullptr && filter->empty()) {
    filter = nullptr;
  }
  StagedScan staged;
  staged.mask = subspace.mask();
  staged.variant = variant;
  staged.threshold_in = fixed_threshold;
  staged.filter_fp = filter != nullptr ? FilterFingerprint(*filter) : 0;
  if (!cache_enabled_ || staged.filter_fp != 0) {
    // Scans that do not go through the cache (filtered, or the uncached
    // reference path): record a private trace in the same compact format
    // so the reconcile can replay the scan under the refined threshold
    // without any dominance test. The filter seeds are baked into the
    // recorded events; the staged fingerprint guards the match. The
    // traced scan is the direct scan under `fixed_threshold`, so it also
    // becomes the memo: an arrival at exactly that threshold reuses it.
    ThresholdScanOptions options;
    options.initial_threshold = fixed_threshold;
    options.block_skip = block_skip_;
    options.filter = filter.get();
    ThresholdScanStats stats;
    LocalScan& scan =
        ResetMemo(subspace, variant, fixed_threshold, staged.filter_fp);
    scan.local = std::make_shared<const ResultList>(TracedSortedSkyline(
        View(), subspace, options, &stats, &staged.trace));
    scan.threshold_out = stats.final_threshold;
    scan.scanned = stats.scanned;
    scan.ops = stats.ops;
    scan.cpu_s = stats.cpu_seconds;
    staged.cpu_s = scan.cpu_s;
    staged.has_trace = true;
  } else {
    // Cache path: the scan warms the shared trace cache (a pure function
    // of the store, so identical to what the protocol run would insert)
    // and the reconcile replays it at the refined value.
    staged.cpu_s = RunLocalScan(subspace, variant, fixed_threshold,
                                filter.get(), staged.filter_fp)
                       .cpu_s;
  }
  staged_ = std::move(staged);
}

void SuperPeer::MaybeSelectFilter(sim::Simulator* simulator,
                                  QueryState* state) {
  if (filter_set_size_ == 0 || state->variant == Variant::kNaive) {
    return;
  }
  SKYPEER_CHECK(state->local != nullptr);
  // Selected from this node's (unfiltered) local result, so every filter
  // point is a member of one of the final merge's inputs: whatever the
  // filter prunes remotely, the merge would have removed anyway.
  const auto start = std::chrono::steady_clock::now();
  OpCounts ops;
  state->filter = BuildQueryFilter(*state->local, state->subspace,
                                   filter_set_size_, &ops);
  state->filter_fp =
      state->filter != nullptr ? FilterFingerprint(*state->filter) : 0;
  ChargeOps(simulator, ops, SecondsSince(start));
}

void SuperPeer::ComputeLocal(sim::Simulator* simulator, QueryState* state) {
  if (staged_.has_value() && staged_->mask == state->subspace.mask() &&
      staged_->variant == state->variant &&
      staged_->filter_fp == state->filter_fp &&
      state->threshold < staged_->threshold_in) {
    // Reconcile a speculative scan against the refined threshold the
    // protocol actually delivered. Under the measured model the node
    // really did run the fixed scan (off-thread) plus the reconcile, so
    // both are charged. Counted models charge the replay's ops only —
    // they equal the ops of the direct scan under the refined threshold,
    // so speculative staging leaves counted charges bit-identical to the
    // non-speculative execution.
    if (measure_cpu_ && !cost_.counted()) {
      simulator->ChargeCpu(staged_->cpu_s);
    }
    if (staged_->has_trace) {
      const auto start = std::chrono::steady_clock::now();
      ThresholdScanStats stats;
      state->local = std::make_shared<const ResultList>(ReplayScanTrace(
          View(), staged_->trace, state->threshold, &stats));
      state->threshold = stats.final_threshold;
      state->scanned = stats.scanned;
      staged_.reset();
      ChargeOps(simulator, stats.ops, SecondsSince(start));
      return;
    }
    // Cache path: the speculative scan warmed the trace cache; the scan
    // below replays it under the refined threshold, exactly the
    // sequential cache-hit path.
  }
  staged_.reset();
  // A memo hit (a staged scan, or the same scan in the configured-links
  // run) charges the recorded ops and seconds, exactly as the scan did.
  const LocalScan& scan =
      RunLocalScan(state->subspace, state->variant, state->threshold,
                   state->filter.get(), state->filter_fp);
  ChargeOps(simulator, scan.ops, scan.cpu_s);
  state->local = scan.local;
  state->threshold = scan.threshold_out;
  state->scanned = scan.scanned;
}

SuperPeer::LastQueryStats SuperPeer::last_query_stats() const {
  LastQueryStats stats;
  stats.ops = query_ops_;
  if (!query_.has_value()) {
    return stats;
  }
  stats.participated = true;
  stats.scanned = query_->scanned;
  stats.local_result = query_->local != nullptr ? query_->local->size() : 0;
  stats.final_threshold = query_->threshold;
  return stats;
}

// --- flood / reply protocol ----------------------------------------------

void SuperPeer::ForwardQuery(sim::Simulator* simulator, QueryState* state) {
  auto query = std::make_shared<QueryMessage>();
  query->query_id = state->query_id;
  query->subspace = state->subspace;
  query->variant = state->variant;
  query->threshold = state->threshold;
  query->filter = state->filter;
  // The broadcast filter rides every flood hop and is charged to query
  // volume — the volume/pruning trade-off bench_filter_volume measures.
  const size_t query_bytes =
      wire_.query_bytes +
      wire_.FilterBytes(state->subspace.Count(),
                        state->filter != nullptr ? state->filter->size() : 0);
  state->pending = 0;
  for (int neighbor : neighbors_) {
    if (neighbor == state->parent) {
      continue;
    }
    if (reliable_.enabled) {
      state->child_done[neighbor] = false;
      Outbound hop;
      hop.kind = HopKind::kQuery;
      SendEnvelope(simulator, neighbor, query_bytes, query, std::move(hop));
    } else {
      ChargeSerialization(simulator, query_bytes);
      simulator->Send(id_, neighbor, query_bytes, query);
    }
    ++state->pending;
  }
}

void SuperPeer::SendReply(sim::Simulator* simulator, int dst,
                          uint64_t query_id, bool duplicate,
                          std::vector<std::shared_ptr<const ResultList>> lists,
                          int query_dims) {
  auto reply = std::make_shared<ReplyMessage>();
  reply->query_id = query_id;
  reply->duplicate = duplicate;
  reply->lists = std::move(lists);
  const size_t bytes = wire_.ReplyBytes(query_dims, reply->lists.size(),
                                        reply->TotalPoints());
  ChargeSerialization(simulator, bytes);
  simulator->Send(id_, dst, bytes, std::move(reply));
}

void SuperPeer::HandleStart(sim::Simulator* simulator,
                            const StartQueryMessage& start) {
  SKYPEER_CHECK(!query_.has_value());  // One query at a time.
  query_.emplace();
  QueryState* state = &*query_;
  state->query_id = start.query_id;
  state->subspace = start.subspace;
  state->variant = start.variant;
  state->parent = -1;
  state->is_initiator = true;
  state->threshold = std::numeric_limits<double>::infinity();
  if (reliable_.enabled) {
    state->contributors.insert(id_);
    if (reliable_.query_deadline > 0.0) {
      auto deadline = std::make_shared<DeadlineTimer>();
      deadline->query_id = state->query_id;
      deadline_timer_id_ = simulator->ScheduleTimer(
          id_, reliable_.query_deadline, std::move(deadline));
    }
  }

  if (state->variant == Variant::kPipeline) {
    // The initiator seeds the accumulated result with its local skyline
    // and sends the query on its Euler-tour walk.
    ComputeLocal(simulator, state);
    if (start.route.size() <= 1) {
      state->final = *state->local;
      state->finished = true;
      state->finish_time = simulator->CurrentNodeClock();
      if (reliable_.enabled) {
        state->partial =
            static_cast<int>(state->contributors.size()) < num_super_peers_;
        if (deadline_timer_id_ != 0) {
          simulator->CancelTimer(deadline_timer_id_);
          deadline_timer_id_ = 0;
        }
      }
      return;
    }
    // The filter travels the whole tour so every node on the walk can
    // seed its scan; selected after the local scan (its source list).
    MaybeSelectFilter(simulator, state);
    PipelineMessage seed;
    seed.query_id = state->query_id;
    seed.subspace = state->subspace;
    seed.route = std::make_shared<const std::vector<int>>(start.route);
    seed.position = 0;
    seed.filter = state->filter;
    std::vector<int> contributors;
    if (reliable_.enabled) {
      contributors.push_back(id_);
    }
    ForwardPipeline(simulator, seed, state->threshold, state->local,
                    std::move(contributors));
    return;
  }

  if (state->variant == Variant::kNaive) {
    // No threshold to compute: flood first so other super-peers start
    // working as early as possible, then evaluate locally.
    ForwardQuery(simulator, state);
    ComputeLocal(simulator, state);
  } else {
    // §5.2.3: the initiator first runs the local computation to obtain
    // the initial threshold t, then forwards q(U, t) — with the filter
    // set sampled from the local result attached. (Naive floods before
    // computing, so it has no list to sample from and never carries a
    // filter.)
    ComputeLocal(simulator, state);
    MaybeSelectFilter(simulator, state);
    ForwardQuery(simulator, state);
  }
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

void SuperPeer::HandleQuery(sim::Simulator* simulator,
                            const sim::Message& message,
                            const QueryMessage& query) {
  if (query_.has_value() && query_->query_id == query.query_id) {
    // Flood duplicate: the sender still awaits one reply from us.
    if (reliable_.enabled) {
      auto reply = std::make_shared<ReplyMessage>();
      reply->query_id = query.query_id;
      reply->duplicate = true;
      SendReplyReliable(simulator, message.src, std::move(reply),
                        query.subspace.Count(), {});
    } else {
      SendReply(simulator, message.src, query.query_id, /*duplicate=*/true,
                {}, query.subspace.Count());
    }
    return;
  }
  if (reliable_.enabled) {
    if (query_.has_value()) {
      // A different query while one is active: tolerated (stale), the
      // legacy invariant of one query at a time still holds per run.
      ++rstats_.stale_ignored;
      return;
    }
  } else {
    SKYPEER_CHECK(!query_.has_value());
  }
  query_.emplace();
  QueryState* state = &*query_;
  state->query_id = query.query_id;
  state->subspace = query.subspace;
  state->variant = query.variant;
  state->threshold = query.threshold;
  state->filter = query.filter;
  state->filter_fp =
      query.filter != nullptr ? FilterFingerprint(*query.filter) : 0;
  state->parent = message.src;
  state->is_initiator = false;
  if (reliable_.enabled) {
    state->contributors.insert(id_);
  }

  if (UsesRefinedThreshold(state->variant)) {
    // RT*M: compute first; the refined (lower) threshold is attached to
    // the forwarded query (§5.2.3, Algorithm 3 lines 3-6).
    ComputeLocal(simulator, state);
    ForwardQuery(simulator, state);
  } else {
    // FT*M / naive: forward immediately, then compute.
    ForwardQuery(simulator, state);
    ComputeLocal(simulator, state);
  }
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

void SuperPeer::HandleReply(sim::Simulator* simulator, int src,
                            const ReplyMessage& reply) {
  if (!reliable_.enabled) {
    SKYPEER_CHECK(query_.has_value());
    QueryState* state = &*query_;
    SKYPEER_CHECK(state->query_id == reply.query_id);
    SKYPEER_CHECK(state->pending > 0);
    --state->pending;
    if (!reply.duplicate) {
      state->collected.insert(state->collected.end(), reply.lists.begin(),
                              reply.lists.end());
    }
    if (state->pending == 0) {
      Complete(simulator, state);
    }
    return;
  }

  if (!query_.has_value() || reply.query_id != query_->query_id ||
      query_->finished) {
    ++rstats_.stale_ignored;
    return;
  }
  QueryState* state = &*query_;
  const auto it = state->child_done.find(src);
  if (it == state->child_done.end()) {
    ++rstats_.stale_ignored;  // Not one of our forwarded neighbors.
    return;
  }
  if (it->second) {
    // The hop to this child was given up (its acks were lost but the
    // deliveries were not) and its real answer arrived late: recover the
    // data through the reroute path instead of corrupting `pending`.
    if (!reply.duplicate) {
      auto recovered = std::make_shared<ReplyMessage>(reply);
      recovered->reroute_origin = src;
      HandleReroutedReply(simulator, *recovered);
    } else {
      ++rstats_.stale_ignored;
    }
    return;
  }
  it->second = true;
  --state->pending;
  if (!reply.duplicate) {
    state->collected_by_child[src] = reply.lists;
    state->contributors.insert(reply.contributors.begin(),
                               reply.contributors.end());
  }
  if (state->pending == 0) {
    Complete(simulator, state);
  }
}

// --- pipeline variant ----------------------------------------------------

void SuperPeer::ForwardPipeline(sim::Simulator* simulator,
                                const PipelineMessage& previous,
                                double threshold,
                                std::shared_ptr<const ResultList> accumulated,
                                std::vector<int> contributors) {
  auto next = std::make_shared<PipelineMessage>();
  next->query_id = previous.query_id;
  next->subspace = previous.subspace;
  next->threshold = threshold;
  next->route = previous.route;
  next->position = previous.position + 1;
  next->accumulated = std::move(accumulated);
  next->contributors = std::move(contributors);
  next->filter = previous.filter;
  const int dst = (*next->route)[next->position];
  const size_t bytes =
      wire_.query_bytes +
      wire_.ReplyBytes(next->subspace.Count(), 1, next->accumulated->size()) +
      wire_.ContributorBytes(next->contributors.size()) +
      wire_.FilterBytes(next->subspace.Count(),
                        next->filter != nullptr ? next->filter->size() : 0);
  if (reliable_.enabled) {
    Outbound hop;
    hop.kind = HopKind::kPipeline;
    hop.pipeline = next;
    SendEnvelope(simulator, dst, bytes, next, std::move(hop));
  } else {
    ChargeSerialization(simulator, bytes);
    simulator->Send(id_, dst, bytes, std::move(next));
  }
}

void SuperPeer::HandlePipeline(sim::Simulator* simulator, int src,
                               const PipelineMessage& message) {
  if (reliable_.enabled) {
    if ((*message.route)[message.position] != id_) {
      ++rstats_.stale_ignored;  // Mis-addressed hop — tolerate.
      return;
    }
  } else {
    SKYPEER_CHECK((*message.route)[message.position] == id_);
  }

  if (message.position + 1 == message.route->size()) {
    // The walk has returned to the initiator: the accumulated list is the
    // global subspace skyline.
    if (reliable_.enabled) {
      if (!query_.has_value() || !query_->is_initiator ||
          query_->query_id != message.query_id || query_->finished) {
        ++rstats_.stale_ignored;
        return;
      }
    } else {
      SKYPEER_CHECK(query_.has_value());
      SKYPEER_CHECK(query_->is_initiator);
      SKYPEER_CHECK(query_->query_id == message.query_id);
    }
    QueryState* state = &*query_;
    state->final = *message.accumulated;
    if (reliable_.enabled) {
      state->contributors.insert(message.contributors.begin(),
                                 message.contributors.end());
      state->partial =
          static_cast<int>(state->contributors.size()) < num_super_peers_ ||
          state->deadline_fired;
      if (deadline_timer_id_ != 0) {
        simulator->CancelTimer(deadline_timer_id_);
        deadline_timer_id_ = 0;
      }
    }
    state->finished = true;
    state->finish_time = simulator->CurrentNodeClock();
    return;
  }

  if (query_.has_value() && query_->query_id == message.query_id) {
    // Revisit on the Euler tour: pass the query through unchanged.
    ForwardPipeline(simulator, message, message.threshold,
                    message.accumulated, message.contributors);
    return;
  }

  // First visit: compute the local skyline under the travelling threshold
  // and fold it into the accumulated result.
  if (reliable_.enabled) {
    if (query_.has_value()) {
      ++rstats_.stale_ignored;
      return;
    }
  } else {
    SKYPEER_CHECK(!query_.has_value());
  }
  query_.emplace();
  QueryState* state = &*query_;
  state->query_id = message.query_id;
  state->subspace = message.subspace;
  state->variant = Variant::kPipeline;
  state->threshold = message.threshold;
  state->filter = message.filter;
  state->filter_fp =
      message.filter != nullptr ? FilterFingerprint(*message.filter) : 0;
  // Reliable mode remembers the tour predecessor: the chain of first-visit
  // senders always leads back to the initiator over hops that worked at
  // least once, which is the escape route when the walk strands.
  state->parent = reliable_.enabled ? src : -1;
  state->is_initiator = false;
  ComputeLocal(simulator, state);

  std::shared_ptr<const ResultList> merged;
  double threshold = state->threshold;
  {
    std::vector<const ResultList*> inputs = {message.accumulated.get(),
                                             state->local.get()};
    ThresholdScanOptions options;
    options.initial_threshold = message.threshold;
    options.dedup_ids = reliable_.enabled;
    ThresholdScanStats stats;
    merged = std::make_shared<const ResultList>(
        MergeSortedSkylines(inputs, state->subspace, options, &stats));
    threshold = std::min(threshold, stats.final_threshold);
    ChargeOps(simulator, stats.ops, stats.cpu_seconds);
  }
  std::vector<int> contributors = message.contributors;
  if (reliable_.enabled) {
    contributors.push_back(id_);
  }
  ForwardPipeline(simulator, message, threshold, std::move(merged),
                  std::move(contributors));
}

// --- completion ----------------------------------------------------------

void SuperPeer::FinishInitiator(sim::Simulator* simulator,
                                QueryState* state) {
  SKYPEER_CHECK(reliable_.enabled);
  SKYPEER_CHECK(state->is_initiator);
  SKYPEER_CHECK(state->local != nullptr);
  {
    const auto start = std::chrono::steady_clock::now();
    OpCounts ops;
    if (state->variant == Variant::kNaive) {
      // Central dominance-based merge; overlapping inputs (reroute
      // detours) are deduplicated by point id — copies of a point never
      // dominate each other, so BNL alone would keep both.
      PointSet all(dims_);
      std::unordered_set<PointId> seen_points;
      const auto append = [&](const ResultList& list) {
        for (size_t i = 0; i < list.size(); ++i) {
          if (seen_points.insert(list.points.id(i)).second) {
            all.Append(list.points[i], list.points.id(i));
          }
        }
      };
      for (const auto& [child, lists] : state->collected_by_child) {
        for (const auto& list : lists) {
          append(*list);
        }
      }
      for (const auto& [origin, lists] : state->extras) {
        for (const auto& list : lists) {
          append(*list);
        }
      }
      append(*state->local);
      PointSet skyline = BnlSkyline(all, state->subspace, /*ext=*/false, &ops);
      ops.sort_steps += SortCost(skyline.size());
      state->final = BuildSortedByF(skyline);
    } else {
      std::vector<const ResultList*> inputs;
      for (const auto& [child, lists] : state->collected_by_child) {
        for (const auto& list : lists) {
          inputs.push_back(list.get());
        }
      }
      for (const auto& [origin, lists] : state->extras) {
        for (const auto& list : lists) {
          inputs.push_back(list.get());
        }
      }
      inputs.push_back(state->local.get());
      ThresholdScanOptions options;
      options.initial_threshold = state->threshold;
      options.dedup_ids = true;
      ThresholdScanStats stats;
      state->final = MergeSortedSkylines(dims_, inputs, state->subspace,
                                         options, &stats);
      ops = stats.ops;
    }
    ChargeOps(simulator, ops, SecondsSince(start));
  }
  state->partial =
      static_cast<int>(state->contributors.size()) < num_super_peers_ ||
      state->deadline_fired;
  state->finished = true;
  state->finish_time = simulator->CurrentNodeClock();
  if (deadline_timer_id_ != 0) {
    simulator->CancelTimer(deadline_timer_id_);
    deadline_timer_id_ = 0;
  }
}

void SuperPeer::Complete(sim::Simulator* simulator, QueryState* state) {
  SKYPEER_CHECK(state->local != nullptr);

  if (reliable_.enabled) {
    if (state->finished) {
      return;  // The deadline already resolved this query.
    }
    if (!state->is_initiator) {
      auto reply = std::make_shared<ReplyMessage>();
      reply->query_id = state->query_id;
      reply->duplicate = false;
      if (UsesProgressiveMerging(state->variant)) {
        // Canonical input order — children by id, then detoured extras
        // by origin id, own list last — so lossy runs merge exactly like
        // fault-free ones regardless of reply arrival order.
        const auto start = std::chrono::steady_clock::now();
        std::vector<const ResultList*> inputs;
        for (const auto& [child, lists] : state->collected_by_child) {
          for (const auto& list : lists) {
            inputs.push_back(list.get());
          }
        }
        for (const auto& [origin, lists] : state->extras) {
          for (const auto& list : lists) {
            inputs.push_back(list.get());
          }
        }
        inputs.push_back(state->local.get());
        ThresholdScanOptions options;
        options.initial_threshold = state->threshold;
        options.dedup_ids = true;
        ThresholdScanStats stats;
        reply->lists.push_back(std::make_shared<const ResultList>(
            MergeSortedSkylines(dims_, inputs, state->subspace, options,
                                &stats)));
        ChargeOps(simulator, stats.ops, SecondsSince(start));
      } else {
        for (const auto& [child, lists] : state->collected_by_child) {
          reply->lists.insert(reply->lists.end(), lists.begin(), lists.end());
        }
        for (const auto& [origin, lists] : state->extras) {
          reply->lists.insert(reply->lists.end(), lists.begin(), lists.end());
        }
        reply->lists.push_back(state->local);
      }
      reply->contributors.assign(state->contributors.begin(),
                                 state->contributors.end());
      state->replied = true;
      SendReplyReliable(simulator, state->parent, std::move(reply),
                        state->subspace.Count(), {});
      return;
    }
    FinishInitiator(simulator, state);
    return;
  }

  if (!state->is_initiator) {
    std::vector<std::shared_ptr<const ResultList>> lists;
    if (UsesProgressiveMerging(state->variant)) {
      // *TPM: merge everything received with the local result before
      // relaying (Algorithm 3 lines 15-16).
      const auto start = std::chrono::steady_clock::now();
      std::vector<const ResultList*> inputs;
      inputs.reserve(state->collected.size() + 1);
      for (const auto& list : state->collected) {
        inputs.push_back(list.get());
      }
      inputs.push_back(state->local.get());
      ThresholdScanOptions options;
      options.initial_threshold = state->threshold;
      ThresholdScanStats stats;
      lists.push_back(std::make_shared<const ResultList>(
          MergeSortedSkylines(inputs, state->subspace, options, &stats)));
      ChargeOps(simulator, stats.ops, SecondsSince(start));
    } else {
      // *TFM / naive: relay children bundles unmerged plus our own list.
      lists = std::move(state->collected);
      lists.push_back(state->local);
    }
    SendReply(simulator, state->parent, state->query_id, /*duplicate=*/false,
              std::move(lists), state->subspace.Count());
    return;
  }

  // Initiator: final merge.
  {
    const auto start = std::chrono::steady_clock::now();
    OpCounts ops;
    if (state->variant == Variant::kNaive) {
      // Central dominance-based merge of everything, the §3.2 baseline.
      PointSet all(dims_);
      for (const auto& list : state->collected) {
        all.AppendAll(list->points);
      }
      all.AppendAll(state->local->points);
      PointSet skyline = BnlSkyline(all, state->subspace, /*ext=*/false, &ops);
      ops.sort_steps += SortCost(skyline.size());
      state->final = BuildSortedByF(skyline);
    } else {
      std::vector<const ResultList*> inputs;
      inputs.reserve(state->collected.size() + 1);
      for (const auto& list : state->collected) {
        inputs.push_back(list.get());
      }
      inputs.push_back(state->local.get());
      ThresholdScanOptions options;
      options.initial_threshold = state->threshold;
      ThresholdScanStats stats;
      state->final =
          MergeSortedSkylines(inputs, state->subspace, options, &stats);
      ops = stats.ops;
    }
    ChargeOps(simulator, ops, SecondsSince(start));
  }
  state->finished = true;
  state->finish_time = simulator->CurrentNodeClock();
}

}  // namespace skypeer
