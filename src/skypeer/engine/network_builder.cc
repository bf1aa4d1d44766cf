#include "skypeer/engine/network_builder.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include <limits>

#include "skypeer/algo/extended_skyline.h"
#include "skypeer/algo/filter_set.h"
#include "skypeer/algo/sfs.h"
#include "skypeer/common/macros.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/engine/peer.h"

namespace skypeer {

Status SkypeerNetwork::Validate(const NetworkConfig& config) {
  if (config.dims < 1 || config.dims > kMaxDims) {
    return Status::InvalidArgument("dims must be in [1, 32]");
  }
  if (config.points_per_peer < 0) {
    return Status::InvalidArgument("points_per_peer must be >= 0");
  }
  if (config.bandwidth <= 0.0) {
    return Status::InvalidArgument("bandwidth must be positive");
  }
  if (config.latency < 0.0) {
    return Status::InvalidArgument("latency must be >= 0");
  }
  if (config.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (config.page_size < kMinPageSize || config.page_size > kMaxPageSize ||
      (config.page_size & (config.page_size - 1)) != 0) {
    return Status::InvalidArgument(
        "page_size must be a power of two in [4096, 1048576]");
  }
  const size_t bytes_per_block =
      (static_cast<size_t>(config.dims) + 2) * kDomBlockWidth * sizeof(double);
  if (config.page_size < bytes_per_block) {
    return Status::InvalidArgument("page_size cannot hold one block");
  }
  if (config.buffer_pages == 1) {
    return Status::InvalidArgument(
        "buffer_pages must be 0 (in-memory) or >= 2");
  }
  if (config.drop_prob < 0.0 || config.drop_prob >= 1.0) {
    return Status::InvalidArgument("drop_prob must be in [0, 1)");
  }
  if (config.delay_jitter < 0.0) {
    return Status::InvalidArgument("delay_jitter must be >= 0");
  }
  if (config.ack_timeout <= 0.0) {
    return Status::InvalidArgument("ack_timeout must be positive");
  }
  if (config.max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (config.query_deadline < 0.0) {
    return Status::InvalidArgument("query_deadline must be >= 0");
  }
  if (!config.reliable &&
      (config.drop_prob > 0.0 || !config.crashed_sps.empty())) {
    // The legacy transport deadlocks on lost messages; only delay jitter
    // (reordering) is tolerable without the reliable protocol.
    return Status::InvalidArgument(
        "message loss (drop_prob, crashed_sps) requires reliable=true");
  }
  for (int sp : config.crashed_sps) {
    if (sp < 0) {
      return Status::InvalidArgument("crashed_sps ids must be >= 0");
    }
  }
  if (config.churn_events < 0) {
    return Status::InvalidArgument("churn_events must be >= 0");
  }
  if (config.churn_events > 0 && !config.dynamic_membership) {
    return Status::InvalidArgument(
        "scheduled churn (churn_events) requires dynamic_membership");
  }
  if (config.churn_events > 0 && config.churn_rate <= 0.0) {
    return Status::InvalidArgument("churn_rate must be positive");
  }
  OverlayConfig overlay_config;
  overlay_config.num_peers = config.num_peers;
  overlay_config.num_super_peers = config.num_super_peers;
  overlay_config.degree_sp = config.degree_sp;
  overlay_config.topology = config.topology;
  return ValidateOverlayConfig(overlay_config);
}

SkypeerNetwork::SkypeerNetwork(const NetworkConfig& config)
    : config_(config), all_data_(config.dims) {
  SKYPEER_CHECK(Validate(config).ok());

  Rng rng(config_.seed);
  OverlayConfig overlay_config;
  overlay_config.num_peers = config_.num_peers;
  overlay_config.num_super_peers = config_.num_super_peers;
  overlay_config.degree_sp = config_.degree_sp;
  overlay_config.topology = config_.topology;
  overlay_config.seed = rng.Fork();
  overlay_ = BuildOverlay(overlay_config);

  if (config_.threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
    pool_ = owned_pool_.get();
  }
  if (config_.enable_cache) {
    result_cache_ =
        std::make_shared<SubspaceScanTraceCache>(config_.cache_max_entries);
  }
  if (config_.buffer_pages > 0) {
    // Without an owned pool the buffer manager prefetches on the global
    // pool, which it looks up per prefetch: resizing the global pool
    // frees the old one.
    buffer_ = pool_ != nullptr
                  ? std::make_unique<BufferManager>(
                        config_.page_size, config_.buffer_pages, pool_)
                  : std::make_unique<BufferManager>(
                        config_.page_size, config_.buffer_pages,
                        BufferManager::GlobalPool{});
  }

  const int num_sp = overlay_.num_super_peers();
  super_peers_.reserve(num_sp);
  for (int i = 0; i < num_sp; ++i) {
    super_peers_.push_back(
        std::make_unique<SuperPeer>(i, config_.dims, config_.wire));
    super_peers_.back()->SetCostModel(config_.cost_model);
    super_peers_.back()->set_page_size(config_.page_size);
    super_peers_.back()->set_incremental_maintenance(
        config_.incremental_maintenance);
    super_peers_.back()->set_verify_maintenance(config_.verify_maintenance);
    if (buffer_ != nullptr) {
      super_peers_.back()->ConfigurePaging(buffer_.get(), config_.page_size);
    }
    if (result_cache_ != nullptr) {
      super_peers_.back()->SetResultCache(result_cache_);
    }
    const int sim_id = simulator_.AddNode(super_peers_.back().get());
    SKYPEER_CHECK(sim_id == i);
  }
  const sim::LinkParams params{config_.bandwidth, config_.latency};
  for (int a = 0; a < num_sp; ++a) {
    std::vector<int> neighbors = overlay_.backbone.Neighbors(a);
    super_peers_[a]->SetNeighbors(neighbors);
    for (int b : neighbors) {
      if (a < b) {
        simulator_.Connect(a, b, params);
      }
    }
  }

  if (config_.reliable) {
    ReliableParams reliable;
    reliable.enabled = true;
    reliable.ack_timeout = config_.ack_timeout;
    reliable.max_retries = config_.max_retries;
    reliable.query_deadline = config_.query_deadline;
    reliable.bandwidth_hint = config_.bandwidth;
    for (auto& sp : super_peers_) {
      sp->SetReliableParams(reliable);
      sp->set_num_super_peers(num_sp);
    }
  }
  sim::FaultPlan plan;
  plan.seed = config_.fault_seed != 0
                  ? config_.fault_seed
                  : config_.seed ^ 0xfa0171fa0171fa01ULL;
  plan.drop_prob = config_.drop_prob;
  plan.delay_jitter = config_.delay_jitter;
  for (int sp : config_.crashed_sps) {
    SKYPEER_CHECK(sp < num_sp);
    plan.CrashNode(sp);
  }
  if (plan.HasFaults()) {
    simulator_.SetFaultPlan(std::move(plan));
  }

  if (config_.churn_events > 0) {
    const uint64_t churn_seed = config_.churn_seed != 0
                                    ? config_.churn_seed
                                    : config_.seed ^ 0xc4a221c4a221c4a2ULL;
    churn_plan_ = sim::ChurnPlan::Seeded(
        config_.churn_events, config_.churn_rate, churn_seed,
        /*num_slots=*/config_.churn_events, num_sp);
  }
}

void SkypeerNetwork::SetChurnPlan(sim::ChurnPlan plan) {
  SKYPEER_CHECK(config_.dynamic_membership || plan.empty());
  for (const sim::ChurnEvent& event : plan.events) {
    SKYPEER_CHECK(event.node >= 0 && event.node < num_super_peers());
    SKYPEER_CHECK(event.time >= 0.0);
  }
  churn_plan_ = std::move(plan);
  churn_slot_ = 0;
}

Status SkypeerNetwork::ApplyChurnEvent(const sim::ChurnEvent& event,
                                       OpCounts* maintenance_ops) {
  if (!preprocessed_) {
    return Status::FailedPrecondition("network is not preprocessed yet");
  }
  if (!config_.dynamic_membership) {
    return Status::FailedPrecondition(
        "dynamic_membership is disabled in the configuration");
  }
  if (event.node < 0 || event.node >= num_super_peers()) {
    return Status::OutOfRange("churn event node out of range");
  }
  Rng rng(event.seed);
  OpCounts ops;
  Status status = Status::OK();
  switch (event.kind) {
    case sim::ChurnKind::kJoin: {
      // Fresh peers always draw uniform data: the event seed alone
      // determines the dataset, so a replayed plan joins bit-identical
      // points regardless of store mode or thread count. Ids are
      // reassigned by JoinPeer.
      PointSet data = GenerateUniform(config_.dims, config_.points_per_peer,
                                      &rng, /*first_id=*/0);
      status = JoinPeer(event.node, std::move(data), nullptr, &ops);
      if (status.ok()) {
        ++churn_stats_.joins;
      }
      break;
    }
    case sim::ChurnKind::kRemove: {
      const auto& peers = overlay_.super_peer_peers[event.node];
      if (peers.empty()) {
        ++churn_stats_.skipped;  // Deterministic no-op: nothing to remove.
        break;
      }
      const int victim =
          peers[rng.UniformInt(0, static_cast<int>(peers.size()) - 1)];
      status = RemovePeer(victim, &ops);
      if (status.ok()) {
        ++churn_stats_.removals;
      }
      break;
    }
    case sim::ChurnKind::kReplace: {
      const auto& peers = overlay_.super_peer_peers[event.node];
      if (peers.empty()) {
        ++churn_stats_.skipped;
        break;
      }
      const int victim =
          peers[rng.UniformInt(0, static_cast<int>(peers.size()) - 1)];
      PointSet data = GenerateUniform(config_.dims, config_.points_per_peer,
                                      &rng, /*first_id=*/0);
      status = ReplacePeerData(victim, std::move(data), &ops);
      if (status.ok()) {
        ++churn_stats_.replacements;
      }
      break;
    }
  }
  churn_stats_.maintenance_ops += ops;
  if (maintenance_ops != nullptr) {
    *maintenance_ops += ops;
  }
  return status;
}

void SkypeerNetwork::SetFaultPlan(sim::FaultPlan plan) {
  simulator_.SetFaultPlan(std::move(plan));
}

void SkypeerNetwork::ResetProtocolState() {
  simulator_.Reset();
  for (auto& sp : super_peers_) {
    sp->ResetProtocolState();
  }
}

SkypeerNetwork::~SkypeerNetwork() = default;

ThreadPool* SkypeerNetwork::pool() const {
  return pool_ != nullptr ? pool_ : ThreadPool::Global();
}

PreprocessStats SkypeerNetwork::Preprocess() {
  SKYPEER_CHECK(!preprocessed_);
  PreprocessStats stats;
  Rng rng(config_.seed ^ 0x5eed5eed5eed5eedULL);

  // Phase 1 (sequential): consume the master RNG in the historical order
  // — per super-peer a centroid draw (clustered only), then one fork per
  // associated peer — so the generated dataset is bit-identical at any
  // thread count.
  struct PeerJob {
    int sp = 0;
    int peer_id = 0;
    uint64_t seed = 0;
    PointId first_id = 0;
    std::vector<double> centroid;  // Clustered distribution only.
    // Worker outputs.
    PointSet data{1};
    ResultList ext{1};
    size_t data_size = 0;
    double cpu_s = 0.0;
    OpCounts ops;
  };
  std::vector<PeerJob> jobs;
  jobs.reserve(overlay_.num_peers());
  for (int sp = 0; sp < overlay_.num_super_peers(); ++sp) {
    super_peers_[sp]->set_retain_peer_lists(config_.dynamic_membership);
    super_peers_[sp]->set_enable_cache(config_.enable_cache);
    super_peers_[sp]->set_block_skip(config_.block_skip);
    super_peers_[sp]->set_filter_set_size(config_.filter_set_size);
    // The clustered workload has each super-peer pick a centroid; its
    // associated peers draw Gaussian points around it (§6).
    std::vector<double> centroid;
    if (config_.distribution == Distribution::kClustered) {
      centroid = RandomCentroid(config_.dims, &rng);
    }
    for (int peer_id : overlay_.super_peer_peers[sp]) {
      PeerJob job;
      job.sp = sp;
      job.peer_id = peer_id;
      job.seed = rng.Fork();
      job.first_id = static_cast<PointId>(peer_id) * config_.points_per_peer;
      job.centroid = centroid;
      jobs.push_back(std::move(job));
    }
  }

  // Phase 2 (parallel): every peer generates its partition and computes
  // its extended skyline independently — the embarrassingly parallel
  // bulk of pre-processing.
  pool()->ParallelFor(jobs.size(), [&](size_t i) {
    PeerJob& job = jobs[i];
    Rng peer_rng(job.seed);
    PointSet data(config_.dims);
    switch (config_.distribution) {
      case Distribution::kUniform:
        data = GenerateUniform(config_.dims, config_.points_per_peer,
                               &peer_rng, job.first_id);
        break;
      case Distribution::kClustered:
        data = GenerateClustered(job.centroid, config_.points_per_peer,
                                 kClusterStdDev, &peer_rng, job.first_id);
        break;
      case Distribution::kCorrelated:
        data = GenerateCorrelated(config_.dims, config_.points_per_peer,
                                  &peer_rng, job.first_id);
        break;
      case Distribution::kAnticorrelated:
        data = GenerateAnticorrelated(config_.dims, config_.points_per_peer,
                                      &peer_rng, job.first_id);
        break;
    }
    job.data_size = data.size();
    const auto start = std::chrono::steady_clock::now();
    // What Peer::ComputeExtendedSkyline runs.
    ThresholdScanStats scan_stats;
    job.ext = ExtendedSkyline(data, &scan_stats);
    job.ops = scan_stats.ops;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    job.cpu_s = elapsed.count();
    if (config_.retain_peer_data) {
      job.data = std::move(data);
    }
  });

  // Phase 3 (sequential, job order): aggregate statistics and upload the
  // lists in the same peer order as the sequential code did.
  for (PeerJob& job : jobs) {
    if (config_.retain_peer_data) {
      all_data_.AppendAll(job.data);
    }
    stats.total_points += job.data_size;
    if (config_.dynamic_membership) {
      peer_point_ranges_[job.peer_id] = {
          job.first_id, job.first_id + static_cast<PointId>(job.data_size)};
    }
    stats.peer_ops += job.ops;
    stats.peer_cpu_s += config_.cost_model.counted()
                            ? config_.cost_model.Seconds(job.ops)
                            : job.cpu_s;
    stats.peer_ext_points += job.ext.size();
    super_peers_[job.sp]->AddPeerList(job.peer_id, std::move(job.ext));
  }
  jobs.clear();

  // Phase 4 (parallel): each super-peer merges its uploaded lists.
  std::vector<double> merge_cpu_s(overlay_.num_super_peers(), 0.0);
  std::vector<OpCounts> merge_ops(overlay_.num_super_peers());
  pool()->ParallelFor(overlay_.num_super_peers(), [&](size_t sp) {
    merge_cpu_s[sp] = super_peers_[sp]->FinalizePreprocessing(&merge_ops[sp]);
  });
  for (int sp = 0; sp < overlay_.num_super_peers(); ++sp) {
    stats.super_peer_ops += merge_ops[sp];
    stats.super_peer_cpu_s += config_.cost_model.counted()
                                  ? config_.cost_model.Seconds(merge_ops[sp])
                                  : merge_cpu_s[sp];
    stats.super_peer_ext_points += super_peers_[sp]->StoreSize();
  }
  total_points_ = stats.total_points;
  next_peer_id_ = config_.num_peers;
  next_point_id_ =
      static_cast<PointId>(config_.num_peers) * config_.points_per_peer;
  preprocessed_ = true;
  return stats;
}

Status SkypeerNetwork::AdoptStores(std::vector<ResultList> stores) {
  if (preprocessed_) {
    return Status::FailedPrecondition("network is already preprocessed");
  }
  if (static_cast<int>(stores.size()) != num_super_peers()) {
    return Status::InvalidArgument("store count does not match super-peers");
  }
  size_t total = 0;
  for (const ResultList& store : stores) {
    if (store.points.dims() != config_.dims) {
      return Status::InvalidArgument("store dimensionality mismatch");
    }
    if (!store.IsSorted()) {
      return Status::InvalidArgument("store is not f-sorted");
    }
    total += store.size();
  }
  for (int sp = 0; sp < num_super_peers(); ++sp) {
    super_peers_[sp]->set_enable_cache(config_.enable_cache);
    super_peers_[sp]->set_block_skip(config_.block_skip);
    super_peers_[sp]->set_filter_set_size(config_.filter_set_size);
    super_peers_[sp]->SetStore(std::move(stores[sp]));
  }
  // Only the retained fraction is known after a restore.
  total_points_ = total;
  preprocessed_ = true;
  return Status::OK();
}

Status SkypeerNetwork::JoinPeer(int super_peer, PointSet data,
                                int* out_peer_id, OpCounts* maintenance_ops) {
  if (!preprocessed_) {
    return Status::FailedPrecondition("network is not preprocessed yet");
  }
  if (!config_.dynamic_membership) {
    return Status::FailedPrecondition(
        "dynamic_membership is disabled in the configuration");
  }
  if (super_peer < 0 || super_peer >= num_super_peers()) {
    return Status::OutOfRange("no such super-peer");
  }
  if (data.dims() != config_.dims) {
    return Status::InvalidArgument("dimensionality mismatch");
  }

  // Re-identify the points so ids stay globally unique.
  PointSet fresh(config_.dims);
  fresh.Reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    fresh.Append(data[i], next_point_id_ + i);
  }
  const int peer_id = next_peer_id_++;
  peer_point_ranges_[peer_id] = {
      next_point_id_, next_point_id_ + static_cast<PointId>(fresh.size())};
  next_point_id_ += fresh.size();
  total_points_ += fresh.size();
  if (config_.retain_peer_data) {
    all_data_.AppendAll(fresh);
  }

  Peer peer(peer_id, std::move(fresh));
  SKYPEER_RETURN_IF_ERROR(super_peers_[super_peer]->JoinPeer(
      peer_id, peer.ComputeExtendedSkyline(), maintenance_ops));

  // Overlay bookkeeping.
  overlay_.peer_super_peer.resize(
      std::max<size_t>(overlay_.peer_super_peer.size(), peer_id + 1), -1);
  overlay_.peer_super_peer[peer_id] = super_peer;
  overlay_.super_peer_peers[super_peer].push_back(peer_id);

  if (out_peer_id != nullptr) {
    *out_peer_id = peer_id;
  }
  return Status::OK();
}

Status SkypeerNetwork::RemovePeer(int peer_id, OpCounts* maintenance_ops) {
  if (!config_.dynamic_membership) {
    return Status::FailedPrecondition(
        "dynamic_membership is disabled in the configuration");
  }
  const auto range_it = peer_point_ranges_.find(peer_id);
  if (range_it == peer_point_ranges_.end()) {
    return Status::NotFound("unknown peer id");
  }
  const int super_peer = overlay_.peer_super_peer[peer_id];
  SKYPEER_RETURN_IF_ERROR(
      super_peers_[super_peer]->RemovePeer(peer_id, maintenance_ops));

  const auto [lo, hi] = range_it->second;
  total_points_ -= static_cast<size_t>(hi - lo);
  peer_point_ranges_.erase(range_it);
  if (config_.retain_peer_data) {
    PointSet remaining(config_.dims);
    remaining.Reserve(all_data_.size());
    for (size_t i = 0; i < all_data_.size(); ++i) {
      if (all_data_.id(i) < lo || all_data_.id(i) >= hi) {
        remaining.AppendFrom(all_data_, i);
      }
    }
    all_data_ = std::move(remaining);
  }

  // Overlay bookkeeping.
  overlay_.peer_super_peer[peer_id] = -1;
  auto& peers = overlay_.super_peer_peers[super_peer];
  peers.erase(std::find(peers.begin(), peers.end(), peer_id));
  return Status::OK();
}

SkypeerNetwork::RunOutcome SkypeerNetwork::RunOnce(
    Subspace subspace, int initiator_sp, Variant variant,
    const sim::LinkParams& params, ResultList* result) {
  simulator_.Reset();
  simulator_.SetAllLinkParams(params);
  for (auto& sp : super_peers_) {
    sp->ResetProtocolState();
    sp->set_measure_cpu(config_.measure_cpu);
  }

  // Scheduled-churn maintenance ticks riding on this query (see
  // ExecuteQuery): identical timers in both simulation runs, so the
  // charged maintenance cost shapes both measured times the same way.
  // A tick whose node is crashed at fire time is suppressed by the
  // simulator like any other timer — churn composes with crash windows.
  for (const ChurnTick& tick : pending_ticks_) {
    auto body = std::make_shared<ChurnTickMessage>();
    body->ops = tick.ops;
    simulator_.ScheduleTimer(tick.node, tick.time, std::move(body));
  }

  // Stage the per-super-peer local scans concurrently when the variant's
  // scan thresholds are known up front: infinity everywhere for naive;
  // for FT*M the initiator computes first (threshold infinity) and every
  // other node then scans under the initiator's flooded value. The
  // simulator consumes the staged results when it replays the protocol,
  // so results and simulated metrics match the sequential run exactly.
  ThreadPool* staging_pool = pool();
  const int num_sp = num_super_peers();
  if (staging_pool->num_threads() > 1 && num_sp > 1) {
    if (SupportsParallelLocalScan(variant)) {
      double threshold = std::numeric_limits<double>::infinity();
      std::shared_ptr<const ResultList> filter;
      if (variant != Variant::kNaive) {
        super_peers_[initiator_sp]->StageLocalScan(subspace, variant,
                                                   threshold);
        threshold = super_peers_[initiator_sp]->StagedThreshold();
        if (config_.filter_set_size > 0) {
          // The filter the protocol will broadcast: sampled from the
          // initiator's staged local result. Selection ops are charged by
          // the protocol run itself (`MaybeSelectFilter`), not here.
          filter =
              BuildQueryFilter(*super_peers_[initiator_sp]->StagedLocal(),
                               subspace, config_.filter_set_size, nullptr);
        }
      }
      staging_pool->ParallelFor(num_sp, [&](size_t sp) {
        if (variant != Variant::kNaive &&
            static_cast<int>(sp) == initiator_sp) {
          return;  // Already staged above (under threshold infinity).
        }
        super_peers_[sp]->StageLocalScan(subspace, variant, threshold,
                                         filter);
      });
    } else if (config_.speculative_rt && RefinesThresholdOnPath(variant)) {
      // Speculative wave for the threshold-refining variants: the
      // initiator scans under infinity exactly as the protocol will, and
      // every other node pre-scans under the initiator's fixed threshold
      // — provably an upper bound on whatever refined value reaches it,
      // so `ComputeLocal` can reconcile the staged scan into the exact
      // sequential result when the true threshold arrives.
      super_peers_[initiator_sp]->StageLocalScan(
          subspace, variant, std::numeric_limits<double>::infinity());
      const double fixed = super_peers_[initiator_sp]->StagedThreshold();
      std::shared_ptr<const ResultList> filter;
      if (config_.filter_set_size > 0) {
        filter = BuildQueryFilter(*super_peers_[initiator_sp]->StagedLocal(),
                                  subspace, config_.filter_set_size, nullptr);
      }
      staging_pool->ParallelFor(num_sp, [&](size_t sp) {
        if (static_cast<int>(sp) == initiator_sp) {
          return;
        }
        super_peers_[sp]->StageSpeculativeScan(subspace, variant, fixed,
                                               filter);
      });
    }
  }

  auto start = std::make_shared<StartQueryMessage>();
  start->query_id = next_query_id_++;
  start->subspace = subspace;
  start->variant = variant;
  if (variant == Variant::kPipeline) {
    start->route = overlay_.backbone.EulerTourWalk(initiator_sp);
  }
  simulator_.Post(initiator_sp, std::move(start));
  // Retransmission give-up bounds make faulty runs terminate on their
  // own; the event budget is a safety valve that turns any residual
  // livelock into a crash instead of a hang.
  sim::RunBudget budget;
  if (config_.reliable) {
    budget.max_events = 200'000'000;
  }
  const sim::RunStatus status = simulator_.Run(budget);
  SKYPEER_CHECK(status == sim::RunStatus::kCompleted);

  SuperPeer* initiator = super_peers_[initiator_sp].get();
  RunOutcome outcome;
  outcome.finished = initiator->finished();
  if (!config_.reliable) {
    SKYPEER_CHECK(outcome.finished);
  }
  if (outcome.finished) {
    *result = initiator->final_result();
    outcome.completion_s = initiator->finish_time();
    if (config_.reliable) {
      outcome.partial = initiator->partial();
      outcome.coverage = initiator->coverage();
    }
  } else {
    // The initiator itself was crashed (or the walk stranded with no
    // deadline set): a graceful empty partial answer instead of a CHECK.
    *result = ResultList(config_.dims);
    outcome.completion_s = simulator_.now();
    outcome.partial = true;
  }
  outcome.bytes = simulator_.total_bytes();
  outcome.messages = simulator_.num_messages();
  for (const auto& sp : super_peers_) {
    outcome.ops += sp->last_query_stats().ops;
  }
  if (config_.reliable) {
    outcome.dropped = simulator_.dropped_messages();
    for (const auto& sp : super_peers_) {
      const SuperPeer::ReliabilityStats& rstats = sp->reliability_stats();
      outcome.retransmits += rstats.retransmits;
      outcome.gave_up += rstats.gave_up;
      const SuperPeer::LastQueryStats stats = sp->last_query_stats();
      if (stats.participated) {
        ++outcome.participated;
        outcome.scanned += stats.scanned;
        outcome.local_points += stats.local_result;
      }
    }
  }
  return outcome;
}

QueryResult SkypeerNetwork::ExecuteQuery(Subspace subspace, int initiator_sp,
                                         Variant variant) {
  SKYPEER_CHECK(preprocessed_);
  SKYPEER_CHECK(!subspace.empty());
  SKYPEER_CHECK(Subspace::FullSpace(config_.dims).IsSupersetOf(subspace));
  SKYPEER_CHECK(initiator_sp >= 0 && initiator_sp < num_super_peers());

  // Scheduled churn riding on this query slot: pin every super-peer's
  // pre-churn store epoch, then apply the slot's membership changes
  // durably. The pinned epochs keep both simulation runs serving the
  // stores the query started on — an in-flight query is never torn by an
  // install — while the maintenance cost lands on the affected node's
  // virtual clock at the event's seeded in-query time (the ticks below,
  // scheduled by RunOnce in both runs). The *next* query sees the
  // post-churn stores.
  std::vector<uint64_t> pinned_epochs;
  if (!churn_plan_.empty()) {
    const int slot = churn_slot_++;
    const auto [begin, end] = churn_plan_.SlotRange(slot);
    if (begin != end) {
      pinned_epochs.reserve(super_peers_.size());
      for (auto& sp : super_peers_) {
        pinned_epochs.push_back(sp->PinStoreEpoch());
      }
      for (size_t i = begin; i < end; ++i) {
        const sim::ChurnEvent& event = churn_plan_.events[i];
        ChurnTick tick;
        tick.node = event.node;
        tick.time = event.time;
        SKYPEER_CHECK(ApplyChurnEvent(event, &tick.ops).ok());
        pending_ticks_.push_back(std::move(tick));
      }
    }
  }

  QueryResult query_result;
  const auto clear_scan_memos = [this] {
    for (auto& sp : super_peers_) {
      sp->ClearScanMemo();
    }
  };
  clear_scan_memos();

  // Run 1: configured links — total response time and traffic volume.
  const sim::LinkParams network_params{config_.bandwidth, config_.latency};
  const RunOutcome total = RunOnce(subspace, initiator_sp, variant,
                                   network_params, &query_result.skyline);

  // Run 2: infinite bandwidth — pure computational critical path. Every
  // node keeps its last local scan in its scan memo, so each scan whose
  // inputs repeat run 1's (all of them for naive and FT*M, fault-free)
  // is reused and charged exactly as run 1 charged it.
  const sim::LinkParams compute_params{sim::kInfiniteBandwidth, 0.0};
  ResultList compute_result(config_.dims);
  const RunOutcome compute = RunOnce(subspace, initiator_sp, variant,
                                     compute_params, &compute_result);
  clear_scan_memos();
#ifndef NDEBUG
  // Fault-free, both runs answer with the same skyline.
  if (!config_.reliable) {
    const auto sorted_ids = [](const ResultList& list) {
      std::vector<PointId> ids = list.points.Ids();
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    SKYPEER_DCHECK(sorted_ids(compute_result) ==
                   sorted_ids(query_result.skyline));
  }
#endif

  // Both runs are done: release the pinned pre-churn epochs (retired
  // stores drop now — pages included) and retire the ticks.
  pending_ticks_.clear();
  for (size_t sp = 0; sp < pinned_epochs.size(); ++sp) {
    super_peers_[sp]->UnpinStoreEpoch(pinned_epochs[sp]);
  }

  query_result.metrics.total_time_s = total.completion_s;
  query_result.metrics.computational_time_s = compute.completion_s;
  query_result.metrics.bytes_transferred = total.bytes;
  query_result.metrics.messages = total.messages;
  query_result.metrics.result_size = query_result.skyline.size();
  // Like volume/messages this reports run 1 — under faults the compute
  // run can realize a different pattern; fault-free runs count the same.
  query_result.metrics.ops = total.ops;
  if (config_.reliable) {
    // Reliable mode reports run 1 (configured links): under faults the
    // two runs realize different timings and thus potentially different
    // fault patterns, and run 1 is the measurement the answer came from.
    query_result.metrics.partial = total.partial;
    query_result.metrics.super_peers_reached =
        static_cast<int>(total.coverage.size());
    query_result.metrics.covered = total.coverage;
    query_result.metrics.super_peers_total = num_super_peers();
    query_result.metrics.retransmits = total.retransmits;
    query_result.metrics.hops_gave_up = total.gave_up;
    query_result.metrics.messages_dropped = total.dropped;
    query_result.metrics.super_peers_participated = total.participated;
    query_result.metrics.store_points_scanned = total.scanned;
    query_result.metrics.local_result_points = total.local_points;
    return query_result;
  }
  // Per-node counters of the compute run (identical protocol trace; the
  // states are still live after RunOnce).
  for (const auto& sp : super_peers_) {
    const SuperPeer::LastQueryStats stats = sp->last_query_stats();
    if (stats.participated) {
      ++query_result.metrics.super_peers_participated;
      query_result.metrics.store_points_scanned += stats.scanned;
      query_result.metrics.local_result_points += stats.local_result;
    }
  }
  return query_result;
}

std::unique_ptr<SkypeerNetwork> SkypeerNetwork::CloneForQueries() const {
  SKYPEER_CHECK(preprocessed_);
  NetworkConfig config = config_;
  // Replicas only serve queries: no raw data, no churn bookkeeping or
  // schedule (the original owns all membership changes), and no private
  // pool of their own — they share the parent's (below), so a workload's
  // nested ParallelFor calls stay re-entrant on one pool.
  config.retain_peer_data = false;
  config.dynamic_membership = false;
  config.churn_events = 0;
  config.threads = 0;
  auto clone = std::make_unique<SkypeerNetwork>(config);
  clone->pool_ = pool_;
  std::vector<ResultList> stores;
  stores.reserve(super_peers_.size());
  for (const auto& sp : super_peers_) {
    stores.push_back(sp->MaterializeStore());
  }
  SKYPEER_CHECK(clone->AdoptStores(std::move(stores)).ok());
  // Share the result cache *after* AdoptStores: a replica's stores are
  // copies of the parent's, so the parent's warm entries stay valid —
  // installing the shared cache after the SetStore invalidations (which
  // only touched the clone's empty private cache) preserves them. The
  // entries are keyed by store epoch, so each replica store takes its
  // parent's epoch: after churn the parent sits past epoch 1, where the
  // replica's own install would put it.
  for (size_t sp = 0; sp < super_peers_.size(); ++sp) {
    clone->super_peers_[sp]->AdoptStoreEpoch(
        super_peers_[sp]->store_epoch());
  }
  if (result_cache_ != nullptr) {
    clone->result_cache_ = result_cache_;
    for (auto& sp : clone->super_peers_) {
      sp->SetResultCache(result_cache_);
    }
  }
  clone->total_points_ = total_points_;
  return clone;
}

Status SkypeerNetwork::ReplacePeerData(int peer_id, PointSet data,
                                       OpCounts* maintenance_ops) {
  if (!config_.dynamic_membership) {
    return Status::FailedPrecondition(
        "dynamic_membership is disabled in the configuration");
  }
  const auto range_it = peer_point_ranges_.find(peer_id);
  if (range_it == peer_point_ranges_.end()) {
    return Status::NotFound("unknown peer id");
  }
  if (data.dims() != config_.dims) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  const int super_peer = overlay_.peer_super_peer[peer_id];
  SKYPEER_RETURN_IF_ERROR(RemovePeer(peer_id, maintenance_ops));
  // Rejoin under the same super-peer; the peer receives a fresh id (point
  // ids must stay globally unique across the update).
  return JoinPeer(super_peer, std::move(data), nullptr, maintenance_ops);
}

PointSet SkypeerNetwork::GroundTruthSkyline(Subspace subspace) const {
  SKYPEER_CHECK(config_.retain_peer_data);
  return SfsSkyline(all_data_, subspace);
}

}  // namespace skypeer
