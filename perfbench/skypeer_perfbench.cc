// Benchmark program for the SKYPEER library: runs one phase of one named
// workload in this process and prints its measurements as a single JSON
// object on stdout. `perfbench/run.py` composes the phases into the
// repository benchmark; `perfbench/README.md` explains the workloads and
// metrics.
//
// Phases (--mode):
//   latency     closed loop of ExecuteQuery at 1 thread, answers checked
//               against the skyline of the union of the super-peer stores
//   throughput  timed set-ups at nproc threads, then the same task list
//               through RunWorkload (replicas) at nproc threads
//   truth       untimed sample checked against GroundTruthSkyline
//               (retain_peer_data inflates memory, so never timed)
//   trace       per-layer spans and counters (see README.md)
//
// The program touches the library only through its public calls and sets
// only input and deployment properties (data, topology, links, faults,
// buffer pool size, membership changes); every engine option keeps its
// default.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "skypeer/algo/extended_skyline.h"
#include "skypeer/algo/merge.h"
#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/dominance_batch.h"
#include "skypeer/common/parse.h"
#include "skypeer/common/rng.h"
#include "skypeer/common/thread_pool.h"
#include "skypeer/data/generator.h"
#include "skypeer/engine/experiment.h"
#include "skypeer/engine/network_builder.h"
#include "skypeer/engine/wire.h"
#include "skypeer/sim/churn_plan.h"
#include "skypeer/storage/store_view.h"
#include "skypeer/topology/overlay.h"

namespace skypeer {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// CPU time of the calling thread, in ms. Work that runs on one thread
// (the 1-thread loops run every query and membership event inline) is
// timed with it: wall time on a shared VM also counts the time the vCPU
// was descheduled, which moved a fixed loop's wall time by +-20% from run
// to run while its CPU time moved by 3%. Multi-threaded work (set-up, the
// replica batch) is timed by wall clock.
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Each query task runs under one variant, cycling in this fixed order so
// every protocol path is in the mix.
constexpr Variant kVariantCycle[] = {Variant::kNaive, Variant::kFTFM,
                                     Variant::kFTPM,  Variant::kRTFM,
                                     Variant::kRTPM,  Variant::kPipeline};
constexpr size_t kNumVariants = std::size(kVariantCycle);

// Length of the generated task list and churn plan; every phase takes a
// prefix of the same list, so all phases of a seed see the same inputs.
constexpr size_t kTaskListSize = 20000;
constexpr int kChurnPlanSize = 4096;
// Largest --seconds: the longest loop, the static workload's replica
// batch of 2 x 0.55 x 30 queries per second of it, must fit the task list.
constexpr double kMaxSeconds = 600.0;
// Set-ups timed per throughput run (setup_s is their median).
constexpr int kSetupRepeats = 5;
// A tail percentile needs at least this many samples beyond it.
constexpr size_t kTailBeyond = 10;
// Distinct subspaces whose batch answer sizes the throughput run checks.
constexpr size_t kBatchCheckedSubspaces = 24;
// Points of the membership history at which the ground-truth pass checks
// one query per variant.
constexpr size_t kTruthCheckpoints = 3;

// Threads of set-up, the replica batch and the answer checker: nproc, at
// most 8.
int NprocThreads() {
  static const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 8u));
  return threads;
}

// ---------------------------------------------------------------------
// Workloads

// Query dimensionality of every workload.
constexpr int kQueryDims = 3;
// A paged store must be at least this many times larger than its pool.
constexpr double kMinStoreToPool = 10.0;

struct WorkloadSpec {
  NetworkConfig config;
  // Sizes the fixed amount of work a run does: queries per second of
  // --seconds, measured once on a 4-core x86-64 host. A run does the same
  // work on every commit, so a faster commit simply finishes sooner.
  double queries_per_second = 10.0;
  // The same for the update probe of the static workload: membership
  // events on a second network of the same configuration, interleaved in
  // time with the query loop.
  double probe_events_per_second = 0.0;
  // One seeded membership event before every query.
  bool churn_per_query = false;
};

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* w) {
  // Both workloads share the paper's defaults (uniform, d=8, 250 points
  // per peer) at 2000 peers and 100 super-peers on 4 KB/s links.
  NetworkConfig& c = w->config;
  c.seed = seed;
  c.cost_model = CostModel::Calibrated();
  c.num_peers = 2000;
  c.num_super_peers = 100;
  c.points_per_peer = 250;
  c.dims = 8;
  c.distribution = Distribution::kUniform;
  c.bandwidth = 4096.0;
  // Every workload can change membership: the churn workload between
  // queries, the static one in the update probe.
  c.dynamic_membership = true;
  if (name == "uniform_static") {
    w->queries_per_second = 30.0;
    w->probe_events_per_second = 12.0;
    return true;
  }
  if (name == "uniform_churn_paged_lossy") {
    c.buffer_pages = 256;
    c.reliable = true;
    c.drop_prob = 0.05;
    c.delay_jitter = 0.05;
    w->churn_per_query = true;
    w->queries_per_second = 10.0;
    return true;
  }
  return false;
}

// Query subspaces are uniform over the k-subsets, initiators uniform.
std::vector<QueryTask> MakeTasks(const WorkloadSpec& w, int num_sp,
                                 uint64_t seed) {
  return GenerateWorkload(w.config.dims, kQueryDims,
                          static_cast<int>(kTaskListSize), num_sp,
                          seed ^ 0x7a5c7a5c7a5c7a5cULL);
}

// Share of --seconds the 1-thread query loop of the latency phase runs for.
constexpr double kLatencyShare = 0.55;
// The replica batch runs this many times the latency loop's queries: a
// batch of a few seconds moved queries_per_s with every burst of host load.
constexpr double kBatchScale = 2.0;

// Queries a loop runs for `share` of --seconds: a whole number of variant
// cycles, at least two, and never more than the task list holds.
size_t LoopQueries(const WorkloadSpec& w, double seconds, double share) {
  const double target = w.queries_per_second * seconds * share;
  const size_t cycles = static_cast<size_t>(std::ceil(target / kNumVariants));
  const size_t queries = kNumVariants * std::max<size_t>(cycles, 2);
  SKYPEER_CHECK(queries <= kTaskListSize);
  return queries;
}

sim::ChurnPlan MakeChurnPlan(int num_sp, uint64_t seed) {
  return sim::ChurnPlan::Seeded(kChurnPlanSize, /*rate=*/0.05,
                                seed ^ 0xc0ffee11c0ffee11ULL, kChurnPlanSize,
                                num_sp);
}

// The i-th membership event a run applies: the plan's seeded node and
// data, with the kind cycling join, remove, replace so every run applies
// the three kinds in equal shares (their costs differ several-fold).
sim::ChurnEvent ChurnEventAt(const sim::ChurnPlan& plan, size_t i) {
  static constexpr sim::ChurnKind kKinds[] = {
      sim::ChurnKind::kJoin, sim::ChurnKind::kRemove, sim::ChurnKind::kReplace};
  sim::ChurnEvent event = plan.events[i % plan.size()];
  event.kind = kKinds[i % std::size(kKinds)];
  return event;
}

// ---------------------------------------------------------------------
// Answer checking

// An answer reduced to what must match: its ids in ascending order and a
// hash of every coordinate in that order.
struct Answer {
  std::vector<PointId> ids;
  uint64_t coord_hash = 0;
  bool operator==(const Answer& other) const {
    return ids == other.ids && coord_hash == other.coord_hash;
  }
};

Answer Fingerprint(const PointSet& points) {
  std::vector<size_t> order(points.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return points.id(a) < points.id(b);
  });
  Answer answer;
  answer.ids.reserve(order.size());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i : order) {
    answer.ids.push_back(points.id(i));
    const double* row = points[i];
    for (int d = 0; d < points.dims(); ++d) {
      uint64_t bits = 0;
      std::memcpy(&bits, &row[d], sizeof(bits));
      h = (h ^ bits) * 0x100000001b3ULL;
    }
  }
  answer.coord_hash = h;
  return answer;
}

// The skyline of the union of the super-peer stores, built from
// SortedSkyline and MergeSortedSkylines, cached per subspace until the
// next membership change.
class UnionOracle {
 public:
  UnionOracle(const SkypeerNetwork* net, ThreadPool* pool)
      : net_(net), pool_(pool) {}

  const Answer& Get(Subspace u) {
    auto it = cache_.find(u.mask());
    if (it != cache_.end()) {
      return it->second;
    }
    const int num_sp = net_->num_super_peers();
    std::vector<ResultList> locals(num_sp, ResultList(net_->dims()));
    pool_->ParallelFor(static_cast<size_t>(num_sp), [&](size_t sp) {
      locals[sp] = SortedSkyline(net_->super_peer(static_cast<int>(sp)).View(),
                                 u);
    });
    const ResultList merged = MergeSortedSkylines(net_->dims(), locals, u);
    return cache_.emplace(u.mask(), Fingerprint(merged.points)).first->second;
  }

  void Invalidate() { cache_.clear(); }

 private:
  const SkypeerNetwork* net_;
  ThreadPool* pool_;
  std::map<uint32_t, Answer> cache_;
};

// Counts attempted and failed queries and keeps the first few failures.
class Verdicts {
 public:
  void Attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (messages_.size() < 5) {
        messages_.push_back(what);
      }
    }
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Records a failed membership event (successful events are not counted).
void CheckEvent(const Status& status, Verdicts* verdicts) {
  if (!status.ok()) {
    verdicts->Attempt(false, "membership event failed: " + status.ToString());
  }
}

std::string Describe(const QueryTask& task, Variant variant) {
  return std::string(VariantName(variant)) + " mask=" +
         std::to_string(task.subspace.mask()) +
         " init=" + std::to_string(task.initiator_sp);
}

// Replaces one coordinate so the answer no longer matches (self-test of
// the checker).
void CorruptAnswer(ResultList* skyline) {
  if (skyline->empty()) {
    std::vector<double> row(skyline->points.dims(), 0.5);
    skyline->points.Append(row.data(), 0);
    skyline->f.push_back(0.5);
    return;
  }
  skyline->points.mutable_row(0)[0] += 1.0;
}

// ---------------------------------------------------------------------
// Statistics

// Medians and tails are the library's nearest-rank percentiles
// (MetricSeries::Percentile).
double Median(const MetricSeries& samples) { return samples.Percentile(50.0); }

// Highest nearest-rank percentile with at least kTailBeyond samples beyond
// it (the maximum when there are too few samples).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  size_t samples = 0;
};

Tail TailOf(const MetricSeries& samples) {
  Tail tail;
  const size_t n = samples.count();
  tail.samples = n;
  if (n == 0) {
    return tail;
  }
  const size_t rank = n > kTailBeyond ? n - kTailBeyond : n;
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  // Asking for the middle of the rank's interval keeps rounding from moving
  // Percentile's ceil(p / 100 * n) to the next rank.
  tail.value = samples.Percentile(100.0 * (static_cast<double>(rank) - 0.5) /
                                  static_cast<double>(n));
  return tail;
}

// Moves the calling thread to the next vCPU this process may run on, one
// per Next() call, and gives it back all of them when destroyed. On a
// shared host each vCPU runs fast or slow for seconds at a time as other
// tenants load its core: the same query took 28 ms on one vCPU and 47 ms
// on another in the same second. A 1-thread loop left on one vCPU would
// time that vCPU's spell; rotating over all of them times their average.
class VcpuRotation {
 public:
  VcpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  VcpuRotation(const VcpuRotation&) = delete;
  VcpuRotation& operator=(const VcpuRotation&) = delete;
  ~VcpuRotation() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Seconds the hypervisor ran something else while this VM's vCPUs wanted
// to run (the "steal" column of /proc/stat, summed over vCPUs); 0 where the
// kernel does not report it.
double StolenSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  stat >> cpu;
  for (uint64_t& field : fields) {
    stat >> field;
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return stat && cpu == "cpu" && ticks > 0
             ? static_cast<double>(fields[7]) / static_cast<double>(ticks)
             : 0.0;
}

// Wall-clock stopwatch for work that keeps every vCPU busy (set-up and
// the replica batch at nproc threads). It leaves out the time the
// hypervisor took from the vCPUs meanwhile (stolen time, averaged per
// vCPU): on a shared VM that alone swung queries_per_s by up to 12% from
// run to run.
class UnstolenTimer {
 public:
  UnstolenTimer() : start_(Clock::now()), stolen_(StolenSeconds()) {}

  double WallSeconds() const { return MsSince(start_) / 1000.0; }

  double StolenPerVcpu() const {
    return (StolenSeconds() - stolen_) /
           std::max(1u, std::thread::hardware_concurrency());
  }

  double Seconds() const {
    const double wall = WallSeconds();
    return std::max(wall - StolenPerVcpu(), 0.5 * wall);
  }

 private:
  Clock::time_point start_;
  double stolen_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// R-tree visits are read through a requires-expression so the benchmark
// keeps compiling once the R-tree and its counter are deleted.
template <typename Ops>
uint64_t RtreeVisits(const Ops& ops) {
  if constexpr (requires { ops.rtree_node_visits; }) {
    return ops.rtree_node_visits;
  } else {
    return 0;
  }
}

// Turns on the library's check of every incremental store removal
// against a full rebuild (it fails the process on any divergence), while
// the configuration still has that check.
template <typename Config>
void VerifyMaintenance(Config* config) {
  if constexpr (requires { config->verify_maintenance; }) {
    config->verify_maintenance = true;
  }
}

// ---------------------------------------------------------------------
// JSON output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    json_.Raw(name, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  std::string str() const { return json_.str(); }

 private:
  JsonObject json_;
};

// A JSON array of already-encoded values.
std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

void PrintResult(const std::string& mode, const Verdicts& verdicts,
                 const MetricSet& metrics, const JsonObject& properties) {
  std::vector<std::string> failures;
  for (const std::string& message : verdicts.messages()) {
    failures.push_back(JsonString(message));
  }
  JsonObject out;
  out.Str("mode", mode)
      .Num("attempted", static_cast<double>(verdicts.attempted()))
      .Num("failed", static_cast<double>(verdicts.failed()))
      .Raw("failures", JsonArray(failures))
      .Raw("metrics", metrics.str())
      .Raw("properties", properties.str());
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Shared helpers

struct Args {
  std::string workload;
  std::string mode = "latency";
  uint64_t seed = 1;
  double seconds = 10.0;
  size_t events = 0;
  long long corrupt_answer = -1;
  std::string spans_path;
};

std::unique_ptr<SkypeerNetwork> Build(const WorkloadSpec& w,
                                      PreprocessStats* stats) {
  auto net = std::make_unique<SkypeerNetwork>(w.config);
  *stats = net->Preprocess();
  return net;
}

size_t StorePages(const SkypeerNetwork& net) {
  const PageLayout layout(net.config().page_size, net.dims());
  size_t pages = 0;
  for (int sp = 0; sp < net.num_super_peers(); ++sp) {
    pages += layout.PagesForPoints(net.super_peer(sp).StoreSize());
  }
  return pages;
}

size_t StorePoints(const SkypeerNetwork& net) {
  size_t points = 0;
  for (int sp = 0; sp < net.num_super_peers(); ++sp) {
    points += net.super_peer(sp).StoreSize();
  }
  return points;
}

void AddStoreProperties(const WorkloadSpec& w, const SkypeerNetwork& net,
                        const PreprocessStats& pre, JsonObject* props) {
  const size_t pages = StorePages(net);
  props->Num("total_points", static_cast<double>(pre.total_points))
      .Num("store_points", static_cast<double>(StorePoints(net)))
      .Num("sel_p", pre.sel_p())
      .Num("sel_sp", pre.sel_sp())
      .Num("store_pages", static_cast<double>(pages))
      .Num("pool_pages", static_cast<double>(w.config.buffer_pages))
      .Num("store_to_pool_ratio",
           w.config.buffer_pages == 0
               ? 0.0
               : static_cast<double>(pages) / w.config.buffer_pages)
      .Str("kernel_mode", DomKernelModeName(ActiveDomKernelMode()));
}

// Checks one answer: a partial answer or a mismatch is a failure.
void CheckAnswer(const QueryResult& result, const Answer& expected,
                 const std::string& what, Verdicts* verdicts) {
  if (result.metrics.partial) {
    verdicts->Attempt(false, "partial answer: " + what);
    return;
  }
  verdicts->Attempt(Fingerprint(result.skyline.points) == expected,
                    "answer differs from the union-of-stores skyline: " +
                        what);
}

double SubspaceRepeatShare(const std::vector<QueryTask>& tasks, size_t n) {
  std::set<uint32_t> seen;
  size_t repeats = 0;
  for (size_t i = 0; i < n; ++i) {
    repeats += seen.insert(tasks[i].subspace.mask()).second ? 0 : 1;
  }
  return n == 0 ? 0.0 : static_cast<double>(repeats) / n;
}

// ---------------------------------------------------------------------
// --mode latency

// Builds the network a 1-thread query loop runs on. Resident networks
// are built at nproc threads and then pinned to 1 thread. A paged network
// is built at 1 thread: its buffer manager keeps the global pool it was
// created with, and SetGlobalConcurrency replaces (frees) that pool.
std::unique_ptr<SkypeerNetwork> BuildForSerialLoop(const WorkloadSpec& w,
                                                   PreprocessStats* stats) {
  ThreadPool::SetGlobalConcurrency(w.config.buffer_pages > 0 ? 1
                                                             : NprocThreads());
  std::unique_ptr<SkypeerNetwork> net = Build(w, stats);
  ThreadPool::SetGlobalConcurrency(1);
  return net;
}

// The network the answer oracle and the trace replays read. On a paged
// workload it is a twin of the measured network: built from the same
// configuration and given the same membership events, so its stores equal
// the measured network's, while its buffer pool and page file are its own,
// so no timed ExecuteQuery starts from a pool the checker has warmed.
// Resident stores have no pool to warm; there the measured network checks
// itself, which keeps a twin's memory out of peak_rss_mb.
class CheckerNetwork {
 public:
  CheckerNetwork(const WorkloadSpec& w, const SkypeerNetwork* measured) {
    if (w.config.buffer_pages > 0) {
      PreprocessStats unused;
      twin_ = BuildForSerialLoop(w, &unused);
    }
    net_ = twin_ != nullptr ? twin_.get() : measured;
  }

  const SkypeerNetwork* get() const { return net_; }

  // Applies to the twin a membership event the measured network applied.
  Status Mirror(const sim::ChurnEvent& event) {
    return twin_ != nullptr ? twin_->ApplyChurnEvent(event) : Status::OK();
  }

 private:
  std::unique_ptr<SkypeerNetwork> twin_;
  const SkypeerNetwork* net_ = nullptr;
};

int RunLatency(const Args& a, const WorkloadSpec& w) {
  ThreadPool checker_pool(NprocThreads());
  PreprocessStats pre;
  std::unique_ptr<SkypeerNetwork> net = BuildForSerialLoop(w, &pre);
  CheckerNetwork checker(w, net.get());
  const int num_sp = net->num_super_peers();
  const std::vector<QueryTask> tasks = MakeTasks(w, num_sp, a.seed);
  const sim::ChurnPlan plan = MakeChurnPlan(num_sp, a.seed);
  UnionOracle oracle(checker.get(), &checker_pool);
  Verdicts verdicts;
  JsonObject props;
  AddStoreProperties(w, *net, pre, &props);
  if (w.config.buffer_pages > 0 &&
      static_cast<double>(StorePages(*net)) <
          kMinStoreToPool * w.config.buffer_pages) {
    verdicts.Attempt(false, "store is not 10x larger than the buffer pool");
  }

  MetricSeries latency_ms;
  MetricSeries update_ms;
  double kb_total = 0.0;
  // Applies the index-th membership event to `target`, timed.
  auto apply_event = [&](SkypeerNetwork* target, size_t index) {
    const sim::ChurnEvent event = ChurnEventAt(plan, index);
    const double start = ThreadCpuMs();
    const Status status = target->ApplyChurnEvent(event);
    update_ms.Add(ThreadCpuMs() - start);
    CheckEvent(status, &verdicts);
    return event;
  };

  const size_t queries = LoopQueries(w, a.seconds, kLatencyShare);
  // The update probe of the static workload changes the membership of a
  // second network, never queried, so the measured one stays static. Its
  // events are spread evenly over the query loop so that updates and
  // queries are timed over the same stretch of host load: a probe of a few
  // seconds moved its median with every burst of load from other tenants.
  const size_t probe_events = static_cast<size_t>(
      std::ceil(w.probe_events_per_second * a.seconds));
  std::unique_ptr<SkypeerNetwork> probe_net;
  if (probe_events > 0) {
    PreprocessStats unused;
    probe_net = BuildForSerialLoop(w, &unused);
  }
  size_t probed = 0;
  VcpuRotation rotation;
  const auto loop_start = Clock::now();
  size_t n = 0;
  while (n < queries) {
    rotation.Next();
    if (w.churn_per_query) {
      CheckEvent(checker.Mirror(apply_event(net.get(), n)), &verdicts);
      oracle.Invalidate();
    }
    const QueryTask& task = tasks[n];
    const Variant variant = kVariantCycle[n % kNumVariants];
    const double start = ThreadCpuMs();
    QueryResult result =
        net->ExecuteQuery(task.subspace, task.initiator_sp, variant);
    latency_ms.Add(ThreadCpuMs() - start);
    kb_total += result.metrics.volume_kb();
    if (static_cast<long long>(n) == a.corrupt_answer) {
      CorruptAnswer(&result.skyline);
    }
    CheckAnswer(result, oracle.Get(task.subspace), Describe(task, variant),
                &verdicts);
    ++n;
    for (; probed < probe_events * n / queries; ++probed) {
      apply_event(probe_net.get(), probed);
    }
  }
  const double loop_ms = MsSince(loop_start);
  // Membership events the measured network applied (the probe's are not).
  const size_t loop_events = w.churn_per_query ? n : 0;

  const Tail query_tail = TailOf(latency_ms);
  const Tail update_tail = TailOf(update_ms);
  MetricSet metrics;
  metrics.Add("query_p50_ms", Median(latency_ms), "ms");
  metrics.Add("query_tail_ms", query_tail.value, "ms");
  metrics.Add("update_p50_ms", Median(update_ms), "ms");
  metrics.Add("update_tail_ms", update_tail.value, "ms");
  metrics.Add("kb_per_query", kb_total / static_cast<double>(n), "KB");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  props.Num("queries", static_cast<double>(n))
      .Num("loop_s", loop_ms / 1000.0)
      .Num("loop_query_s", latency_ms.sum() / 1000.0)
      .Num("loop_events", static_cast<double>(loop_events))
      .Num("query_tail_percentile", query_tail.percentile)
      .Num("query_samples", static_cast<double>(query_tail.samples))
      .Num("update_tail_percentile", update_tail.percentile)
      .Num("update_samples", static_cast<double>(update_tail.samples))
      .Num("subspace_repeat_share", SubspaceRepeatShare(tasks, n))
      .Num("churn_events_per_query",
           static_cast<double>(loop_events) / static_cast<double>(n));
  PrintResult("latency", verdicts, metrics, props);
  return 0;
}

// ---------------------------------------------------------------------
// --mode throughput

int RunThroughput(const Args& a, const WorkloadSpec& w) {
  ThreadPool::SetGlobalConcurrency(NprocThreads());
  MetricSeries setup_s;
  PreprocessStats pre;
  std::unique_ptr<SkypeerNetwork> net;
  for (int r = 0; r < kSetupRepeats; ++r) {
    net.reset();
    const UnstolenTimer timer;
    net = Build(w, &pre);
    setup_s.Add(timer.Seconds());
  }
  const int num_sp = net->num_super_peers();
  Verdicts verdicts;
  // Bring membership to the state the latency loop ended in.
  if (w.churn_per_query) {
    const sim::ChurnPlan plan = MakeChurnPlan(num_sp, a.seed);
    for (size_t e = 0; e < a.events; ++e) {
      CheckEvent(net->ApplyChurnEvent(ChurnEventAt(plan, e)), &verdicts);
    }
  }
  const std::vector<QueryTask> all_tasks = MakeTasks(w, num_sp, a.seed);
  const size_t m =
      LoopQueries(w, a.seconds, kLatencyShare * kBatchScale);
  std::vector<std::vector<QueryTask>> by_variant(kNumVariants);
  for (size_t i = 0; i < m; ++i) {
    by_variant[i % kNumVariants].push_back(all_tasks[i]);
  }
  std::vector<AggregateMetrics> aggregates;
  const UnstolenTimer timer;
  for (size_t v = 0; v < kNumVariants; ++v) {
    aggregates.push_back(
        RunWorkload(net.get(), by_variant[v], kVariantCycle[v]));
  }
  const double elapsed_s = timer.Seconds();
  const double wall_s = timer.WallSeconds();
  const double stolen_s = timer.StolenPerVcpu();

  // RunWorkload reports per-query result sizes, not answers: every batch
  // query must be complete, and the sizes of the first
  // kBatchCheckedSubspaces distinct subspaces must match the oracle (the
  // latency loop checks full answers).
  UnionOracle oracle(net.get(), ThreadPool::Global());
  std::set<uint32_t> checked;
  for (size_t v = 0; v < kNumVariants; ++v) {
    const std::vector<double>& sizes = aggregates[v].result.samples();
    verdicts.Attempt(aggregates[v].partial_queries == 0 &&
                         sizes.size() == by_variant[v].size(),
                     std::string("partial batch answers: ") +
                         VariantName(kVariantCycle[v]));
    for (size_t j = 0; j < sizes.size(); ++j) {
      const QueryTask& task = by_variant[v][j];
      if (checked.size() >= kBatchCheckedSubspaces &&
          checked.count(task.subspace.mask()) == 0) {
        continue;
      }
      checked.insert(task.subspace.mask());
      verdicts.Attempt(static_cast<size_t>(sizes[j]) ==
                           oracle.Get(task.subspace).ids.size(),
                       "batch answer size differs: " +
                           Describe(task, kVariantCycle[v]));
    }
  }

  MetricSet metrics;
  metrics.Add("setup_s", Median(setup_s), "s");
  metrics.Add("queries_per_s", static_cast<double>(m) / elapsed_s, "1/s");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  JsonObject props;
  props.Num("threads", NprocThreads())
      .Num("batch_queries", static_cast<double>(m))
      .Num("batch_wall_s", wall_s)
      .Num("batch_stolen_s", stolen_s)
      .Num("setup_repeats", kSetupRepeats);
  PrintResult("throughput", verdicts, metrics, props);
  return 0;
}

// ---------------------------------------------------------------------
// --mode truth

// Applies the --events membership events the checked loops applied, in the
// same order, and checks one query per variant against GroundTruthSkyline
// at kTruthCheckpoints evenly spaced points of that history, the last after
// the final event. The union-of-stores oracle reads the same stores as the
// protocol, so it cannot see a store that maintenance left wrong; here the
// answers meet the ground truth instead, and every incremental removal is
// also checked against a full rebuild of the store.
int RunTruth(const Args& a, const WorkloadSpec& spec) {
  ThreadPool::SetGlobalConcurrency(NprocThreads());
  WorkloadSpec w = spec;
  w.config.retain_peer_data = true;
  VerifyMaintenance(&w.config);
  PreprocessStats pre;
  std::unique_ptr<SkypeerNetwork> net = Build(w, &pre);
  const int num_sp = net->num_super_peers();
  const sim::ChurnPlan plan = MakeChurnPlan(num_sp, a.seed);
  const std::vector<QueryTask> tasks = MakeTasks(w, num_sp, a.seed);
  UnionOracle oracle(net.get(), ThreadPool::Global());
  Verdicts verdicts;
  std::set<size_t> checkpoints;
  for (size_t c = 1; c <= kTruthCheckpoints; ++c) {
    checkpoints.insert(a.events * c / kTruthCheckpoints);
  }
  size_t applied = 0;
  size_t next_task = 0;
  for (size_t checkpoint : checkpoints) {
    for (; applied < checkpoint; ++applied) {
      CheckEvent(net->ApplyChurnEvent(ChurnEventAt(plan, applied)),
                 &verdicts);
    }
    oracle.Invalidate();
    for (size_t i = 0; i < kNumVariants; ++i, ++next_task) {
      const QueryTask& task = tasks[next_task];
      const Variant variant = kVariantCycle[i];
      const std::string what = Describe(task, variant) +
                               " after event " + std::to_string(applied);
      const Answer truth = Fingerprint(net->GroundTruthSkyline(task.subspace));
      const QueryResult result =
          net->ExecuteQuery(task.subspace, task.initiator_sp, variant);
      CheckAnswer(result, truth, "vs ground truth: " + what, &verdicts);
      // The union-of-stores oracle the timed runs rely on must agree too.
      verdicts.Attempt(oracle.Get(task.subspace) == truth,
                       "union-of-stores oracle differs from ground truth: " +
                           what);
    }
  }
  JsonObject props;
  props.Num("truth_events", static_cast<double>(applied));
  PrintResult("truth", verdicts, MetricSet(), props);
  return 0;
}

// ---------------------------------------------------------------------
// --mode trace

// In-memory spans around the calls into each layer, written out when the
// run ends. A span keeps its wall-clock start and end and the calling
// thread's CPU time in between; durations are the CPU times (see
// ThreadCpuMs), as every traced call but Preprocess runs on one thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double cpu_ms = 0.0;
    int parent = -1;
    int64_t query = -1;
  };

  int Begin(const std::string& name, int64_t query) {
    Span span;
    span.name = name;
    span.start_ms = Now();
    span.cpu_ms = ThreadCpuMs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.query = query;
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  // Closes the span and returns its CPU time.
  double End(int id) {
    SKYPEER_CHECK(!open_.empty() && open_.back() == id);
    open_.pop_back();
    spans_[id].end_ms = Now();
    spans_[id].cpu_ms = ThreadCpuMs() - spans_[id].cpu_ms;
    return spans_[id].cpu_ms;
  }

  // Sum of the durations of the spans with this name.
  double TotalMs(const std::string& name) const {
    return Durations(name).sum();
  }

  MetricSeries Durations(const std::string& name) const {
    MetricSeries out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.Add(s.cpu_ms);
      }
    }
    return out;
  }

  void Write(const std::string& path) const {
    if (path.empty()) {
      return;
    }
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << JsonObject()
                 .Str("name", s.name)
                 .Num("start_ms", s.start_ms)
                 .Num("end_ms", s.end_ms)
                 .Num("cpu_ms", s.cpu_ms)
                 .Num("parent", s.parent)
                 .Num("query", static_cast<double>(s.query))
                 .str()
          << "\n";
    }
  }

 private:
  double Now() const { return MsSince(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t query = -1)
      : tracer_(tracer), id_(tracer->Begin(name, query)) {}
  ~ScopedSpan() {
    if (id_ >= 0) {
      tracer_->End(id_);
    }
  }
  double End() {
    const double ms = tracer_->End(id_);
    id_ = -1;
    return ms;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Kendall rank correlation of two equally long value vectors.
double KendallTau(const std::vector<double>& a, const std::vector<double>& b) {
  double concordant = 0.0;
  double discordant = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      const double s = (a[i] - a[j]) * (b[i] - b[j]);
      concordant += s > 0 ? 1 : 0;
      discordant += s < 0 ? 1 : 0;
    }
  }
  const double pairs = concordant + discordant;
  return pairs == 0 ? 1.0 : (concordant - discordant) / pairs;
}

std::string Ranking(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return values[x] < values[y]; });
  std::string out;
  for (size_t i : order) {
    out += (out.empty() ? "" : " < ") +
           std::string(VariantName(kVariantCycle[i]));
  }
  return out;
}

// Per-query replay of the local scans, merge and wire layers the protocol
// executes, called from outside through the public algorithm entry points.
struct ReplayTotals {
  double scan_ms = 0.0;
  double merge_ms = 0.0;
  double wire_ms = 0.0;
  OpCounts scan_ops;
  OpCounts merge_ops;
  uint64_t wire_bytes = 0;
  size_t local_points = 0;
  size_t merged_points = 0;
};

void ReplayQuery(const SkypeerNetwork& net, const QueryTask& task,
                 int64_t query, Tracer* tracer, ReplayTotals* totals) {
  const Subspace u = task.subspace;
  ThresholdScanStats init_stats;
  SortedSkyline(net.super_peer(task.initiator_sp).View(), u, {}, &init_stats);
  ThresholdScanOptions options;
  options.initial_threshold = init_stats.final_threshold;
  std::vector<ResultList> locals;
  locals.reserve(net.num_super_peers());
  {
    ScopedSpan scans(tracer, "algo.local_scan", query);
    for (int sp = 0; sp < net.num_super_peers(); ++sp) {
      ThresholdScanStats stats;
      locals.push_back(SortedSkyline(net.super_peer(sp).View(), u, options,
                                     &stats));
      totals->scan_ops += stats.ops;
      totals->local_points += locals.back().size();
    }
    totals->scan_ms += scans.End();
  }
  {
    ScopedSpan merge(tracer, "algo.merge", query);
    ThresholdScanStats stats;
    const ResultList merged = MergeSortedSkylines(net.dims(), locals, u, {},
                                                  &stats);
    totals->merge_ms += merge.End();
    totals->merge_ops += stats.ops;
    totals->merged_points += merged.size();
  }
  {
    ScopedSpan wire(tracer, "engine.wire", query);
    for (const ResultList& list : locals) {
      const std::vector<uint8_t> bytes = EncodeResultList(list, u);
      WireList decoded;
      SKYPEER_CHECK(
          DecodeResultList(bytes.data(), bytes.size(), &decoded).ok());
      totals->wire_bytes += bytes.size();
    }
    totals->wire_ms += wire.End();
  }
}

BufferManager::Stats BufferStats(const SkypeerNetwork& net) {
  return net.buffer_manager() != nullptr ? net.buffer_manager()->stats()
                                         : BufferManager::Stats{};
}

// Setup layers replayed serially: overlay, per-peer data generation and
// per-peer extended skylines, as Preprocess runs them.
void TraceSetupLayers(const WorkloadSpec& w, Tracer* tracer,
                      OpCounts* ext_ops) {
  const NetworkConfig& c = w.config;
  OverlayConfig overlay_config;
  overlay_config.num_peers = c.num_peers;
  overlay_config.num_super_peers = c.num_super_peers;
  overlay_config.degree_sp = c.degree_sp;
  overlay_config.topology = c.topology;
  overlay_config.seed = c.seed;
  Overlay overlay;
  {
    ScopedSpan span(tracer, "topology.build_overlay");
    overlay = BuildOverlay(overlay_config);
  }
  SKYPEER_CHECK(c.distribution == Distribution::kUniform);
  Rng rng(c.seed ^ 0x5e7a5e7a5e7a5e7aULL);
  for (int peer = 0; peer < overlay.num_peers(); ++peer) {
    Rng peer_rng(rng.Fork());
    const PointId first = static_cast<PointId>(peer) * c.points_per_peer;
    const size_t n = static_cast<size_t>(c.points_per_peer);
    PointSet data(c.dims);
    {
      ScopedSpan span(tracer, "data.generate");
      data = GenerateUniform(c.dims, n, &peer_rng, first);
    }
    ScopedSpan span(tracer, "algo.ext_skyline");
    ThresholdScanStats stats;
    ExtendedSkyline(data, &stats);
    *ext_ops += stats.ops;
  }
}

int RunTrace(const Args& a, const WorkloadSpec& w) {
  Tracer tracer;
  const CostModel model = CostModel::Calibrated();
  MetricSet metrics;
  JsonObject props;
  Verdicts verdicts;

  // Set-up layers. Preprocess runs at nproc threads as in setup_s; the
  // serial replays of its phases give their summed busy time.
  ThreadPool::SetGlobalConcurrency(NprocThreads());
  PreprocessStats pre;
  double preprocess_ms = 0.0;
  {
    auto net = std::make_unique<SkypeerNetwork>(w.config);
    const UnstolenTimer timer;  // Preprocess runs at nproc threads
    ScopedSpan span(&tracer, "engine.preprocess");
    pre = net->Preprocess();
    span.End();
    preprocess_ms = 1000.0 * timer.Seconds();
  }
  OpCounts ext_ops;
  TraceSetupLayers(w, &tracer, &ext_ops);

  ThreadPool checker_pool(NprocThreads());
  PreprocessStats query_pre;
  std::unique_ptr<SkypeerNetwork> net = BuildForSerialLoop(w, &query_pre);
  CheckerNetwork checker(w, net.get());
  const int num_sp = net->num_super_peers();
  const std::vector<QueryTask> tasks = MakeTasks(w, num_sp, a.seed);
  const sim::ChurnPlan plan = MakeChurnPlan(num_sp, a.seed);
  UnionOracle oracle(checker.get(), &checker_pool);
  const double store_points = static_cast<double>(StorePoints(*net));
  AddStoreProperties(w, *net, query_pre, &props);

  // Untraced reference loop over the same tasks: the tracing overhead is
  // the traced ExecuteQuery p50 against this one.
  MetricSeries untraced_ms;
  size_t next_event = 0;
  const size_t untraced_queries = LoopQueries(w, a.seconds, 0.2);
  for (size_t i = 0; i < untraced_queries; ++i) {
    if (w.churn_per_query) {
      const sim::ChurnEvent event = ChurnEventAt(plan, next_event++);
      CheckEvent(net->ApplyChurnEvent(event), &verdicts);
      CheckEvent(checker.Mirror(event), &verdicts);
      oracle.Invalidate();
    }
    const Variant variant = kVariantCycle[i % kNumVariants];
    const double start = ThreadCpuMs();
    const QueryResult result =
        net->ExecuteQuery(tasks[i].subspace, tasks[i].initiator_sp, variant);
    untraced_ms.Add(ThreadCpuMs() - start);
    CheckAnswer(result, oracle.Get(tasks[i].subspace),
                Describe(tasks[i], variant), &verdicts);
  }

  // Traced loop over the same tasks.
  ReplayTotals replay;
  MetricSeries execute_ms;
  MetricSeries residual_ms;
  MetricSeries post_update_ms;
  std::vector<double> variant_host_ms(kNumVariants, 0.0);
  std::vector<double> variant_model_s(kNumVariants, 0.0);
  std::vector<double> variant_count(kNumVariants, 0.0);
  OpCounts query_ops;
  double scanned_share = 0.0;
  double messages = 0.0;
  double retransmits = 0.0;
  double dropped = 0.0;
  double comp_s = 0.0;
  double total_s = 0.0;
  uint64_t maintenance_dominance = 0;
  uint64_t maintenance_merge_pulls = 0;
  size_t events = 0;
  BufferManager::Stats buffer_delta;
  auto apply_event = [&]() {
    const sim::ChurnEvent event = ChurnEventAt(plan, next_event++);
    const OpCounts before = net->churn_stats().maintenance_ops;
    Status status = Status::OK();
    {
      ScopedSpan span(&tracer, std::string("engine.update_ms.") +
                                   sim::ChurnKindName(event.kind));
      status = net->ApplyChurnEvent(event);
    }
    const OpCounts& after = net->churn_stats().maintenance_ops;
    // Window work: the R-tree window counts node visits where the linear
    // window counts dominance tests.
    maintenance_dominance += after.dominance_tests - before.dominance_tests +
                             RtreeVisits(after) - RtreeVisits(before);
    maintenance_merge_pulls += after.merge_pulls - before.merge_pulls;
    ++events;
    CheckEvent(status, &verdicts);
    CheckEvent(checker.Mirror(event), &verdicts);
    oracle.Invalidate();
  };
  // Pool statistics are summed over the loop's ExecuteQuery calls only
  // (the update probe's queries are left out).
  auto traced_query = [&](int64_t q, const QueryTask& task, Variant variant,
                          MetricSeries* samples, bool count_pool) {
    const BufferManager::Stats b0 = BufferStats(*net);
    ScopedSpan span(&tracer, "engine.execute_query", q);
    const QueryResult result =
        net->ExecuteQuery(task.subspace, task.initiator_sp, variant);
    const double ms = span.End();
    if (count_pool) {
      const BufferManager::Stats b1 = BufferStats(*net);
      buffer_delta.hits += b1.hits - b0.hits;
      buffer_delta.misses += b1.misses - b0.misses;
      buffer_delta.evictions += b1.evictions - b0.evictions;
      buffer_delta.prefetches_issued +=
          b1.prefetches_issued - b0.prefetches_issued;
      buffer_delta.prefetch_hits += b1.prefetch_hits - b0.prefetch_hits;
    }
    samples->Add(ms);
    CheckAnswer(result, oracle.Get(task.subspace), Describe(task, variant),
                &verdicts);
    return result;
  };

  const size_t traced_queries = LoopQueries(w, a.seconds, 0.3);
  size_t n = 0;
  while (n < traced_queries) {
    if (w.churn_per_query) {
      apply_event();
    }
    const QueryTask& task = tasks[n];
    const size_t v = n % kNumVariants;
    const double before_replay =
        replay.scan_ms + replay.merge_ms + replay.wire_ms;
    const QueryResult result =
        traced_query(static_cast<int64_t>(n), task, kVariantCycle[v],
                     &execute_ms, /*count_pool=*/true);
    const double query_ms = execute_ms.samples().back();
    if (w.churn_per_query) {
      post_update_ms.Add(query_ms);
    }
    ReplayQuery(*checker.get(), task, static_cast<int64_t>(n), &tracer, &replay);
    const double replay_ms =
        replay.scan_ms + replay.merge_ms + replay.wire_ms - before_replay;
    residual_ms.Add(query_ms - replay_ms);
    const QueryMetrics& m = result.metrics;
    query_ops += m.ops;
    scanned_share += static_cast<double>(m.store_points_scanned) / store_points;
    messages += static_cast<double>(m.messages);
    retransmits += static_cast<double>(m.retransmits);
    dropped += static_cast<double>(m.messages_dropped);
    comp_s += m.computational_time_s;
    total_s += m.total_time_s;
    variant_host_ms[v] += query_ms;
    variant_model_s[v] += model.Seconds(m.ops);
    variant_count[v] += 1.0;
    ++n;
  }

  // Update probe on the static workloads: each event is followed by one
  // query, checked against the recomputed oracle.
  if (!w.churn_per_query) {
    for (size_t e = 0; e < 2 * kNumVariants; ++e) {
      apply_event();
      const QueryTask& task = tasks[e];
      traced_query(-1, task, kVariantCycle[e % kNumVariants], &post_update_ms,
                   /*count_pool=*/false);
    }
  }

  // Replica cloning, as RunWorkload does per batch.
  for (int r = 0; r < 3; ++r) {
    ScopedSpan span(&tracer, "engine.clone");
    std::unique_ptr<SkypeerNetwork> replica = net->CloneForQueries();
    span.End();
  }

  // Storage: a timed full cursor walk of every store, per page.
  double cursor_ms_per_page = 0.0;
  if (net->buffer_manager() != nullptr) {
    size_t pages = 0;
    double checksum = 0.0;
    ScopedSpan span(&tracer, "storage.cursor_walk");
    for (int sp = 0; sp < num_sp; ++sp) {
      const StoreView view = net->super_peer(sp).View();
      StoreCursor cursor(view);
      for (size_t i = 0; i < view.size(); ++i) {
        checksum += cursor.f(i) + cursor.row(i)[0];
      }
      pages += view.layout().PagesForPoints(view.size());
    }
    cursor_ms_per_page =
        span.End() / static_cast<double>(std::max<size_t>(pages, 1));
    props.Num("cursor_checksum", checksum);  // keeps the reads observable
  }

  const double nq = static_cast<double>(n);
  const double replay_total = replay.scan_ms + replay.merge_ms + replay.wire_ms;
  const double execute_loop_ms = execute_ms.sum();
  const double traced_p50 = Median(execute_ms);
  const double untraced_p50 = Median(untraced_ms);
  const double pins =
      static_cast<double>(buffer_delta.hits + buffer_delta.misses);

  metrics.Add("engine.preprocess_ms", preprocess_ms, "ms");
  metrics.Add("data.generate_ms", tracer.TotalMs("data.generate"), "ms");
  metrics.Add("topology.build_overlay_ms",
              tracer.TotalMs("topology.build_overlay"), "ms");
  metrics.Add("algo.ext_skyline_ms", tracer.TotalMs("algo.ext_skyline"), "ms");
  metrics.Add("algo.sel_p", pre.sel_p(), "ratio");
  metrics.Add("algo.sel_sp", pre.sel_sp(), "ratio");
  metrics.Add("engine.execute_query_ms", traced_p50, "ms");
  metrics.Add("algo.local_scan_ms", replay.scan_ms / nq, "ms");
  metrics.Add("algo.scanned_share", scanned_share / nq, "ratio");
  metrics.Add("algo.dominance_tests_per_query",
              static_cast<double>(query_ops.dominance_tests) / nq, "count");
  metrics.Add("rtree.node_visits_per_query",
              static_cast<double>(RtreeVisits(query_ops)) / nq, "count");
  metrics.Add("algo.scan_steps_per_query",
              static_cast<double>(query_ops.scan_steps) / nq, "count");
  metrics.Add("algo.merge_ms", replay.merge_ms / nq, "ms");
  metrics.Add("algo.merge_pulls_per_query",
              static_cast<double>(replay.merge_ops.merge_pulls) / nq, "count");
  metrics.Add("algo.merge_keep_share",
              replay.local_points == 0
                  ? 0.0
                  : static_cast<double>(replay.merged_points) /
                        static_cast<double>(replay.local_points),
              "ratio");
  metrics.Add("engine.wire_ms", replay.wire_ms / nq, "ms");
  metrics.Add("engine.bytes_serialized_per_query",
              static_cast<double>(replay.wire_bytes) / nq, "bytes");
  metrics.Add("engine.replay_ratio",
              replay_total > 0 ? execute_loop_ms / replay_total : 0.0, "ratio");
  metrics.Add("engine.residual_ms", Median(residual_ms), "ms");
  metrics.Add("engine.clone_ms", Median(tracer.Durations("engine.clone")),
              "ms");
  metrics.Add("sim.messages_per_query", messages / nq, "count");
  metrics.Add("sim.retransmit_share",
              messages > 0 ? retransmits / messages : 0.0, "ratio");
  metrics.Add("sim.dropped_per_query", dropped / nq, "count");
  metrics.Add("sim.comp_s", comp_s / nq, "s");
  metrics.Add("sim.total_s", total_s / nq, "s");
  metrics.Add("storage.page_reads_per_query",
              static_cast<double>(query_ops.page_reads) / nq, "count");
  metrics.Add("storage.buffer_hit_share",
              pins > 0 ? static_cast<double>(buffer_delta.hits) / pins : 0.0,
              "ratio");
  metrics.Add("storage.prefetch_hit_share",
              buffer_delta.prefetches_issued > 0
                  ? static_cast<double>(buffer_delta.prefetch_hits) /
                        static_cast<double>(buffer_delta.prefetches_issued)
                  : 0.0,
              "ratio");
  metrics.Add("storage.evictions_per_query",
              static_cast<double>(buffer_delta.evictions) / nq, "count");
  metrics.Add("storage.cursor_ms_per_page", cursor_ms_per_page, "ms");
  for (const char* kind : {"join", "remove", "replace"}) {
    const std::string name = std::string("engine.update_ms.") + kind;
    metrics.Add(name, Median(tracer.Durations(name)), "ms");
  }
  const double ev = static_cast<double>(std::max<size_t>(events, 1));
  metrics.Add("engine.maintenance_dominance_per_event",
              static_cast<double>(maintenance_dominance) / ev, "count");
  metrics.Add("engine.maintenance_merge_pulls_per_event",
              static_cast<double>(maintenance_merge_pulls) / ev, "count");
  metrics.Add("engine.post_update_query_ms", Median(post_update_ms), "ms");
  metrics.Add("trace.untraced_query_p50_ms", untraced_p50, "ms");
  metrics.Add("trace.overhead_ratio",
              untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0.0, "ratio");

  // Cost-model fidelity: host time next to the calibrated model's price
  // of the same op counts, per layer and per variant.
  OpCounts wire_ops;
  wire_ops.bytes_serialized = replay.wire_bytes;
  struct Layer {
    const char* name;
    double host_ms;
    double model_ms;
  };
  const Layer layers[] = {
      {"ext_skyline", tracer.TotalMs("algo.ext_skyline"),
       1000.0 * model.Seconds(ext_ops)},
      {"local_scan", replay.scan_ms, 1000.0 * model.Seconds(replay.scan_ops)},
      {"merge", replay.merge_ms, 1000.0 * model.Seconds(replay.merge_ops)},
      {"wire", replay.wire_ms, 1000.0 * model.Seconds(wire_ops)},
      {"execute_query", execute_loop_ms, 1000.0 * model.Seconds(query_ops)},
  };
  std::vector<std::string> layer_rows;
  for (const Layer& layer : layers) {
    layer_rows.push_back(JsonObject()
                             .Str("layer", layer.name)
                             .Num("host_ms", layer.host_ms)
                             .Num("model_ms", layer.model_ms)
                             .str());
  }
  std::vector<double> host_mean(kNumVariants);
  std::vector<double> model_mean(kNumVariants);
  for (size_t v = 0; v < kNumVariants; ++v) {
    host_mean[v] = variant_host_ms[v] / std::max(variant_count[v], 1.0);
    model_mean[v] =
        1000.0 * variant_model_s[v] / std::max(variant_count[v], 1.0);
  }
  const double tau = KendallTau(host_mean, model_mean);
  metrics.Add("fidelity.variant_rank_tau", tau, "ratio");
  std::vector<std::string> variant_rows;
  for (size_t v = 0; v < kNumVariants; ++v) {
    variant_rows.push_back(JsonObject()
                               .Str("variant", VariantName(kVariantCycle[v]))
                               .Num("host_ms", host_mean[v])
                               .Num("model_ms", model_mean[v])
                               .str());
  }
  props.Num("queries", nq)
      .Num("events", static_cast<double>(events))
      .Num("loop_events", static_cast<double>(next_event))
      .Num("subspace_repeat_share", SubspaceRepeatShare(tasks, n))
      .Num("churn_events_per_query",
           w.churn_per_query ? static_cast<double>(events) / nq : 0.0)
      .Raw("fidelity_layers", JsonArray(layer_rows))
      .Raw("fidelity_variants", JsonArray(variant_rows))
      .Str("host_ranking", Ranking(host_mean))
      .Str("model_ranking", Ranking(model_mean))
      .Str("rankings_agree",
           Ranking(host_mean) == Ranking(model_mean) ? "yes" : "no");
  tracer.Write(a.spans_path);
  PrintResult("trace", verdicts, metrics, props);
  return 0;
}

// ---------------------------------------------------------------------

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--seed") {
      a.seed = ParseU64Flag("--seed", value);
    } else if (flag == "--seconds") {
      a.seconds = ParseDoubleFlag("--seconds", value, 0.1, kMaxSeconds);
    } else if (flag == "--events") {
      a.events = ParseU64Flag("--events", value);
    } else if (flag == "--corrupt-answer") {
      a.corrupt_answer = ParseIntFlag("--corrupt-answer", value, 0, 1 << 30);
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  WorkloadSpec w;
  if (!MakeWorkload(a.workload, a.seed, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (a.mode == "latency") {
    return RunLatency(a, w);
  }
  if (a.mode == "throughput") {
    return RunThroughput(a, w);
  }
  if (a.mode == "truth") {
    return RunTruth(a, w);
  }
  if (a.mode == "trace") {
    return RunTrace(a, w);
  }
  std::fprintf(stderr, "unknown mode '%s'\n", a.mode.c_str());
  return 2;
}

}  // namespace
}  // namespace skypeer

int main(int argc, char** argv) { return skypeer::Main(argc, argv); }
