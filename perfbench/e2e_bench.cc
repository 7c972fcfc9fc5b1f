// End-to-end wall-clock benchmark of the rsj library.
//
// Four seeded workloads drive the library's public API from outside (see
// WORKLOADS.md for why each exists, its sizes and its loop type):
//
//   ingest   R*-tree insertion build of two street maps (the write path)
//   serve    closed loop of mixed whole-map joins through one QueryEngine
//            whose buffer is ~9x smaller than its indexes (the read path)
//   overlay  exact-geometry ID-joins of the A, B, D and E map pairs, one
//            client, buffer larger than the trees (refinement)
//   adhoc    sharded join of raw rectangles, declustering and per-shard
//            STR builds included (the scale-out path)
//
// Every output is checked against a reference computed before timing
// starts; a mismatch counts as a failed operation and makes the process
// exit non-zero. With --trace 1 the run alternates untraced and traced
// rounds: traced rounds record spans in a TraceRecorder around every call
// the benchmark makes (and hand the recorder to the entries that accept
// one), and the per-layer self times and counters come from those rounds.
//
// The process prints human-readable lines and, last, one line
// "RAW <json>" with the raw samples; run.py turns them into the metrics.
//
//   rsj_perfbench --workload <ingest|serve|overlay|adhoc> --seed <n>
//                 --seconds <s> --trace <0|1> [--perturb]
//   rsj_perfbench --check-paper-seed
//
// --perturb drops one result from every checked output, to show that the
// correctness gate fails. --check-paper-seed verifies that seed 1
// reproduces MakeWorkload's paper-calibrated maps.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rsj.h"

namespace rsj {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using PairList = std::vector<std::pair<uint32_t, uint32_t>>;
using TupleList = std::vector<std::vector<uint32_t>>;

// Seed 1 reproduces MakeWorkload's maps (generator seeds 1/7 for the two
// street walks, 4242 for the city layout, 2 for rivers, 3/11 for regions).
constexpr uint64_t kPaperSeed = 1;
constexpr uint32_t kPage = kPageSize4K;
// Map scale of ingest, serve and overlay; adhoc runs at full paper scale.
constexpr double kMapScale = 0.25;

// Table 8 cardinalities.
constexpr size_t kStreets = 131461;
constexpr size_t kStreets2 = 131192;
constexpr size_t kStreetsFull = 598677;
constexpr size_t kRivers = 128971;
constexpr size_t kRegionsFine = 67527;
constexpr size_t kRegionsCoarse = 33696;

constexpr uint64_t kServeBufferBytes = 512 * 1024;
constexpr uint64_t kOverlayBufferBytes = 16 * 1024 * 1024;
constexpr size_t kServeClients = 4;
constexpr size_t kSetupThreads = 4;
constexpr size_t kServeQueriesPerKind = 4;  // per engine lifetime (round)
constexpr size_t kTinyObjects = 250;
constexpr double kServeEpsilon = 0.002;
constexpr unsigned kShards = 4;
// Independent map sets (geographies) per run, each derived from the run
// seed. Rounds cycle through them, so a run's figures average over city
// layouts instead of resting on one; each one's set-up is a setup_s sample.
constexpr unsigned kGeographies = 3;
constexpr double kSetupSampleSeconds = 2.0;
constexpr unsigned kShardThreads = 4;

bool g_perturb = false;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Ms(Clock::time_point t0) { return Since(t0) * 1e3; }

// splitmix64 of (a, b).
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// A generator's seed under map seed `seed`: its paper seed for kPaperSeed,
// so the default run uses the calibrated maps.
uint64_t DeriveSeed(uint64_t seed, uint64_t paper_seed) {
  return seed == kPaperSeed ? paper_seed : Mix(seed, paper_seed);
}

// Map seed of geography `g` of a run: the run seed itself for the first.
uint64_t GeographySeed(uint64_t seed, unsigned g) {
  return g == 0 ? seed : Mix(seed, ~static_cast<uint64_t>(g));
}

size_t Scaled(size_t count, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(count * scale));
}

// MakeWorkload's map generators with every seed derived from the
// benchmark seed. Generation is a datagen span.
class MapGenerator {
 public:
  MapGenerator(uint64_t seed, double scale, TraceRecorder* rec)
      : seed_(seed), scale_(scale), rec_(rec) {}

  Dataset Streets(size_t paper_count, uint64_t paper_walk_seed) const {
    TraceSpan span(rec_, "datagen", "generate");
    StreetsConfig config;
    config.object_count = Scaled(paper_count, scale_);
    config.seed = DeriveSeed(seed_, paper_walk_seed);
    config.city_seed = DeriveSeed(seed_, 4242);
    return GenerateStreets(config);
  }

  Dataset Rivers() const {
    TraceSpan span(rec_, "datagen", "generate");
    RiversConfig config;
    config.object_count = Scaled(kRivers, scale_);
    config.seed = DeriveSeed(seed_, 2);
    config.city_seed = DeriveSeed(seed_, 4242);
    return GenerateRivers(config);
  }

  Dataset Regions(size_t paper_count, uint64_t paper_seed) const {
    TraceSpan span(rec_, "datagen", "generate");
    RegionsConfig config;
    config.object_count = Scaled(paper_count, scale_);
    config.seed = DeriveSeed(seed_, paper_seed);
    return GenerateRegions(config);
  }

 private:
  uint64_t seed_;
  double scale_;
  TraceRecorder* rec_;
};

// A map with its insertion-built R*-tree (4 KB pages).
struct Relation {
  Dataset data;
  std::vector<Rect> rects;
  std::unique_ptr<PagedFile> file;
  std::unique_ptr<RTree> tree;

  JoinRelation join_relation() const { return {tree.get(), &rects}; }
};

Relation MakeRelation(Dataset data) {
  Relation rel;
  rel.rects = data.Mbrs();
  rel.data = std::move(data);
  return rel;
}

RTreeOptions TreeOptions() {
  RTreeOptions options;
  options.page_size = kPage;
  return options;
}

// Insertion-builds every relation's tree, largest first, on up to
// kSetupThreads threads.
void BuildTrees(std::vector<Relation*> rels, TraceRecorder* rec) {
  std::sort(rels.begin(), rels.end(), [](const Relation* a, const Relation* b) {
    return a->rects.size() > b->rects.size();
  });
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < rels.size();) {
      Relation* rel = rels[i];
      TraceSpan span(rec, "rtree", "insert");
      rel->file = std::make_unique<PagedFile>(kPage);
      rel->tree = std::make_unique<RTree>(
          BuildRTree(rel->file.get(), rel->rects, TreeOptions()));
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < std::min(kSetupThreads, rels.size()); ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) t.join();
}

std::unique_ptr<RTree> StrTree(PagedFile* file, std::span<const Rect> rects) {
  std::vector<Entry> entries;
  entries.reserve(rects.size());
  for (uint32_t i = 0; i < rects.size(); ++i) entries.push_back({rects[i], i});
  auto tree = std::make_unique<RTree>(file, TreeOptions());
  tree->BulkLoadStr(entries, 0.7);
  return tree;
}

// --- checking --------------------------------------------------------------

template <typename T>
std::vector<T> Sorted(std::vector<T> items) {
  std::sort(items.begin(), items.end());
  return items;
}

// Sorted copy of an output for comparison with its (Sorted) reference;
// --perturb drops one element so that every check demonstrably fails.
template <typename T>
std::vector<T> Canonical(std::vector<T> items) {
  items = Sorted(std::move(items));
  if (g_perturb && !items.empty()) items.pop_back();
  return items;
}

uint64_t CheckedCount(uint64_t count) { return g_perturb ? count + 1 : count; }

// --- the run log -------------------------------------------------------------

// Raw samples of one run; run.py computes every metric from these.
struct RunLog {
  std::vector<double> setup_s;
  std::vector<double> round_s;    // timed wall time of each round
  std::vector<double> round_ops;  // operations completed in each round
  std::vector<double> latency_ms;
  std::vector<bool> round_traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per-layer values: setup_layer summed over the traced set-ups, layer
  // summed over traced rounds (run.py divides by their numbers).
  std::map<std::string, double> setup_layer;
  std::map<std::string, double> layer;
  // Sample lists of per-layer medians.
  std::map<std::string, std::vector<double>> layer_samples;

  void Fail(const std::string& what) {
    ++failed;
    std::printf("FAIL: %s\n", what.c_str());
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
};

bool IsSpan(const TraceEvent& e, const char* category, const char* name) {
  return std::strcmp(e.category, category) == 0 &&
         std::strcmp(e.name, name) == 0;
}

// Wall time inside an engine/execute span during which none of its
// session's work is traced: the span's duration minus the union of the
// non-engine spans that overlap it and either belong to its session (same
// pid: tasks the shared pool runs on other threads) or run on its thread.
double ExecuteSelfSeconds(const TraceEvent& execute,
                          const std::vector<const TraceEvent*>& spans) {
  const uint64_t begin = execute.ts_micros;
  const uint64_t end = begin + execute.dur_micros;
  std::vector<std::pair<uint64_t, uint64_t>> busy;
  for (const TraceEvent* e : spans) {
    if (std::strcmp(e->category, "engine") == 0) continue;
    if (e->pid != execute.pid && e->tid != execute.tid) continue;
    const uint64_t from = std::max(begin, e->ts_micros);
    const uint64_t to = std::min(end, e->ts_micros + e->dur_micros);
    if (from < to) busy.emplace_back(from, to);
  }
  std::sort(busy.begin(), busy.end());
  uint64_t covered = 0;
  uint64_t reach = begin;
  for (const auto& [from, to] : busy) {
    if (to <= reach) continue;
    covered += to - std::max(from, reach);
    reach = to;
  }
  return static_cast<double>(execute.dur_micros - covered) * 1e-6;
}

// Per-thread span nesting: a span's self time is its duration minus the
// durations of the spans it directly encloses on the same thread. Adds
// "self.<category>/<name>", "dur.<category>/<name>" and
// "count.<category>/<name>" to `out`. Two engine spans are special:
// engine/queue is an explicit [submit, admit] event emitted by whichever
// thread admits the session, not a frame of that thread's stack, so it has
// no self time; engine/execute waits for tasks on other threads, so its self
// time comes from ExecuteSelfSeconds.
void RollUpTrace(const TraceRecorder& rec, std::map<std::string, double>* out) {
  std::vector<TraceEvent> events = rec.Snapshot();
  std::map<uint32_t, std::vector<const TraceEvent*>> by_tid;
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& e : events) {
    if (e.phase != 'X') continue;
    spans.push_back(&e);
    const std::string key = std::string(e.category) + "/" + e.name;
    (*out)["dur." + key] += static_cast<double>(e.dur_micros) * 1e-6;
    (*out)["count." + key] += 1;
    if (!IsSpan(e, "engine", "queue")) by_tid[e.tid].push_back(&e);
  }
  (*out)["obs.spans"] += static_cast<double>(spans.size());
  (*out)["obs.dropped"] += static_cast<double>(rec.dropped());
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_micros != b->ts_micros) {
                  return a->ts_micros < b->ts_micros;
                }
                return a->dur_micros > b->dur_micros;
              });
    struct Open {
      const TraceEvent* event;
      double child_us;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& open) {
      const TraceEvent& e = *open.event;
      const double self_s =
          IsSpan(e, "engine", "execute")
              ? ExecuteSelfSeconds(e, spans)
              : std::max(0.0, static_cast<double>(e.dur_micros) -
                                  open.child_us) *
                    1e-6;
      (*out)[std::string("self.") + e.category + "/" + e.name] += self_s;
      if (!stack.empty()) {
        stack.back().child_us += static_cast<double>(e.dur_micros);
      }
    };
    for (const TraceEvent* e : list) {
      while (!stack.empty() && stack.back().event->ts_micros +
                                       stack.back().event->dur_micros <=
                                   e->ts_micros) {
        Open top = stack.back();
        stack.pop_back();
        close(top);
      }
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      Open top = stack.back();
      stack.pop_back();
      close(top);
    }
  }
}

// Worker balance of one parallel run: the busiest worker's task count over
// the mean over all `counts.size()` workers, idle ones included. No sample
// when no task ran.
void AddTaskSkew(const std::vector<uint64_t>& counts, RunLog* log) {
  uint64_t sum = 0;
  for (uint64_t c : counts) sum += c;
  if (sum == 0) return;
  const double max =
      static_cast<double>(*std::max_element(counts.begin(), counts.end()));
  log->layer_samples["exec.worker_task_skew"].push_back(
      max / (static_cast<double>(sum) / counts.size()));
}

// Per-worker task counts of each parallel run in `rec`. A run starts with
// its exec/partition_plan span and spawns fresh worker threads, so a task
// belongs to the last run begun before it and its thread is a worker slot.
std::vector<std::vector<uint64_t>> TaskCountsPerRun(const TraceRecorder& rec,
                                                    unsigned workers) {
  const std::vector<TraceEvent> events = rec.Snapshot();
  std::vector<uint64_t> starts;
  for (const TraceEvent& e : events) {
    if (e.phase == 'X' && IsSpan(e, "exec", "partition_plan")) {
      starts.push_back(e.ts_micros);
    }
  }
  std::sort(starts.begin(), starts.end());
  std::vector<std::map<uint32_t, uint64_t>> per_tid(starts.size());
  for (const TraceEvent& e : events) {
    if (e.phase != 'X' || !IsSpan(e, "exec", "task")) continue;
    const size_t run =
        std::upper_bound(starts.begin(), starts.end(), e.ts_micros) -
        starts.begin();
    if (run > 0) ++per_tid[run - 1][e.tid];
  }
  std::vector<std::vector<uint64_t>> runs;
  for (const auto& tids : per_tid) {
    std::vector<uint64_t> counts(std::max<size_t>(workers, tids.size()), 0);
    size_t w = 0;
    for (const auto& [tid, count] : tids) counts[w++] = count;
    runs.push_back(std::move(counts));
  }
  return runs;
}

// Counters every join path reports through Statistics.
void AddJoinCounters(const Statistics& stats,
                     std::map<std::string, double>* out) {
  auto add = [&](const char* key, double v) { (*out)[key] += v; };
  add("storage.disk_reads", stats.disk_reads);
  add("storage.buffer_hits", stats.buffer_hits);
  add("storage.buffer_evictions", stats.buffer_evictions);
  add("storage.node_decodes", stats.node_decodes);
  add("storage.node_cache_hits", stats.node_cache_hits);
  add("io.batches", stats.io_batches);
  add("io.prefetch_issued", stats.prefetch_issued);
  add("io.prefetch_hits", stats.prefetch_hits);
  add("geom.comparisons", stats.TotalComparisons());
  add("exec.spilled_chunks", stats.result_chunks_spilled);
  (*out)["exec.frontier_peak_tuples"] = std::max(
      (*out)["exec.frontier_peak_tuples"],
      static_cast<double>(stats.frontier_peak_tuples));
}

// q-error inputs of one planned query: the estimated result size against
// `actual_pairs`, and the estimated page reads without a buffer against the
// page requests the query made (disk reads plus buffer hits). A chain's
// estimates and counters both sum over its phases.
void AddEstimate(const JoinCostEstimate& estimate, double actual_pairs,
                 const Statistics& stats, RunLog* log) {
  log->layer_samples["engine.qerror_estimate"].push_back(estimate.result_pairs);
  log->layer_samples["engine.qerror_actual"].push_back(actual_pairs);
  log->layer_samples["engine.pages_estimate"].push_back(estimate.page_reads);
  log->layer_samples["engine.pages_actual"].push_back(
      static_cast<double>(stats.disk_reads + stats.buffer_hits));
}

void CountPlan(const PlanChoice& plan, bool is_chain,
               std::map<std::string, double>* out) {
  if (plan.algorithm == JoinAlgorithm::kSJ1) (*out)["engine.plans_sj1"] += 1;
  if (plan.algorithm == JoinAlgorithm::kSJ4) (*out)["engine.plans_sj4"] += 1;
  if (plan.algorithm == JoinAlgorithm::kSJ5) (*out)["engine.plans_sj5"] += 1;
  if (is_chain && plan.pipelined) (*out)["engine.plans_pipelined"] += 1;
  if (plan.prefetch) (*out)["engine.plans_prefetch"] += 1;
}

void AddTreeShape(const RTree& tree, std::map<std::string, double>* out) {
  const TreeStats stats = tree.ComputeStats();
  (*out)["rtree.pages"] += static_cast<double>(stats.TotalPages());
  (*out)["rtree.height"] =
      std::max((*out)["rtree.height"], static_cast<double>(stats.height));
}

// --- workloads ---------------------------------------------------------------

// One geography of a workload: its inputs, indexes and references.
class Bench {
 public:
  virtual ~Bench() = default;
  // Input generation plus the index builds the workload queries, for map
  // seed `seed`; timed as setup_s.
  virtual void SetUp(uint64_t seed, TraceRecorder* rec) = 0;
  // Untimed: the references every round is checked against.
  virtual void Reference() = 0;
  // One timed round. `rec` is null in untraced rounds; traced rounds add
  // their per-layer counters to log->layer.
  virtual void Round(TraceRecorder* rec, RunLog* log) = 0;
  // Per-layer values of the set-up (only called after a traced set-up).
  virtual void SetupLayers(std::map<std::string, double>*) const {}
};

// ingest: both street maps of workload B inserted into fresh R*-trees, one
// insert call at a time; each insert is one operation.
class IngestBench : public Bench {
 public:
  void SetUp(uint64_t seed, TraceRecorder* rec) override {
    MapGenerator gen(seed, kMapScale, rec);
    maps_[0] = gen.Streets(kStreets, 1).Mbrs();
    maps_[1] = gen.Streets(kStreets2, 7).Mbrs();
  }

  void Reference() override {
    PagedFile fr(kPage), fs(kPage);
    auto r = StrTree(&fr, maps_[0]);
    auto s = StrTree(&fs, maps_[1]);
    ref_pairs_ =
        Sorted(RunSpatialJoin(*r, *s, JoinOptions{}, true).chunks.CopyPairs());
  }

  void Round(TraceRecorder* rec, RunLog* log) override {
    PagedFile files[2] = {PagedFile(kPage), PagedFile(kPage)};
    std::vector<RTree> trees;
    trees.reserve(2);
    double seconds = 0;
    size_t ops = 0;
    for (int m = 0; m < 2; ++m) {
      const std::vector<Rect>& rects = maps_[m];
      log->latency_ms.reserve(log->latency_ms.size() + rects.size());
      const auto t0 = Clock::now();
      {
        TraceSpan span(rec, "rtree", "insert");
        RTree tree(&files[m], TreeOptions());
        for (uint32_t i = 0; i < rects.size(); ++i) {
          const auto t = Clock::now();
          tree.Insert(rects[i], i);
          log->latency_ms.push_back(Ms(t));
        }
        trees.push_back(std::move(tree));
      }
      seconds += Since(t0);
      ops += rects.size();
    }
    log->round_s.push_back(seconds);
    log->round_ops.push_back(static_cast<double>(ops));

    for (int m = 0; m < 2; ++m) {
      const std::vector<std::string> violations = trees[m].Validate();
      log->Check(violations.empty() && trees[m].size() == maps_[m].size(),
                 "ingest: tree " + std::to_string(m) + " invalid" +
                     (violations.empty() ? "" : ": " + violations.front()));
    }
    const PairList pairs = Canonical(
        RunSpatialJoin(trees[0], trees[1], JoinOptions{}, true)
            .chunks.CopyPairs());
    log->Check(pairs == ref_pairs_,
               "ingest: join over insertion trees differs from STR trees");
    if (rec != nullptr) {
      for (const RTree& tree : trees) AddTreeShape(tree, &log->layer);
    }
  }

 private:
  std::vector<Rect> maps_[2];
  PairList ref_pairs_;
};

// The maps and insertion-built trees of workloads A, B, D and E at
// kMapScale. D joins the rivers with an independently built copy.
struct MapSet {
  Relation streets, streets2, rivers, rivers_copy, regions_fine,
      regions_coarse, tiny;

  void Build(uint64_t seed, bool with_tiny, TraceRecorder* rec) {
    MapGenerator gen(seed, kMapScale, rec);
    streets = MakeRelation(gen.Streets(kStreets, 1));
    streets2 = MakeRelation(gen.Streets(kStreets2, 7));
    rivers = MakeRelation(gen.Rivers());
    rivers_copy = MakeRelation(rivers.data);
    regions_fine = MakeRelation(gen.Regions(kRegionsFine, 3));
    regions_coarse = MakeRelation(gen.Regions(kRegionsCoarse, 11));
    std::vector<Relation*> rels = {&streets,      &streets2,
                                   &rivers,       &rivers_copy,
                                   &regions_fine, &regions_coarse};
    if (with_tiny) {
      Dataset small = streets.data;
      small.objects.resize(std::min(small.objects.size(), kTinyObjects));
      tiny = MakeRelation(std::move(small));
      rels.push_back(&tiny);
    }
    BuildTrees(rels, rec);
  }

  void AddShapes(std::map<std::string, double>* out) const {
    for (const Relation* rel : {&streets, &streets2, &rivers, &rivers_copy,
                                &regions_fine, &regions_coarse, &tiny}) {
      if (rel->tree != nullptr) AddTreeShape(*rel->tree, out);
    }
  }
};

// serve: 4 closed-loop clients over one QueryEngine (planner on, 512 KB
// shared pool). A round is one engine lifetime serving a seeded shuffle of
// kServeQueriesPerKind copies of each query kind; the engine keeps its
// finished sessions until destroyed, so rotating it bounds memory.
class ServeBench : public Bench {
 public:
  void SetUp(uint64_t seed, TraceRecorder* rec) override {
    maps_ = std::make_unique<MapSet>();
    maps_->Build(seed, /*with_tiny=*/true, rec);
    rng_.seed(DeriveSeed(seed, 99));
    const MapSet& m = *maps_;
    kinds_ = {
        {"A", {&m.streets, &m.rivers}, JoinPredicate::kIntersects},
        {"B", {&m.streets, &m.streets2}, JoinPredicate::kIntersects},
        {"D", {&m.rivers, &m.rivers_copy}, JoinPredicate::kIntersects},
        {"E", {&m.regions_fine, &m.regions_coarse}, JoinPredicate::kIntersects},
        {"tiny", {&m.tiny, &m.tiny}, JoinPredicate::kIntersects},
        {"A~eps", {&m.streets, &m.rivers}, JoinPredicate::kWithinDistance},
        {"chain", {&m.streets, &m.rivers, &m.streets2},
         JoinPredicate::kIntersects},
    };
    // As in bench_concurrent_queries, the nested-loop ceiling sits halfway
    // between the tiny self-join's estimate and map pair A's, so the plan
    // mix spans the SJ1 / SJ4 boundary.
    const double tiny =
        EstimateJoinCost(*m.tiny.tree, *m.tiny.tree).sj1_comparisons;
    const double big =
        EstimateJoinCost(*m.streets.tree, *m.rivers.tree).sj1_comparisons;
    planner_.sj1_comparison_ceiling = tiny + (big - tiny) / 2;
  }

  void SetupLayers(std::map<std::string, double>* out) const override {
    maps_->AddShapes(out);
  }

  void Reference() override {
    refs_.assign(kinds_.size(), Expected{});
    for (size_t k = 0; k < kinds_.size(); ++k) {
      const Kind& kind = kinds_[k];
      const JoinOptions join = kind.Join();
      if (kind.rels.size() == 2) {
        JoinRunResult ref = RunSpatialJoin(*kind.rels[0]->tree,
                                           *kind.rels[1]->tree, join, true);
        refs_[k].count = ref.pair_count;
        refs_[k].pairs = Sorted(ref.chunks.CopyPairs());
      } else {
        std::vector<JoinRelation> rels;
        for (const Relation* rel : kind.rels) {
          rels.push_back(rel->join_relation());
        }
        MultiwayJoinResult ref = RunChainSpatialJoin(rels, join, true);
        refs_[k].count = ref.tuple_count;
        refs_[k].tuples = Sorted(std::move(ref.tuples));
      }
    }
  }

  void Round(TraceRecorder* rec, RunLog* log) override {
    std::vector<size_t> order;
    for (size_t k = 0; k < kinds_.size(); ++k) {
      for (size_t c = 0; c < kServeQueriesPerKind; ++c) order.push_back(k);
    }
    std::shuffle(order.begin(), order.end(), rng_);

    QueryEngine::Options options;
    options.pool.capacity_bytes = kServeBufferBytes;
    options.pool.page_size = kPage;
    options.io.disks.disk_count = 4;
    options.pool_threads = 4;
    options.session_threads = 2;
    options.max_concurrent_sessions = kServeClients;
    options.queue_limit = 64;
    options.planner = planner_;
    options.tracer = rec;
    QueryEngine engine(options);

    struct Done {
      QuerySession* session = nullptr;
      double latency_ms = 0;
    };
    std::vector<Done> done(order.size());
    std::atomic<size_t> next{0};
    auto client = [&] {
      for (size_t i; (i = next.fetch_add(1)) < order.size();) {
        const Kind& kind = kinds_[order[i]];
        QuerySpec spec;
        for (const Relation* rel : kind.rels) {
          spec.relations.push_back(rel->join_relation());
        }
        spec.label = kind.name;
        spec.join = kind.Join();
        const auto t0 = Clock::now();
        TraceSpan span(rec, "client", "query");
        QuerySession* session = engine.Submit(std::move(spec));
        session->Wait();
        done[i] = {session, Ms(t0)};
      }
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kServeClients; ++c) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    log->round_s.push_back(Since(t0));
    log->round_ops.push_back(static_cast<double>(order.size()));

    // Every session is checked by count; every fourth one (rotating with
    // the round) by its full multiset.
    const size_t round = log->round_s.size();
    for (size_t i = 0; i < done.size(); ++i) {
      const Kind& kind = kinds_[order[i]];
      const Expected& ref = refs_[order[i]];
      QuerySession* session = done[i].session;
      log->latency_ms.push_back(done[i].latency_ms);
      if (session->state() != SessionState::kFinished) {
        ++log->attempted;
        log->Fail(std::string("serve: ") + kind.name + " shed");
        continue;
      }
      const QueryOutcome& outcome = session->outcome();
      bool ok = CheckedCount(outcome.result_count) == ref.count;
      if (ok && (i + round) % 4 == 0) {
        if (outcome.is_chain) {
          TupleList tuples = outcome.chain.tuples;
          TupleList spilled = outcome.chain.spilled_tuples.CopyTuples(nullptr);
          tuples.insert(tuples.end(), spilled.begin(), spilled.end());
          ok = Canonical(std::move(tuples)) == ref.tuples;
        } else {
          PairList pairs = outcome.pair.chunks.CopyPairs();
          PairList spilled = outcome.pair.spilled.CopyPairs(nullptr);
          pairs.insert(pairs.end(), spilled.begin(), spilled.end());
          ok = Canonical(std::move(pairs)) == ref.pairs;
        }
      }
      log->Check(ok, std::string("serve: ") + kind.name +
                         " result differs from the sequential reference");
      if (rec == nullptr) continue;
      const Statistics& stats = outcome.is_chain ? outcome.chain.total_stats
                                                 : outcome.pair.total_stats;
      AddJoinCounters(stats, &log->layer);
      if (!outcome.is_chain) AddTaskSkew(outcome.pair.worker_task_counts, log);
      log->layer["io.modeled_ms"] += outcome.modeled_elapsed_micros * 1e-3;
      log->layer_samples["engine.queue_wait_ms"].push_back(
          session->queue_wall_micros() * 1e-3);
      if (outcome.planned) {
        CountPlan(outcome.plan, outcome.is_chain, &log->layer);
        AddEstimate(outcome.plan.estimate,
                    static_cast<double>(outcome.result_count), stats, log);
      }
    }
    if (rec == nullptr) return;
    for (const QueryLogRecord& record : engine.query_log().Records()) {
      log->layer_samples["engine.service_ms"].push_back(record.wall_micros *
                                                        1e-3);
    }
    const QueryEngine::Telemetry tel = engine.telemetry();
    log->layer["io.batches"] += engine.io().io_batches();
    log->layer["engine.sessions_queued"] += tel.sessions_queued;
    log->layer["engine.sessions_shed"] += tel.sessions_shed;
    log->layer_samples["engine.governor_peak_mb"].push_back(
        engine.governor().peak_bytes() / 1048576.0);
  }

 private:
  struct Kind {
    const char* name;
    std::vector<const Relation*> rels;
    JoinPredicate predicate;

    JoinOptions Join() const {
      JoinOptions join;
      join.predicate = predicate;
      if (predicate == JoinPredicate::kWithinDistance) {
        join.epsilon = kServeEpsilon;
      }
      return join;
    }
  };

  struct Expected {
    uint64_t count = 0;
    PairList pairs;
    TupleList tuples;
  };

  std::unique_ptr<MapSet> maps_;
  std::vector<Kind> kinds_;
  std::vector<Expected> refs_;  // one per kind
  PlannerOptions planner_;
  std::mt19937_64 rng_;
};

// overlay: one client runs the exact-geometry ID-join of the A, B, D and E
// pairs in turn, each planned with PlanPairJoin(exact_geometry=true) and
// run single-threaded by RunIdSpatialJoinStreaming. An operation is one
// filter candidate resolved; latency is one pair's join.
class OverlayBench : public Bench {
 public:
  void SetUp(uint64_t seed, TraceRecorder* rec) override {
    maps_ = std::make_unique<MapSet>();
    maps_->Build(seed, /*with_tiny=*/false, rec);
    const MapSet& m = *maps_;
    pairs_ = {{"A", &m.streets, &m.rivers},
              {"B", &m.streets, &m.streets2},
              {"D", &m.rivers, &m.rivers_copy},
              {"E", &m.regions_fine, &m.regions_coarse}};
  }

  void SetupLayers(std::map<std::string, double>* out) const override {
    maps_->AddShapes(out);
  }

  void Reference() override {
    refs_.clear();
    for (const Pair& pair : pairs_) {
      JoinOptions join;
      join.buffer_bytes = kOverlayBufferBytes;
      StreamingRefineOptions refine;
      refine.collect_result_pairs = true;
      StreamingIdJoinResult ref = RunIdSpatialJoinStreaming(
          *pair.r->tree, pair.r->data, *pair.s->tree, pair.s->data, join,
          refine);
      refs_.push_back({ref.candidate_pairs,
                       Sorted(ref.refined.CopyPairs(nullptr))});
    }
  }

  void Round(TraceRecorder* rec, RunLog* log) override {
    double seconds = 0;
    double candidates = 0;
    std::vector<StreamingIdJoinResult> results;
    std::vector<PlanChoice> plans;
    for (const Pair& pair : pairs_) {
      const auto t0 = Clock::now();
      {
        TraceSpan span(rec, "join", "id_join");
        PlanChoice plan = PlanPairJoin(*pair.r->tree, *pair.s->tree,
                                       PlannerOptions{},
                                       /*exact_geometry=*/true);
        JoinOptions join;
        join.buffer_bytes = kOverlayBufferBytes;
        ParallelExecutorOptions exec;
        ApplyPlan(plan, &join, &exec);
        StreamingRefineOptions refine;
        refine.num_threads = 1;
        refine.collect_result_pairs = true;
        refine.tracer = rec;
        results.push_back(RunIdSpatialJoinStreaming(
            *pair.r->tree, pair.r->data, *pair.s->tree, pair.s->data, join,
            refine));
        plans.push_back(plan);
      }
      const double ms = Ms(t0);
      log->latency_ms.push_back(ms);
      seconds += ms * 1e-3;
      candidates += static_cast<double>(results.back().candidate_pairs);
    }
    log->round_s.push_back(seconds);
    log->round_ops.push_back(candidates);

    for (size_t i = 0; i < pairs_.size(); ++i) {
      const Pair& pair = pairs_[i];
      const StreamingIdJoinResult& res = results[i];
      log->Check(
          CheckedCount(res.candidate_pairs) == refs_[i].candidates &&
              Canonical(res.refined.CopyPairs(nullptr)) == refs_[i].results,
          std::string("overlay: ") + pair.name +
              " differs from exact-only refinement");
      if (rec == nullptr) continue;
      const Statistics& stats = res.stats;
      AddJoinCounters(stats, &log->layer);
      log->layer["geom.exact_tests"] +=
          res.candidate_pairs - stats.ri_exact_tests_avoided;
      log->layer["join.candidates"] += res.candidate_pairs;
      log->layer["join.result_pairs"] += res.result_pairs;
      log->layer["join.raster_avoided"] += stats.ri_exact_tests_avoided;
      log->layer["join.raster_signature_mb"] +=
          stats.ri_signature_bytes / 1048576.0;
      CountPlan(plans[i], false, &log->layer);
      AddEstimate(plans[i].estimate, static_cast<double>(res.candidate_pairs),
                  stats, log);
    }
  }

 private:
  struct Pair {
    const char* name;
    const Relation* r;
    const Relation* s;
  };
  struct Expected {
    uint64_t candidates = 0;
    PairList results;
  };

  std::unique_ptr<MapSet> maps_;
  std::vector<Pair> pairs_;
  std::vector<Expected> refs_;  // one per pair
};

// adhoc: raw, unindexed rectangles of workload C at full scale joined by
// the sharded path. One round is one join; declustering and the per-shard
// STR builds are inside the timed region. An operation is one input
// object joined.
class AdhocBench : public Bench {
 public:
  void SetUp(uint64_t seed, TraceRecorder* rec) override {
    MapGenerator gen(seed, 1.0, rec);
    r_ = gen.Streets(kStreetsFull, 1).Mbrs();
    s_ = gen.Rivers().Mbrs();
  }

  void Reference() override {
    PagedFile fr(kPage), fs(kPage);
    auto r = StrTree(&fr, r_);
    auto s = StrTree(&fs, s_);
    ref_pairs_ =
        Sorted(RunSpatialJoin(*r, *s, JoinOptions{}, true).chunks.CopyPairs());
  }

  void Round(TraceRecorder* rec, RunLog* log) override {
    const auto t0 = Clock::now();
    Statistics build_stats;
    DeclusterOptions decluster;
    decluster.num_shards = kShards;
    std::unique_ptr<Declustering> decl;
    {
      TraceSpan span(rec, "shard", "decluster");
      decl = std::make_unique<Declustering>(
          Declustering::Build(r_, s_, decluster));
    }
    std::unique_ptr<ShardedDataset> r, s;
    {
      TraceSpan span(rec, "shard", "build");
      ShardBuildOptions build;
      build.tree = TreeOptions();
      r = std::make_unique<ShardedDataset>(decl.get(), r_, build,
                                           &build_stats);
      s = std::make_unique<ShardedDataset>(decl.get(), s_, build,
                                           &build_stats);
    }
    ShardedJoinResult res;
    {
      TraceSpan span(rec, "shard", "join");
      ShardedJoinOptions options;
      options.exec.num_threads = kShardThreads;
      options.exec.collect_pairs = true;
      options.exec.tracer = rec;
      res = RunShardedSpatialJoin(*r, *s, options);
    }
    const double seconds = Since(t0);
    log->round_s.push_back(seconds);
    log->round_ops.push_back(static_cast<double>(r_.size() + s_.size()));
    log->latency_ms.push_back(seconds * 1e3);

    log->Check(Canonical(res.chunks.CopyPairs()) == ref_pairs_,
               "adhoc: sharded join differs from the single-tree join");
    if (rec == nullptr) return;
    AddJoinCounters(res.stats, &log->layer);
    for (const auto& counts : TaskCountsPerRun(*rec, kShardThreads)) {
      AddTaskSkew(counts, log);
    }
    log->layer["shard.replicated"] += build_stats.sh_objects_replicated;
    log->layer["shard.objects"] += static_cast<double>(r_.size() + s_.size());
    log->layer["shard.raw_pairs"] += res.raw_pairs;
    log->layer["shard.suppressed_pairs"] += res.suppressed_pairs;
    std::vector<double> sizes;
    for (unsigned k = 0; k < kShards; ++k) {
      sizes.push_back(static_cast<double>(r->shard_tree(k).size() +
                                          s->shard_tree(k).size()));
    }
    double sum = 0;
    for (double v : sizes) sum += v;
    log->layer_samples["shard.size_skew"].push_back(
        *std::max_element(sizes.begin(), sizes.end()) / (sum / sizes.size()));
  }

 private:
  std::vector<Rect> r_;
  std::vector<Rect> s_;
  PairList ref_pairs_;
};

std::unique_ptr<Bench> MakeBench(const std::string& name) {
  if (name == "ingest") return std::make_unique<IngestBench>();
  if (name == "serve") return std::make_unique<ServeBench>();
  if (name == "overlay") return std::make_unique<OverlayBench>();
  if (name == "adhoc") return std::make_unique<AdhocBench>();
  return nullptr;
}

// --- memory ----------------------------------------------------------------

// Peak resident set size in KB: VmHWM, which ResetPeakRss restarts, or the
// whole process's peak where /proc is unavailable.
long PeakRssKb() {
  long kb = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (kb < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
  }
  if (kb < 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kb = usage.ru_maxrss;
  }
  return kb;
}

// Restarts the VmHWM peak at the current resident size (Linux clear_refs
// value 5); false where that is not supported.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// --- output ----------------------------------------------------------------

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":" + JsonNumber(value);
  }
  return out + "}";
}

void PrintRaw(const std::string& workload, uint64_t seed, bool trace,
              long setup_peak_rss_kb, const RunLog& log) {
  std::vector<double> traced_s, untraced_s;
  for (size_t i = 0; i < log.round_s.size(); ++i) {
    (log.round_traced[i] ? traced_s : untraced_s).push_back(log.round_s[i]);
  }
  std::string samples = "{";
  for (const auto& [key, values] : log.layer_samples) {
    if (samples.size() > 1) samples += ",";
    samples += "\"" + key + "\":" + JsonList(values);
  }
  samples += "}";
  std::printf(
      "RAW {\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d,"
      "\"geographies\":%u,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
      ",\"setup_peak_rss_kb\":%ld,\"peak_rss_kb\":%ld,"
      "\"setup_s\":%s,\"round_s\":%s,"
      "\"round_ops\":%s,\"untraced_round_s\":%s,\"traced_round_s\":%s,"
      "\"latency_ms\":%s,\"setup_layer\":%s,\"layer\":%s,"
      "\"layer_samples\":%s}\n",
      workload.c_str(), seed, trace ? 1 : 0, kGeographies, log.attempted,
      log.failed, setup_peak_rss_kb, PeakRssKb(),
      JsonList(log.setup_s).c_str(),
      JsonList(log.round_s).c_str(), JsonList(log.round_ops).c_str(),
      JsonList(untraced_s).c_str(), JsonList(traced_s).c_str(),
      JsonList(log.latency_ms).c_str(), JsonMap(log.setup_layer).c_str(),
      JsonMap(log.layer).c_str(), samples.c_str());
}

// --- main loop -------------------------------------------------------------

int RunWorkload(const std::string& workload, uint64_t seed, double seconds,
                bool trace) {
  if (MakeBench(workload) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              workload.c_str(), seed, seconds, trace ? 1 : 0);
  RunLog log;
  std::vector<std::unique_ptr<Bench>> geos;
  for (unsigned g = 0; g < kGeographies; ++g) {
    const uint64_t map_seed = GeographySeed(seed, g);
    std::printf("geography %u: map seed %" PRIu64 "\n", g, map_seed);
    std::unique_ptr<TraceRecorder> rec;
    if (trace) rec = std::make_unique<TraceRecorder>();
    geos.push_back(MakeBench(workload));
    // Untraced runs repeat a cheap set-up (keeping the last) for
    // kSetupSampleSeconds and take the mean as this geography's sample: a
    // single set-up of tens of milliseconds follows the host's clock speed,
    // which swings by a third within seconds.
    double spent = 0;
    int repeats = 0;
    do {
      const auto t0 = Clock::now();
      geos.back()->SetUp(map_seed, rec.get());
      spent += Since(t0);
      ++repeats;
    } while (!trace && spent < kSetupSampleSeconds);
    log.setup_s.push_back(spent / repeats);
    if (trace) {
      RollUpTrace(*rec, &log.setup_layer);
      geos.back()->SetupLayers(&log.setup_layer);
    }
  }
  for (auto& geo : geos) geo->Reference();
  // peak_rss_mb is the peak while the rounds run (the resident inputs,
  // indexes and references included); the set-up's own peak (generator
  // temporaries, reference joins) is reported apart.
  const long setup_peak_rss_kb = PeakRssKb();
  if (!ResetPeakRss()) {
    std::printf("note: the RSS peak cannot be reset here; peak_rss_mb "
                "includes set-up\n");
  }

  // Rounds cycle through the geographies (traced runs alternate untraced
  // and traced rounds, so both see the same machine state; the ratio of
  // their medians is the tracing overhead). Only whole cycles run: another
  // one starts while at least half of it fits into `seconds`.
  const auto start = Clock::now();
  const size_t cycle_rounds = trace ? 2 * kGeographies : kGeographies;
  size_t traced = 0;
  size_t untraced = 0;
  double cycle_start = 0;
  double last_cycle = 0;
  while (log.round_s.empty() || log.round_s.size() % cycle_rounds != 0 ||
         Since(start) + 0.5 * last_cycle < seconds) {
    const bool traced_round = trace && untraced > traced;
    if (traced_round) {
      TraceRecorder rec;
      geos[traced % kGeographies]->Round(&rec, &log);
      RollUpTrace(rec, &log.layer);
      ++traced;
    } else {
      geos[untraced % kGeographies]->Round(nullptr, &log);
      ++untraced;
    }
    log.round_traced.push_back(traced_round);
    if (log.round_s.size() % cycle_rounds == 0) {
      last_cycle = Since(start) - cycle_start;
      cycle_start = Since(start);
    }
  }
  std::printf("rounds=%zu traced=%zu attempted=%" PRIu64 " failed=%" PRIu64
              "\n",
              log.round_s.size(), traced, log.attempted, log.failed);
  PrintRaw(workload, seed, trace, setup_peak_rss_kb, log);
  std::fflush(stdout);
  return log.failed == 0 ? 0 : 1;
}

// Seed 1 must give exactly MakeWorkload's maps.
int CheckPaperSeed() {
  auto same = [](const Dataset& a, const Dataset& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a.objects[i].mbr == b.objects[i].mbr) ||
          a.objects[i].chain.size() != b.objects[i].chain.size()) {
        return false;
      }
      for (size_t v = 0; v < a.objects[i].chain.size(); ++v) {
        if (a.objects[i].chain[v].x != b.objects[i].chain[v].x ||
            a.objects[i].chain[v].y != b.objects[i].chain[v].y) {
          return false;
        }
      }
    }
    return true;
  };
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    ok = ok && cond;
  };
  const MapGenerator gen(kPaperSeed, kMapScale, nullptr);
  const Workload a = MakeWorkload(TestCase::kA, kMapScale);
  const Workload b = MakeWorkload(TestCase::kB, kMapScale);
  const Workload e = MakeWorkload(TestCase::kE, kMapScale);
  expect(same(gen.Streets(kStreets, 1), b.r), "streets = B.r");
  expect(same(gen.Streets(kStreets2, 7), b.s), "streets2 = B.s");
  expect(same(gen.Rivers(), a.s), "rivers = A.s");
  expect(same(gen.Regions(kRegionsFine, 3), e.r), "regions fine = E.r");
  expect(same(gen.Regions(kRegionsCoarse, 11), e.s), "regions coarse = E.s");
  const MapGenerator full(kPaperSeed, 1.0, nullptr);
  const Workload c = MakeWorkload(TestCase::kC, 1.0);
  expect(same(full.Streets(kStreetsFull, 1), c.r), "streets full = C.r");
  expect(same(full.Rivers(), c.s), "rivers full = C.s");
  expect(!same(MapGenerator(kPaperSeed + 1, kMapScale, nullptr).Rivers(),
               a.s),
         "another seed gives other rivers");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = kPaperSeed;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--perturb") {
      g_perturb = true;
    } else if (arg == "--check-paper-seed") {
      return CheckPaperSeed();
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!(seconds > 0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  return RunWorkload(workload, seed, seconds, trace);
}

}  // namespace
}  // namespace perfbench
}  // namespace rsj

int main(int argc, char** argv) { return rsj::perfbench::Main(argc, argv); }
