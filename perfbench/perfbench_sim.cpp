// Host-performance program behind perfbench/run.py. It runs one workload's
// simulation points, times each call it makes into the simulator's public
// API from outside (Platform::create, VersionDesc::run, SweepRunner::run,
// ResultCache::insert/lookup, Fiber resume/yield), and writes the raw
// measurements as one JSON document. Next to the measured points it times
// a fixed reference kernel, against which run.py calibrates the host's
// speed. run.py derives every metric from that document and checks
// correctness; this file does no statistics.
//
//   perfbench_sim --workload W --seed N --seconds S --trace 0|1
//                 --jobs J --out FILE --work-dir DIR
#include "core/app.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "runtime/platform.hpp"
#include "runtime/trace.hpp"
#include "sim/fiber.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace rsvm;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_t0 = Clock::now();

double msSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
double nowMs() { return msSince(g_t0); }

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 1;
  std::string out;
  std::string work_dir;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--jobs") a.jobs = std::max(1, std::stoi(v));
    else if (k == "--out") a.out = v;
    else if (k == "--work-dir") a.work_dir = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.out.empty() || a.work_dir.empty()) {
    throw std::invalid_argument("--workload, --out and --work-dir are required");
  }
  return a;
}

// ---------------------------------------------------------------- points

// One simulation as the benchmark names it. The seed shift is added to
// the app's own default seed, so shift 0 runs the inputs the pinned
// fingerprints were recorded from.
struct Spec {
  PlatformKind kind = PlatformKind::SVM;
  std::string app;
  std::string version;
  bool tiny = false;
  int procs = 16;
  bool baseline = false;  ///< uniprocessor run of the original version
};

std::string specName(const Spec& s) {
  return s.app + "/" + s.version + " " + platformName(s.kind) + " " +
         std::to_string(s.procs) + "p " + (s.tiny ? "tiny" : "small") +
         (s.baseline ? " base" : "");
}

const AppDesc& appOf(const Spec& s) {
  const AppDesc* app = Registry::instance().find(s.app);
  if (app == nullptr) throw std::runtime_error("unknown app " + s.app);
  return *app;
}

AppParams paramsOf(const Spec& s, std::uint64_t shift) {
  AppParams p = s.tiny ? appOf(s).tiny : appOf(s).small;
  p.seed += shift;
  return p;
}

// The paper's Figure 16 at tiny inputs: every app x version x {SVM, SMP,
// DSM} at 16 processors, plus each (app, platform)'s uniprocessor
// baseline of the original version. A tiny sweep takes well under a
// second, so a run holds enough sweeps for a steady statistic. Baselines
// are explicit points (rather than SweepRunner's with_baseline) so that
// every point's host time outside Engine::run is its own set-up and
// nothing else; the set of simulations is the same.
std::vector<Spec> fig16Specs() {
  const PlatformKind kinds[] = {PlatformKind::SVM, PlatformKind::SMP,
                                PlatformKind::NUMA};
  std::vector<Spec> out;
  for (const AppDesc& app : Registry::instance().all()) {
    for (PlatformKind k : kinds) {
      out.push_back({k, app.name, app.original().name, true, 1, true});
    }
    for (const VersionDesc& v : app.versions) {
      for (PlatformKind k : kinds) {
        out.push_back({k, app.name, v.name, true, 16, false});
      }
    }
  }
  return out;
}

// Points whose accesses mostly stay in the runtime's inline fast path.
std::vector<Spec> hitBoundSpecs() {
  std::vector<Spec> out;
  for (PlatformKind k : {PlatformKind::SMP, PlatformKind::NUMA}) {
    out.push_back({k, "lu", "4d-aligned", false, 16, false});
    out.push_back({k, "shearwarp", "alg", false, 16, false});
    out.push_back({k, "raytrace", "alg-nolock", false, 16, false});
  }
  return out;
}

// Points whose accesses mostly take the slow path into mem/proto/net.
// Barnes runs its tiny input so that a pass stays near two seconds and a
// run holds enough passes for a steady statistic.
std::vector<Spec> missBoundSpecs() {
  return {
      {PlatformKind::SVM, "radix", "orig", true, 256, false},
      {PlatformKind::SVM, "barnes", "orig", true, 16, false},
      {PlatformKind::SVM, "ocean", "2d-pad", false, 16, false},
      {PlatformKind::SVM, "index", "hash-orig", false, 16, false},
      {PlatformKind::FGS, "lu", "2d", false, 16, false},
  };
}

// ---------------------------------------------------------------- records

constexpr int kNumEventKinds = static_cast<int>(TraceEvent::Kind::Alloc) + 1;

struct PointRec {
  std::string name;
  std::string error;
  bool correct = false;
  bool cached = false;
  double start_ms = -1;  ///< process-relative time the point began
  double wall_ms = -1;   ///< whole point (create + run), host time
  double create_ms = -1;
  double run_ms = -1;  ///< VersionDesc::run, host time (direct points)
  double host_wall_ms = 0;  ///< Engine::run, as RunStats reports it
  double ref_ms = -1;  ///< reference kernel, run on the same worker just after
  long long slow_calls = -1;
  long long oracle_violations = -1;
  bool has_events = false;
  std::array<std::size_t, kNumEventKinds> events{};
  AppResult app;
};

struct Span {
  std::string name;
  double start_ms;
  double end_ms;
  int parent;
  int point;
};

// Peak resident memory of one pass. Before the pass the heap is trimmed
// and the kernel's high-water mark reset, so the peak is the pass's own
// rather than what earlier passes left behind in the allocator. Where
// the reset is unavailable the process-wide peak is reported instead.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

long peakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

struct Pass {
  std::string label;
  double wall_ms = 0;
  long peak_rss_kb = 0;
  bool sweep = false;
  std::vector<double> ref_ms;  ///< reference kernel on every worker, after a sweep
  SweepRunner::FleetStats fleet{};
  std::vector<PointRec> points;
};

std::vector<Span> g_spans;
bool g_span_on = false;

int span(const std::string& name, double start, double end, int parent,
         int point) {
  if (!g_span_on) return -1;
  g_spans.push_back({name, start, end, parent, point});
  return static_cast<int>(g_spans.size()) - 1;
}

// ---------------------------------------------------------------- direct

enum class Mode { Normal, FilterOff, Oracle, TraceHook };

PointRec runDirect(const Spec& s, std::uint64_t shift, Mode mode,
                   int parent_span, int point_id) {
  PointRec rec;
  rec.name = specName(s);
  rec.start_ms = nowMs();
  const auto t0 = Clock::now();
  try {
    const AppDesc& app = appOf(s);
    const VersionDesc* ver =
        s.baseline ? &app.original() : app.version(s.version);
    if (ver == nullptr) throw std::runtime_error("unknown version " + s.version);
    const AppParams params = paramsOf(s, shift);
    auto plat = Platform::create(s.kind, s.procs);
    rec.create_ms = msSince(t0);
    TraceRecorder recorder;
    if (mode == Mode::FilterOff) plat->setFastPathEnabled(false);
    if (mode == Mode::Oracle) plat->setCheckLevel(CheckLevel::Oracle);
    if (mode == Mode::TraceHook) plat->trace = recorder.hook();
    const auto t1 = Clock::now();
    rec.app = ver->run(*plat, params);
    const double run_ms = msSince(t1);
    rec.run_ms = run_ms;
    rec.correct = rec.app.correct;
    if (!rec.correct) rec.error = "incorrect result: " + rec.app.note;
    rec.host_wall_ms = rec.app.stats.host_wall_ms;
    rec.slow_calls = static_cast<long long>(plat->slowAccessCalls());
    if (const OracleReport* rep = plat->oracleReport()) {
      rec.oracle_violations = static_cast<long long>(rep->total);
    }
    if (mode == Mode::TraceHook) {
      rec.has_events = true;
      for (int k = 0; k < kNumEventKinds; ++k) {
        rec.events[static_cast<std::size_t>(k)] =
            recorder.count(static_cast<TraceEvent::Kind>(k));
      }
    }
    // Spans: the engine span is rebuilt from host_wall_ms; its length is
    // exact, its position (at the end of apps.run) is nominal.
    const double c0 = rec.start_ms;
    const double r0 = c0 + rec.create_ms;
    const double r1 = r0 + run_ms;
    const int ps = span("point", c0, r1, parent_span, point_id);
    span("runtime.create", c0, r0, ps, point_id);
    const int as = span("apps.run", r0, r1, ps, point_id);
    span("sim.engine", r1 - rec.host_wall_ms, r1, as, point_id);
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.wall_ms = msSince(t0);
  return rec;
}

Pass directPass(const std::string& label, const std::vector<Spec>& specs,
                std::uint64_t shift, Mode mode, int parent_span) {
  Pass pass;
  pass.label = label;
  const double start = nowMs();
  const int ps = span("pass." + label, start, start, parent_span, -1);
  resetPeakRss();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pass.points.push_back(
        runDirect(specs[i], shift, mode, ps, static_cast<int>(i)));
  }
  pass.wall_ms = msSince(t0);
  pass.peak_rss_kb = peakRssKb();
  if (ps >= 0) g_spans[static_cast<std::size_t>(ps)].end_ms = nowMs();
  return pass;
}

// The reference kernel: a fixed amount of allocator churn (small vectors
// allocated, written and freed), timed between measured points on the
// same worker. Its time tracks the host's speed at that moment, so the
// end-to-end times are calibrated against it (see perfbench/README.md).
// It is the benchmark's own code, so no change to the simulator moves it.
std::atomic<std::uintptr_t> g_ref_sink{0};

double referenceMs() {
  constexpr int kAllocs = 40000;
  constexpr std::size_t kLive = 500;
  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<std::vector<int>>> live;
  live.reserve(kLive);
  std::uintptr_t sink = 0;
  for (int k = 0; k < kAllocs; ++k) {
    live.push_back(std::make_unique<std::vector<int>>(16 + k % 200, k));
    if (live.size() == kLive) {
      for (const auto& v : live) {
        sink += reinterpret_cast<std::uintptr_t>(v->data()) + v->back();
      }
      live.clear();
    }
  }
  live.clear();
  g_ref_sink.fetch_add(sink, std::memory_order_relaxed);
  return msSince(t0);
}

// Runs the reference kernel `rounds` times on each of `jobs` threads at
// once (the load a sweep puts on the host) and returns every sample.
std::vector<double> referenceBurst(int jobs, int rounds) {
  std::vector<std::vector<double>> got(static_cast<std::size_t>(jobs));
  std::vector<std::thread> threads;
  for (int w = 0; w < jobs; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        got[static_cast<std::size_t>(w)].push_back(referenceMs());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> out;
  for (const auto& g : got) out.insert(out.end(), g.begin(), g.end());
  return out;
}

// Fills the calling thread's fiber stack pool (it keeps up to its own cap
// of idle stacks), so measured points reuse stacks as later points do.
void fillStackPool() {
  std::vector<std::unique_ptr<Fiber>> fill;
  for (int i = 0; i < 256; ++i) fill.push_back(std::make_unique<Fiber>([] {}));
}

// Measured passes of one-at-a-time points with the host fully loaded:
// `jobs` worker threads, each pinned to its own core of the process's
// affinity set, each running the whole point list one point at a time
// (starting at a different point, so the mix of concurrent points varies)
// and starting another pass while one more fits in `seconds`. A lone
// thread on an otherwise idle shared VM ran up to 2x slower or faster in
// phases of tens of seconds; with every core busy the same points ran at
// a steady speed. No peak RSS is taken here: the workers' points overlap.
std::vector<Pass> loadedPasses(const std::vector<Spec>& specs,
                               std::uint64_t shift, int jobs, double seconds) {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  std::vector<std::vector<Pass>> done(static_cast<std::size_t>(jobs));
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&, w] {
      if (static_cast<int>(cpus.size()) >= jobs) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[static_cast<std::size_t>(w)], &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      }
      fillStackPool();
      const std::size_t n = specs.size();
      const std::size_t first = static_cast<std::size_t>(w) * n /
                                static_cast<std::size_t>(jobs);
      double last_ms = 0;
      while (msSince(t0) + last_ms <= seconds * 1000.0) {
        Pass pass;
        pass.label = "measured";
        pass.peak_rss_kb = -1;
        pass.points.resize(n);
        const auto p0 = Clock::now();
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = (first + k) % n;
          pass.points[i] = runDirect(specs[i], shift, Mode::Normal, -1,
                                     static_cast<int>(i));
          pass.points[i].ref_ms = referenceMs();
        }
        pass.wall_ms = last_ms = msSince(p0);
        done[static_cast<std::size_t>(w)].push_back(std::move(pass));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::vector<Pass> out;
  for (auto& d : done) {
    for (Pass& p : d) out.push_back(std::move(p));
  }
  return out;
}

// ---------------------------------------------------------------- sweeps

// Observes each sweep point's Platform::create through the point's
// make_platform factory, which SweepRunner calls on the worker thread
// that runs the point.
struct SweepProbe {
  std::mutex mu;
  std::vector<double> create_start_ms;
  std::vector<double> create_ms;
  std::map<std::thread::id, Fiber::StackPoolStats> stacks;
  // Sentinels: one per worker, each blocks until all have arrived, so
  // every worker's stack-pool counters are read after its last real
  // point and before the worker exits and drains its pool.
  std::condition_variable cv;
  int sentinels_waiting = 0;
  int sentinels_total = 0;
  bool sentinels_complete = true;
};

SweepPoint sweepPoint(const Spec& s, std::uint64_t shift) {
  SweepPoint p;
  p.kind = s.kind;
  p.app = s.app;
  p.version = s.baseline ? appOf(s).original().name : s.version;
  p.params = paramsOf(s, shift);
  p.procs = s.procs;
  p.with_baseline = false;
  p.config = "perfbench";
  return p;
}

std::vector<SweepPoint> sweepPoints(const std::vector<Spec>& specs,
                                    std::uint64_t shift,
                                    const std::shared_ptr<SweepProbe>& probe,
                                    int sentinels) {
  std::vector<SweepPoint> pts;
  probe->create_start_ms.assign(specs.size(), -1);
  probe->create_ms.assign(specs.size(), -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SweepPoint p = sweepPoint(specs[i], shift);
    const PlatformKind kind = specs[i].kind;
    p.make_platform = [probe, i, kind](int n) {
      const double s = nowMs();
      const auto t0 = Clock::now();
      auto plat = Platform::create(kind, n);
      const double ms = msSince(t0);
      std::lock_guard<std::mutex> lk(probe->mu);
      probe->create_start_ms[i] = s;
      probe->create_ms[i] = ms;
      probe->stacks[std::this_thread::get_id()] = Fiber::stackPoolStats();
      return plat;
    };
    pts.push_back(std::move(p));
  }
  probe->sentinels_total = sentinels;
  for (int j = 0; j < sentinels; ++j) {
    SweepPoint p = sweepPoint({PlatformKind::SMP, "lu", "2d", true, 1, true}, 0);
    p.config = "perfbench-sentinel";
    p.make_platform = [probe](int n) {
      std::unique_lock<std::mutex> lk(probe->mu);
      probe->stacks[std::this_thread::get_id()] = Fiber::stackPoolStats();
      ++probe->sentinels_waiting;
      probe->cv.notify_all();
      if (!probe->cv.wait_for(lk, std::chrono::seconds(120), [&] {
            return probe->sentinels_waiting >= probe->sentinels_total;
          })) {
        probe->sentinels_complete = false;
      }
      return Platform::create(PlatformKind::SMP, n);
    };
    pts.push_back(std::move(p));
  }
  return pts;
}

Pass sweepPass(const std::string& label, const std::vector<Spec>& specs,
               std::uint64_t shift, int jobs, const std::string& cache_dir,
               int sentinels, const std::shared_ptr<SweepProbe>& probe,
               int parent_span) {
  Pass pass;
  pass.label = label;
  pass.sweep = true;
  const auto pts = sweepPoints(specs, shift, probe, sentinels);
  SweepRunner::Config cfg;
  cfg.jobs = jobs;
  cfg.cache_dir = cache_dir;
  SweepRunner runner(cfg);
  resetPeakRss();
  const double start = nowMs();
  const auto t0 = Clock::now();
  const auto results = runner.run(pts);
  pass.wall_ms = msSince(t0);
  pass.peak_rss_kb = peakRssKb();
  pass.ref_ms = referenceBurst(jobs, 4);
  pass.fleet = runner.fleetStats();
  const int ps = span("pass." + label, start, nowMs(), parent_span, -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SweepResult& r = results[i];
    PointRec rec;
    rec.name = specName(specs[i]);
    rec.error = r.error;
    rec.correct = r.app.correct;
    rec.cached = r.cached;
    rec.app = r.app;
    rec.wall_ms = r.wall_ms;
    rec.host_wall_ms = r.app.stats.host_wall_ms;
    rec.create_ms = probe->create_ms[i];
    // Point and engine spans are rebuilt from SweepResult::wall_ms and
    // host_wall_ms, anchored at the observed Platform::create call.
    const double c0 = probe->create_start_ms[i];
    if (c0 >= 0 && !r.cached) {
      const double c1 = c0 + rec.create_ms;
      const double end = c0 + r.wall_ms;
      const int pt = span("point", c0, end, ps, static_cast<int>(i));
      span("runtime.create", c0, c1, pt, static_cast<int>(i));
      const int as = span("apps.run", c1, end, pt, static_cast<int>(i));
      span("sim.engine", end - rec.host_wall_ms, end, as,
           static_cast<int>(i));
    }
    pass.points.push_back(std::move(rec));
  }
  return pass;
}

// ---------------------------------------------------------------- probes

// Fiber resume+yield round trip, in ns, one sample per call.
double switchNs() {
  constexpr int kRounds = 200000;
  Fiber f([] {
    for (int k = 0; k < kRounds; ++k) Fiber::yieldToScheduler();
  });
  const auto t0 = Clock::now();
  while (!f.finished()) f.resume();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
         kRounds;
}

// Stores every point's result into a fresh cache and looks each one up
// again, timing both calls per point.
void cacheOps(const std::vector<Spec>& specs, const Pass& pass,
              std::uint64_t shift, const std::string& dir,
              std::vector<double>* store_ms, std::vector<double>* lookup_ms,
              int parent_span) {
  ResultCache cache(dir);
  const double start = nowMs();
  const int ps = span("pass.cache", start, start, parent_span, -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SweepPoint p = sweepPoint(specs[i], shift);
    SweepResult r;
    r.app = pass.points[i].app;
    r.cycles = r.app.stats.exec_cycles;
    const double s0 = nowMs();
    auto t = Clock::now();
    cache.insert(p, r);
    store_ms->push_back(msSince(t));
    const double s1 = nowMs();
    t = Clock::now();
    const bool hit = cache.lookup(p).has_value();
    lookup_ms->push_back(hit ? msSince(t) : -1.0);
    const double s2 = nowMs();
    const int pt = span("point", s0, s2, ps, static_cast<int>(i));
    span("core.cache_insert", s0, s1, pt, static_cast<int>(i));
    span("core.cache_lookup", s1, s2, pt, static_cast<int>(i));
  }
  if (ps >= 0) g_spans[static_cast<std::size_t>(ps)].end_ms = nowMs();
}

// ---------------------------------------------------------------- output

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The simulated result of a point: every field a host-only change must
// leave bit-identical.
void writeFingerprint(std::ostream& o, const AppResult& a) {
  const RunStats& s = a.stats;
  o << "{\"exec_cycles\":" << s.exec_cycles;
  for (int b = 0; b < kNumBuckets; ++b) {
    o << ",\"" << bucketName(static_cast<Bucket>(b))
      << "\":" << s.bucketTotal(static_cast<Bucket>(b));
  }
  const std::pair<const char*, std::uint64_t ProcStats::*> counters[] = {
      {"reads", &ProcStats::reads},
      {"writes", &ProcStats::writes},
      {"l1_misses", &ProcStats::l1_misses},
      {"l2_misses", &ProcStats::l2_misses},
      {"page_faults", &ProcStats::page_faults},
      {"write_faults", &ProcStats::write_faults},
      {"diffs_created", &ProcStats::diffs_created},
      {"diff_bytes", &ProcStats::diff_bytes},
      {"remote_misses", &ProcStats::remote_misses},
      {"local_misses", &ProcStats::local_misses},
      {"invalidations_sent", &ProcStats::invalidations_sent},
      {"lock_acquires", &ProcStats::lock_acquires},
      {"remote_lock_acquires", &ProcStats::remote_lock_acquires},
      {"barriers", &ProcStats::barriers},
      {"tasks_executed", &ProcStats::tasks_executed},
      {"tasks_stolen", &ProcStats::tasks_stolen},
      {"allocs", &ProcStats::allocs},
  };
  for (const auto& [name, field] : counters) {
    o << ",\"" << name << "\":" << s.sum(field);
  }
  o << ",\"state_hash\":" << a.state_hash
    << ",\"result_hash\":" << a.result_hash << "}";
}

void writePass(std::ostream& o, const Pass& p) {
  o << "{\"label\":" << jstr(p.label) << ",\"wall_ms\":" << jnum(p.wall_ms)
    << ",\"peak_rss_kb\":" << p.peak_rss_kb
    << ",\"sweep\":" << (p.sweep ? "true" : "false");
  if (p.sweep) {
    o << ",\"fleet\":{\"computed\":" << p.fleet.computed
      << ",\"cache_hits\":" << p.fleet.cache_hits
      << ",\"stores\":" << p.fleet.stores << "},\"ref_ms\":[";
    for (std::size_t i = 0; i < p.ref_ms.size(); ++i) {
      o << (i ? "," : "") << jnum(p.ref_ms[i]);
    }
    o << "]";
  }
  o << ",\"points\":[";
  for (std::size_t i = 0; i < p.points.size(); ++i) {
    const PointRec& r = p.points[i];
    o << (i ? "," : "") << "\n{\"name\":" << jstr(r.name)
      << ",\"error\":" << jstr(r.error)
      << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"cached\":" << (r.cached ? "true" : "false")
      << ",\"wall_ms\":" << jnum(r.wall_ms)
      << ",\"create_ms\":" << jnum(r.create_ms)
      << ",\"run_ms\":" << jnum(r.run_ms)
      << ",\"host_wall_ms\":" << jnum(r.host_wall_ms)
      << ",\"ref_ms\":" << jnum(r.ref_ms)
      << ",\"slow_calls\":" << r.slow_calls
      << ",\"oracle_violations\":" << r.oracle_violations;
    if (r.has_events) {
      o << ",\"events\":{";
      for (int k = 0; k < kNumEventKinds; ++k) {
        o << (k ? "," : "") << "\""
          << traceKindName(static_cast<TraceEvent::Kind>(k))
          << "\":" << r.events[static_cast<std::size_t>(k)];
      }
      o << "}";
    }
    o << ",\"fp\":";
    writeFingerprint(o, r.app);
    o << "}";
  }
  o << "]}";
}

const char* sanitizerName() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "yes";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "yes";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (!optimized() || build_type == "Debug" ||
      std::string(sanitizerName()) != "none") {
    std::fprintf(stderr,
                 "perfbench_sim: refusing to measure host time in a %s build "
                 "(optimized=%d, sanitizer=%s)\n",
                 build_type.c_str(), optimized() ? 1 : 0, sanitizerName());
    return 3;
  }

  registerAllApps();
  fillStackPool();

  const bool sweep = args.workload == "fig16";
  std::vector<Spec> specs;
  if (sweep) specs = fig16Specs();
  else if (args.workload == "hit-bound") specs = hitBoundSpecs();
  else if (args.workload == "miss-bound") specs = missBoundSpecs();
  else {
    std::fprintf(stderr, "perfbench_sim: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const std::uint64_t shift = args.seed;
  std::vector<Pass> passes;
  std::vector<double> store_ms, lookup_ms, switch_ns;
  Fiber::StackPoolStats stacks{};
  bool stacks_complete = true;
  std::filesystem::create_directories(args.work_dir);
  const auto cacheDir = [&](const std::string& tag) {
    return args.work_dir + "/cache-" + tag;
  };
  // One pass over the workload's points: a SweepRunner sweep into a
  // fresh cache for fig16, the points one at a time otherwise.
  const auto pass = [&](const std::string& label, Mode mode, int parent,
                        const std::shared_ptr<SweepProbe>& probe,
                        int sentinels) {
    if (sweep) {
      std::filesystem::remove_all(cacheDir(label));
      passes.push_back(sweepPass(label, specs, shift, args.jobs,
                                 cacheDir(label), sentinels, probe, parent));
    } else {
      passes.push_back(directPass(label, specs, shift, mode, parent));
    }
  };
  const auto plain = [&](const std::string& label) {
    pass(label, Mode::Normal, -1, std::make_shared<SweepProbe>(), 0);
  };

  try {
    plain("warmup");
    if (!args.trace && !sweep) {
      for (Pass& p : loadedPasses(specs, shift, args.jobs, args.seconds)) {
        passes.push_back(std::move(p));
      }
    } else if (!args.trace) {
      const auto t0 = Clock::now();
      plain("measured");
      while (msSince(t0) + passes.back().wall_ms <= args.seconds * 1000.0) {
        plain("measured");
      }
    } else {
      plain("measured");
      g_span_on = true;
      const int ws = span("workload", nowMs(), nowMs(), -1, -1);
      const auto probe = std::make_shared<SweepProbe>();
      const Fiber::StackPoolStats before = Fiber::stackPoolStats();
      pass("traced", Mode::Normal, ws, probe, args.jobs);
      if (sweep) {
        // Each worker's pool, read by its sentinel point.
        for (const auto& [tid, st] : probe->stacks) {
          stacks.allocated += st.allocated;
          stacks.reused += st.reused;
        }
        stacks_complete = probe->sentinels_complete;
      } else {
        const Fiber::StackPoolStats after = Fiber::stackPoolStats();
        stacks.allocated = after.allocated - before.allocated;
        stacks.reused = after.reused - before.reused;
      }
      std::filesystem::remove_all(cacheDir("ops"));
      cacheOps(specs, passes.back(), shift, cacheDir("ops"), &store_ms,
               &lookup_ms, ws);
      // A warm re-run through SweepRunner against the cache just filled.
      passes.push_back(sweepPass("warm", specs, shift, args.jobs,
                                 cacheDir("ops"), 0,
                                 std::make_shared<SweepProbe>(), ws));
      g_spans[static_cast<std::size_t>(ws)].end_ms = nowMs();
      g_span_on = false;
      if (!sweep) {
        // The coherence oracle tracks at most 64 coherence domains.
        std::vector<Spec> checkable;
        for (const Spec& s : specs) {
          if (s.procs <= 64) checkable.push_back(s);
        }
        // Observer passes, each on its own and interleaved with untraced
        // ones over three rounds, so that their ratios to the untraced
        // engine time compare passes run close together.
        for (int round = 0; round < 3; ++round) {
          passes.push_back(
              directPass("filter_off", specs, shift, Mode::FilterOff, -1));
          passes.push_back(
              directPass("oracle", checkable, shift, Mode::Oracle, -1));
          passes.push_back(
              directPass("trace_hook", specs, shift, Mode::TraceHook, -1));
          plain("measured");
        }
      }
      for (int i = 0; i < 5; ++i) switch_ns.push_back(switchNs());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_sim: %s\n", e.what());
    return 1;
  }

  std::ostringstream o;
  o << "{\"workload\":" << jstr(args.workload) << ",\"seed\":" << args.seed
    << ",\"jobs\":" << args.jobs << ",\"trace\":" << (args.trace ? 1 : 0)
    << ",\n\"host\":{\"compiler\":" << jstr(PERFBENCH_COMPILER)
    << ",\"build_type\":" << jstr(build_type)
    << ",\"optimized\":" << (optimized() ? "true" : "false")
    << ",\"sanitizer\":" << jstr(sanitizerName())
    << ",\"fiber\":" << jstr(Fiber::backendName(Fiber::defaultBackend()))
    << ",\"engine_rev\":" << jstr(engineRev())
    << ",\"hw_threads\":" << std::thread::hardware_concurrency() << "}"
    << ",\n\"stacks\":{\"allocated\":" << stacks.allocated
    << ",\"reused\":" << stacks.reused
    << ",\"complete\":" << (stacks_complete ? "true" : "false") << "}";
  const auto list = [&](const char* key, const std::vector<double>& v) {
    o << ",\n\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << jnum(v[i]);
    o << "]";
  };
  list("switch_ns", switch_ns);
  list("cache_store_ms", store_ms);
  list("cache_lookup_ms", lookup_ms);
  o << ",\n\"spans\":[";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    o << (i ? "," : "") << "\n{\"id\":" << i << ",\"name\":" << jstr(s.name)
      << ",\"start_ms\":" << jnum(s.start_ms) << ",\"end_ms\":" << jnum(s.end_ms)
      << ",\"parent\":" << s.parent << ",\"point\":" << s.point << "}";
  }
  o << "],\n\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    o << (i ? ",\n" : "");
    writePass(o, passes[i]);
  }
  o << "]}\n";

  std::ofstream f(args.out, std::ios::binary | std::ios::trunc);
  f << o.str();
  if (!f.good()) {
    std::fprintf(stderr, "perfbench_sim: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}
