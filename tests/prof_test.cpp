// SMART-Prof tests: sampling correctness (hot-frame attribution, span
// tagging, trace-id filtering), export parse-back (folded + speedscope),
// signal-safety under a thread pool, ring-overflow accounting, span-level
// resource accounting, and the profiler's measured overhead budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/constraints.h"
#include "core/sizer.h"
#include "gp/solver.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "prof/prof.h"
#include "prof/resource.h"
#include "tech/tech.h"
#include "util/json.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SMART_PROF_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SMART_PROF_TEST_SANITIZED 1
#endif
#endif

// External linkage on purpose: dladdr symbolization only sees dynamic
// symbols (-rdynamic exports non-static functions from the binary), so the
// hot frames the tests look for must not be file-static. noipa also keeps
// GCC's interprocedural constant propagation at -O3 from replacing a spin
// with a local `.constprop` clone, which dladdr cannot name.
#if defined(__clang__)
#define PROF_TEST_SPIN __attribute__((noinline))
#else
#define PROF_TEST_SPIN __attribute__((noipa))
#endif
PROF_TEST_SPIN uint64_t prof_test_hot_spin(uint64_t iters) {
  uint64_t acc = 1469598103934665603ull;
  for (uint64_t i = 0; i < iters; ++i) {
    acc ^= i;
    acc *= 1099511628211ull;
  }
  return acc;
}

PROF_TEST_SPIN uint64_t prof_test_other_spin(uint64_t iters) {
  uint64_t acc = 88172645463325252ull;
  for (uint64_t i = 0; i < iters; ++i) {
    acc ^= acc << 13;
    acc ^= acc >> 7;
    acc ^= acc << 17;
    acc += i;
  }
  return acc;
}

namespace {

using namespace smart;

volatile uint64_t g_sink;

/// Spins until roughly `ms` of this thread's CPU time has elapsed.
void spin_cpu_ms(double ms) {
  const prof::ResourceUsage start = prof::snapshot_usage();
  while (prof::snapshot_usage().utime_ms + prof::snapshot_usage().stime_ms -
             start.utime_ms - start.stime_ms <
         ms)
    g_sink = prof_test_hot_spin(200000);
}

/// Fresh profiler run wrapper: every test starts with an empty retained
/// buffer and stops collection on exit.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof::Profiler::instance().stop();
    prof::Profiler::instance().reset();
  }
  void TearDown() override {
    prof::Profiler::instance().stop();
    prof::Profiler::instance().reset();
    obs::Telemetry::instance().enable(false);
    obs::Telemetry::instance().reset();
  }
};

TEST_F(ProfTest, StartValidatesOptions) {
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions bad;
  bad.hz = -5.0;
  EXPECT_FALSE(profiler.start(bad).ok());
  EXPECT_FALSE(profiler.collecting());

  ASSERT_TRUE(profiler.start({}).ok());
  EXPECT_TRUE(profiler.collecting());
  EXPECT_FALSE(profiler.start({}).ok()) << "second start must fail";
  profiler.stop();
  EXPECT_FALSE(profiler.collecting());
}

TEST_F(ProfTest, HotFrameGetsAtLeast80PercentOfSamples) {
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());
  {
    obs::Span span("prof_test.spin");
    spin_cpu_ms(400.0);
  }
  profiler.stop();

  const size_t total = profiler.sample_count();
  ASSERT_GE(total, 50u) << "CPU-time sampling at 997 Hz over 400ms of spin";

  size_t hot = 0;
  for (const auto& frame : profiler.top_frames(200)) {
    if (frame.frame.find("prof_test_hot_spin") != std::string::npos) {
      hot = frame.total;
      break;
    }
  }
  EXPECT_GE(static_cast<double>(hot), 0.8 * static_cast<double>(total))
      << "hot frame got " << hot << " of " << total << " samples";

  // The same attribution must survive the folded export.
  const std::string folded = profiler.folded();
  EXPECT_NE(folded.find("prof_test_hot_spin"), std::string::npos);
  EXPECT_NE(folded.find("span:prof_test.spin"), std::string::npos);
}

TEST_F(ProfTest, SampleCountsTrackSpanWallTimeRatio) {
  // Two spans doing 2:1 CPU work; their sample counts must track their
  // wall-time ratio within the +-20% acceptance band. CPU-time sampling
  // tracks CPU seconds, and the spans only spin, so wall == CPU up to
  // scheduler noise.
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());

  obs::StopWatch watch_a;
  double wall_a = 0.0, wall_b = 0.0;
  {
    obs::Span span("prof_test.heavy");
    spin_cpu_ms(500.0);
    wall_a = watch_a.elapsed_ms();
  }
  obs::StopWatch watch_b;
  {
    obs::Span span("prof_test.light");
    spin_cpu_ms(250.0);
    wall_b = watch_b.elapsed_ms();
  }
  profiler.stop();

  const auto by_span = profiler.samples_by_span();
  const auto heavy = by_span.find("prof_test.heavy");
  const auto light = by_span.find("prof_test.light");
  ASSERT_NE(heavy, by_span.end());
  ASSERT_NE(light, by_span.end());
  ASSERT_GE(light->second, 50u);

  const double sample_ratio = static_cast<double>(heavy->second) /
                              static_cast<double>(light->second);
  const double wall_ratio = wall_a / wall_b;
  EXPECT_NEAR(sample_ratio / wall_ratio, 1.0, 0.2)
      << "samples " << heavy->second << ":" << light->second << ", wall "
      << wall_a << ":" << wall_b;
}

TEST_F(ProfTest, FoldedParsesBackAndCountsAddUp) {
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());
  {
    obs::Span span("prof_test.folded");
    spin_cpu_ms(150.0);
  }
  profiler.stop();
  ASSERT_GT(profiler.sample_count(), 0u);

  // Folded format: `frame;frame;... count` per line; the counts must sum
  // to exactly the retained sample count.
  const std::string folded = profiler.folded();
  ASSERT_FALSE(folded.empty());
  size_t sum = 0, start = 0;
  while (start < folded.size()) {
    size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u);
    const std::string stack = line.substr(0, space);
    EXPECT_FALSE(stack.empty());
    const long count = std::atol(line.c_str() + space + 1);
    ASSERT_GT(count, 0) << line;
    sum += static_cast<size_t>(count);
  }
  EXPECT_EQ(sum, profiler.sample_count());
}

TEST_F(ProfTest, SpeedscopeJsonParsesBackConsistently) {
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());
  spin_cpu_ms(150.0);
  profiler.stop();
  ASSERT_GT(profiler.sample_count(), 0u);

  util::JsonValue root;
  ASSERT_TRUE(util::json_parse(profiler.speedscope_json("prof_test"), &root));
  const util::JsonValue* schema = root.find("$schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_NE(schema->str.find("speedscope"), std::string::npos);

  const util::JsonValue* shared = root.find("shared");
  ASSERT_NE(shared, nullptr);
  const util::JsonValue* frames = shared->find("frames");
  ASSERT_NE(frames, nullptr);
  ASSERT_EQ(frames->kind, util::JsonValue::Kind::kArray);
  const size_t frame_count = frames->array.size();
  ASSERT_GT(frame_count, 0u);

  const util::JsonValue* profiles = root.find("profiles");
  ASSERT_NE(profiles, nullptr);
  ASSERT_EQ(profiles->kind, util::JsonValue::Kind::kArray);
  ASSERT_FALSE(profiles->array.empty());
  size_t total_weight = 0;
  for (const util::JsonValue& profile : profiles->array) {
    const util::JsonValue* type = profile.find("type");
    ASSERT_NE(type, nullptr);
    EXPECT_EQ(type->str, "sampled");
    const util::JsonValue* samples = profile.find("samples");
    const util::JsonValue* weights = profile.find("weights");
    ASSERT_NE(samples, nullptr);
    ASSERT_NE(weights, nullptr);
    EXPECT_EQ(samples->array.size(), weights->array.size());
    for (const util::JsonValue& stack : samples->array) {
      ASSERT_EQ(stack.kind, util::JsonValue::Kind::kArray);
      for (const util::JsonValue& idx : stack.array) {
        // Every frame index must point into the shared frame table.
        ASSERT_LT(static_cast<size_t>(idx.number), frame_count);
      }
    }
    for (const util::JsonValue& w : weights->array)
      total_weight += static_cast<size_t>(w.number);
  }
  EXPECT_EQ(total_weight, profiler.sample_count());
}

TEST_F(ProfTest, TraceIdFilterSelectsOneRequest) {
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());
  {
    obs::ScopedTraceId trace(0x1111);
    spin_cpu_ms(150.0);
  }
  {
    obs::ScopedTraceId trace(0x2222);
    spin_cpu_ms(150.0);
  }
  profiler.stop();

  size_t tagged_1111 = 0, tagged_2222 = 0;
  for (const auto& s : profiler.samples()) {
    if (s.trace_id == 0x1111) ++tagged_1111;
    if (s.trace_id == 0x2222) ++tagged_2222;
  }
  ASSERT_GT(tagged_1111, 0u);
  ASSERT_GT(tagged_2222, 0u);

  prof::FoldedOptions fopt;
  fopt.trace_filter = 0x1111;
  const std::string folded = profiler.folded(fopt);
  size_t sum = 0, start = 0;
  while (start < folded.size()) {
    size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    sum += static_cast<size_t>(std::atol(line.c_str() + line.rfind(' ') + 1));
  }
  EXPECT_EQ(sum, tagged_1111) << "trace filter must keep exactly the "
                                 "samples tagged with that id";
}

TEST_F(ProfTest, EightWorkerThreadsSampleSafely) {
  // Signal-safety under concurrency: 8 threads emitting spans and burning
  // CPU while SIGPROF fires on each thread's own CPU clock and the main
  // thread drains concurrently. TSan runs this test too (the alloc hook is
  // compiled out there; the handler/ring/hook paths are what is checked).
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());

  constexpr int kThreads = 8;
  std::atomic<int> done{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&done, i] {
      obs::ScopedTraceId trace(0x9000 + static_cast<uint64_t>(i));
      for (int rep = 0; rep < 5; ++rep) {
        obs::Span span("prof_test.worker");
        spin_cpu_ms(30.0);
      }
      done.fetch_add(1);
    });
  }
  while (done.load() < kThreads) {
    profiler.drain();  // concurrent drain against live producers
    std::this_thread::yield();
  }
  for (auto& t : workers) t.join();
  profiler.stop();

  std::set<uint32_t> tids;
  size_t worker_samples = 0;
  for (const auto& s : profiler.samples()) {
    tids.insert(s.tid);
    if (s.trace_id >= 0x9000 && s.trace_id < 0x9000 + kThreads)
      ++worker_samples;
  }
  EXPECT_GE(tids.size(), static_cast<size_t>(kThreads))
      << "every worker thread must have been sampled";
  EXPECT_GT(worker_samples, 0u);
  const auto by_span = profiler.samples_by_span();
  const auto it = by_span.find("prof_test.worker");
  ASSERT_NE(it, by_span.end());
  EXPECT_GT(it->second, 0u);
}

TEST_F(ProfTest, RingOverflowDropsAreCounted) {
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 2000.0;
  opt.ring_capacity = 64;  // the floor; fills in ~32ms of CPU at 2 kHz
  ASSERT_TRUE(profiler.start(opt).ok());
  // A fresh thread picks up the tiny ring (pre-registered threads keep the
  // capacity they were created with), then spins without any drain.
  std::thread spinner([] {
    prof::register_current_thread();
    spin_cpu_ms(300.0);
  });
  spinner.join();
  profiler.stop();
  EXPECT_GT(profiler.dropped(), 0u)
      << "a 64-slot ring cannot hold ~600 samples without drops";
  EXPECT_GT(profiler.sample_count(), 0u);
}

TEST_F(ProfTest, RusageDeltasAreMonotonicOnASolve) {
  // snapshot_usage must be monotone in CPU and fault counters, and a
  // ResourceScope around a real GP solve must observe positive CPU.
  const prof::ResourceUsage u0 = prof::snapshot_usage();
  obs::Telemetry::instance().enable(true);

  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 4;
  const auto* entry = macros::builtin_database().find("mux", "strong_pass");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  core::SizerOptions sopt;
  sopt.delay_spec_ps = 200.0;
  core::Sizer sizer(tech::default_tech(), models::default_library());

  double scope_cpu_ms = 0.0;
  {
    prof::ResourceScope scope("prof_test.solve");
    const auto result = sizer.size(nl, sopt);
    EXPECT_TRUE(result.ok) << result.message;
    const prof::ResourceUsage d = scope.delta();
    scope_cpu_ms = d.utime_ms + d.stime_ms;
    EXPECT_GE(d.utime_ms, 0.0);
    EXPECT_GE(d.stime_ms, 0.0);
    EXPECT_GE(d.minflt, 0);
    EXPECT_GE(d.majflt, 0);
    EXPECT_GT(d.peak_rss_kb, 0);
  }
  EXPECT_GT(scope_cpu_ms, 0.0) << "a GP solve must burn measurable CPU";

  const prof::ResourceUsage u1 = prof::snapshot_usage();
  EXPECT_GE(u1.utime_ms + u1.stime_ms, u0.utime_ms + u0.stime_ms);
  EXPECT_GE(u1.minflt, u0.minflt);
  EXPECT_GE(u1.majflt, u0.majflt);
  EXPECT_GE(u1.peak_rss_kb, u0.peak_rss_kb);

  // The scope's destructor rolled the deltas into the metrics registry.
  auto& tel = obs::Telemetry::instance();
  EXPECT_GE(tel.hist_summary("rusage.prof_test.solve.cpu_ms").count, 1u);
  EXPECT_GT(tel.gauge("rusage.prof_test.solve.peak_rss_kb"), 0.0);

  // The sizer/solver spans carry their own accounting (wired in
  // core/sizer.cpp and gp/solver.cpp).
  EXPECT_GE(tel.hist_summary("rusage.sizer.size.cpu_ms").count, 1u);
  EXPECT_GE(tel.hist_summary("rusage.gp.solve.cpu_ms").count, 1u);
}

TEST_F(ProfTest, GpSolveProfileShowsSolverFrames) {
  // The acceptance check: profiling a sizing run must attribute samples to
  // GP solver symbols, in both exports.
  auto& profiler = prof::Profiler::instance();
  prof::ProfilerOptions opt;
  opt.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt).ok());

  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 8;
  const auto* entry = macros::builtin_database().find("mux", "strong_pass");
  ASSERT_NE(entry, nullptr);
  const auto nl = entry->generate(spec);
  core::SizerOptions sopt;
  sopt.delay_spec_ps = 200.0;
  core::Sizer sizer(tech::default_tech(), models::default_library());
  // Repeat the sizing until we have burned enough CPU for a statistically
  // useful sample count (a warm solve can converge in a few ms).
  const prof::ResourceUsage before = prof::snapshot_usage();
  for (int rep = 0; rep < 400; ++rep) {
    const auto result = sizer.size(nl, sopt);
    ASSERT_TRUE(result.ok) << result.message;
    const prof::ResourceUsage now = prof::snapshot_usage();
    if (now.utime_ms + now.stime_ms - before.utime_ms - before.stime_ms >
        300.0)
      break;
  }
  profiler.stop();
  ASSERT_GT(profiler.sample_count(), 50u);

  const std::string folded = profiler.folded();
  EXPECT_NE(folded.find("GpSolver"), std::string::npos)
      << "folded output must contain GP solver frames";
  EXPECT_NE(folded.find("span:gp.solve"), std::string::npos);

  const auto by_span = profiler.samples_by_span();
  size_t solver_samples = 0, total = 0;
  for (const auto& [path, count] : by_span) {
    total += count;
    if (path.find("gp.solve") != std::string::npos) solver_samples += count;
  }
  EXPECT_GT(solver_samples, total / 2)
      << "the GP solve dominates a sizing run";
}

TEST_F(ProfTest, AllocCountersTrackThreadAllocations) {
  if (!prof::alloc_hook_available())
    GTEST_SKIP() << "alloc hook compiled out (sanitizer build)";
  prof::set_alloc_hook_enabled(true);
  const prof::AllocCounters before = prof::thread_alloc_counters();
  std::vector<std::string> junk;
  for (int i = 0; i < 64; ++i)
    junk.emplace_back(static_cast<size_t>(128 + i), 'x');
  const prof::AllocCounters after = prof::thread_alloc_counters();
  prof::set_alloc_hook_enabled(false);
  EXPECT_GE(after.allocs - before.allocs, 64u);
  EXPECT_GE(after.bytes - before.bytes, 64u * 128u);
  (void)junk;
}

// Overhead budget, locked in as a ctest entry: sampling a GP solve at
// 99 Hz must inflate wall time by less than 5%. Skipped under sanitizers
// (their 5-20x slowdowns drown the signal in noise).
TEST(ProfOverheadTest, SamplingAt99HzStaysUnder5Percent) {
#if defined(SMART_PROF_TEST_SANITIZED)
  GTEST_SKIP() << "overhead measurement is meaningless under sanitizers";
#else
  const auto* entry =
      macros::builtin_database().find("mux", "domino_unsplit");
  ASSERT_NE(entry, nullptr);
  core::MacroSpec spec;
  spec.type = "mux";
  spec.n = 8;
  spec.params["bits"] = 8;
  const auto nl = entry->generate(spec);
  core::ConstraintOptions copt;
  copt.delay_spec_ps = 150.0;
  copt.precharge_spec_ps = 200.0;
  const auto gen = core::generate_problem(nl, copt,
                                          models::default_library(),
                                          tech::default_tech());
  ASSERT_NE(gen.problem, nullptr);

  auto& profiler = prof::Profiler::instance();
  profiler.stop();

  // Min-of-3 of a BM_GpSolveMux/8-equivalent solve loop at each rate.
  // Min (not mean) because scheduler noise only ever adds time, and a
  // shared CI runner adds a lot of it.
  const auto measure = [&] {
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      obs::StopWatch watch;
      for (int i = 0; i < 3; ++i) {
        gp::GpSolver solver;
        const auto result = solver.solve(*gen.problem);
        EXPECT_NE(result.status, gp::SolveStatus::kNumericalError);
        g_sink = static_cast<uint64_t>(result.newton_iterations);
      }
      best_ms = std::min(best_ms, watch.elapsed_ms());
    }
    return best_ms;
  };

  double baseline_ms = 0.0, hz99_ms = 0.0, hz997_ms = 0.0;
  {
    SCOPED_TRACE("warmup");
    (void)measure();  // page in code + models before any timing
  }
  baseline_ms = measure();  // 0 Hz: profiler stopped
  prof::ProfilerOptions opt99;
  opt99.hz = 99.0;
  ASSERT_TRUE(profiler.start(opt99).ok());
  hz99_ms = measure();
  profiler.stop();
  prof::ProfilerOptions opt997;
  opt997.hz = 997.0;
  ASSERT_TRUE(profiler.start(opt997).ok());
  hz997_ms = measure();
  profiler.stop();
  profiler.reset();

  ASSERT_GT(baseline_ms, 0.0);
  const double inflation99 = hz99_ms / baseline_ms - 1.0;
  const double inflation997 = hz997_ms / baseline_ms - 1.0;
  ::testing::Test::RecordProperty("baseline_ms", baseline_ms);
  ::testing::Test::RecordProperty("hz99_ms", hz99_ms);
  ::testing::Test::RecordProperty("hz997_ms", hz997_ms);
  std::printf("profiler overhead: baseline %.2f ms, 99 Hz %.2f ms "
              "(%+.2f%%), 997 Hz %.2f ms (%+.2f%%)\n",
              baseline_ms, hz99_ms, inflation99 * 100.0, hz997_ms,
              inflation997 * 100.0);
  EXPECT_LT(inflation99, 0.05)
      << "99 Hz sampling must stay under 5% wall-time inflation";
#endif
}

}  // namespace
