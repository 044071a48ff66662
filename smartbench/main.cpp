// SMART-Bench main program: runs one named workload in this process and prints
// one JSON result line.
//
//   smartbench --workload <iso_paper|advise_pressured|analyze_wide>
//              --seed <n> --seconds <s> --trace <0|1> [--loads seeded|paper]
//
// Set-up (model calibration, macro database, the workload's inputs) runs
// five times before the first op and, in untraced runs, once more after
// every op; its median is reported. Whole rounds of the workload's fixed
// op list run, one op at a time, until `--seconds` have passed; every op's
// outputs are checked after its timed part. With --trace 0 the result
// holds the end-to-end metrics; with --trace 1 obs telemetry is on and the
// result holds the per-layer metrics instead (times in ms per round, counts
// per round). Failed ops and check errors are listed on stderr.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "macros/registry.h"
#include "models/fitter.h"
#include "obs/obs.h"
#include "par/par.h"

namespace {

using namespace smartbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 5;

double since_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Span totals (ms) and counter/histogram sums read from obs telemetry,
/// then cleared so the next op starts empty.
struct TraceTotals {
  Counts span_ms;
  Counts counters;

  void drain() {
    auto& tel = smart::obs::Telemetry::instance();
    for (const auto& ev : tel.spans()) span_ms[ev.name] += ev.dur_us / 1e3;
    for (const char* c :
         {"gp.solve.calls", "gp.solve.status.optimal",
          "gp.solve.status.max_iterations", "gp.solve.status.infeasible"})
      counters[c] += tel.counter(c);
    for (const char* h : {"gp.solve.newton_iters", "gp.solve.restarts"})
      counters[h] += tel.hist_summary(h).sum;
    tel.reset();
  }
};

/// The state a run needs: Env first, so the ops (which point into it) are
/// destroyed before it.
struct Setup {
  std::unique_ptr<Env> env;
  Workload wl;
};

Setup make_setup(const std::string& workload, uint64_t seed,
                 bool paper_loads) {
  Setup s;
  s.env = std::make_unique<Env>();
  s.env->tech = &smart::tech::default_tech();
  {
    smart::obs::Span span("bench.models.calibrate");
    s.env->lib = smart::models::calibrate(*s.env->tech);
  }
  {
    smart::obs::Span span("bench.macros.database");
    smart::macros::register_all(s.env->db);
  }
  s.wl = make_workload(workload, *s.env, seed, paper_loads);
  return s;
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: smartbench --workload <iso_paper|advise_pressured|"
               "analyze_wide> --seed <n> --seconds <s> --trace <0|1> "
               "[--loads seeded|paper]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0, seconds = 10, trace = 0;
  bool paper_loads = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, &seed)) return usage();
    } else if (arg == "--seconds") {
      if (!parse_u64(val, &seconds) || seconds == 0) return usage();
    } else if (arg == "--loads") {
      if (std::strcmp(val, "paper") == 0) {
        paper_loads = true;
      } else if (std::strcmp(val, "seeded") != 0) {
        return usage();
      }
    } else if (arg == "--trace") {
      if (!parse_u64(val, &trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end())
    return usage();

  auto& tel = smart::obs::Telemetry::instance();
  tel.reset();
  tel.enable(trace == 1);
  TraceTotals setup_tel, run_tel;

  // ---- set-up, repeated; the last one's state is kept for the run. In
  // untraced runs one more set-up is timed (and discarded) after every op,
  // so the samples span the run's host conditions like the ops do.
  std::vector<double> setup_s;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    Setup s = make_setup(workload, seed, paper_loads);
    setup_s.push_back(since_ms(t0) / 1e3);
    return s;
  };
  Setup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    tel.reset();
    setup = set_up();
  }
  setup_tel.drain();
  const Workload& wl = setup.wl;
  // The pool never gets more workers than the machine has cores.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::max(1, std::min(wl.threads, std::max(cores, 1)));
  smart::par::set_thread_count(threads);

  // ---- timed rounds
  std::vector<double> op_ms;
  std::vector<std::string> problems;
  std::vector<double> log_cost;
  Counts counts;
  size_t attempted = 0, failed = 0;
  bool correct = true;
  int rounds = 0;
  const auto run_start = Clock::now();
  while (rounds == 0 || since_ms(run_start) < 1e3 * static_cast<double>(seconds)) {
    for (const auto& op : wl.ops) {
      const auto t0 = Clock::now();
      const Verify verify = op.run();
      op_ms.push_back(since_ms(t0));
      if (trace) run_tel.drain();
      const Outcome out = verify();
      ++attempted;
      if (out.failed) {
        ++failed;
        if (rounds == 0)
          problems.push_back("FAILED " + op.name + ": " + out.reason);
      }
      for (const auto& e : out.errors) {
        problems.push_back("INCORRECT " + op.name + ": " + e);
        correct = false;
      }
      if (out.sizes) log_cost.push_back(std::log(out.cost_ratio));
      for (const auto& [k, v] : out.counts) counts[k] += v;
      if (trace) {
        std::fprintf(stderr, "op %-48s %10.2f ms%s\n", op.name.c_str(),
                     op_ms.back(), out.failed ? "  FAILED" : "");
      } else {
        set_up();
      }
    }
    ++rounds;
  }
  for (const auto& p : problems) std::fprintf(stderr, "%s\n", p.c_str());

  double op_total_ms = 0.0;
  for (double t : op_ms) op_total_ms += t;

  std::vector<Metric> metrics;
  if (!trace) {
    double mean_log = 0.0;
    for (double l : log_cost) mean_log += l;
    if (!log_cost.empty()) mean_log /= static_cast<double>(log_cost.size());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", static_cast<double>(attempted) / (op_total_ms / 1e3), "1/s"},
        {"op_ms_p50", median(op_ms), "ms"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        // A workload that sizes nothing keeps every hand design: ratio 1.
        {"cost_ratio", std::exp(mean_log), "ratio"},
    };
  } else {
    const double r = rounds;
    auto per_round = [&](const Counts& m, const char* key) {
      const auto it = m.find(key);
      return it == m.end() ? 0.0 : it->second / r;
    };
    auto setup_ms = [&](const char* key) {
      const auto it = setup_tel.span_ms.find(key);
      return it == setup_tel.span_ms.end() ? 0.0 : it->second;
    };
    const auto& sp = run_tel.span_ms;
    const auto& ctr = run_tel.counters;
    const double cand_ms = per_round(counts, "advisor.candidate_ms_sum");
    const double advise_wall = per_round(counts, "advisor.advise_wall_ms");
    metrics = {
        {"models.calibrate_ms", setup_ms("bench.models.calibrate"), "ms"},
        {"macros.generate_ms",
         setup_ms("bench.macros.generate") + per_round(sp, "bench.macros.generate"),
         "ms"},
        {"lint.erc_ms", per_round(sp, "bench.lint.erc"), "ms"},
        {"lint.errors", per_round(counts, "lint.errors"), "count"},
        {"timing.extract_ms", per_round(sp, "bench.timing.extract"), "ms"},
        {"timing.paths_raw", per_round(counts, "timing.paths_raw"), "count"},
        {"timing.paths_final", per_round(counts, "timing.paths_final"), "count"},
        {"constraints.generate_ms", per_round(sp, "bench.constraints.generate"),
         "ms"},
        {"constraints.count", per_round(counts, "constraints.count"), "count"},
        {"gp.verify_ms", per_round(sp, "bench.gp.verify"), "ms"},
        {"gp.verify_errors", per_round(counts, "gp.verify_errors"), "count"},
        {"gp.solves", per_round(ctr, "gp.solve.calls"), "count"},
        {"gp.solves_optimal", per_round(ctr, "gp.solve.status.optimal"), "count"},
        {"gp.solves_max_iter", per_round(ctr, "gp.solve.status.max_iterations"),
         "count"},
        {"gp.solves_infeasible", per_round(ctr, "gp.solve.status.infeasible"),
         "count"},
        {"gp.newton_iters", per_round(ctr, "gp.solve.newton_iters"), "count"},
        {"gp.restarts", per_round(ctr, "gp.solve.restarts"), "count"},
        {"gp.solve_ms", per_round(sp, "gp.solve"), "ms"},
        {"gp.phase1_ms", per_round(sp, "gp.phase1"), "ms"},
        {"gp.phase2_ms", per_round(sp, "gp.phase2"), "ms"},
        {"refsim.analyze_ms", per_round(sp, "bench.refsim.analyze"), "ms"},
        {"sizer.verify_ms", per_round(sp, "sizer.verify"), "ms"},
        {"sizer.constraints_ms", per_round(sp, "sizer.constraints"), "ms"},
        {"baseline.size_ms", per_round(sp, "bench.baseline.size"), "ms"},
        {"power.analyze_ms", per_round(sp, "bench.power.analyze"), "ms"},
        {"sizer.size_ms", per_round(sp, "sizer.size"), "ms"},
        {"sizer.respec_iters", per_round(counts, "sizer.respec_iters"), "count"},
        {"sizer.rung_relaxed", per_round(counts, "sizer.rung_relaxed"), "count"},
        {"sizer.rung_baseline", per_round(counts, "sizer.rung_baseline"),
         "count"},
        {"sizer.accepted_max_iter", per_round(counts, "sizer.accepted_max_iter"),
         "count"},
        {"advisor.advise_ms", per_round(sp, "bench.core.advise"), "ms"},
        {"advisor.candidates", per_round(counts, "advisor.candidates"), "count"},
        {"advisor.candidates_failed",
         per_round(counts, "advisor.candidates_failed"), "count"},
        {"advisor.candidate_ms_sum", cand_ms, "ms"},
        {"par.threads", static_cast<double>(threads), "count"},
        {"par.efficiency",
         advise_wall > 0.0 ? cand_ms / (advise_wall * threads) : 0.0, "ratio"},
    };
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::fprintf(stderr,
               "%s: %d round(s), %zu ops, %zu failed, %.3f s in ops, "
               "%.1f s run\n",
               workload.c_str(), rounds, attempted, failed, op_total_ms / 1e3,
               since_ms(run_start) / 1e3);
  std::printf("%s\n", json.c_str());
  return 0;
}
