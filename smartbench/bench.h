#pragma once

/// \file bench.h
/// SMART-Bench: the workloads of the benchmark and the checker that judges
/// every op's outputs. main.cpp times `Op::run` and nothing
/// else; the closure it returns re-derives every claim of the outputs from
/// the program's public functions and the method's own properties, never
/// from a stored copy of an earlier run.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/database.h"
#include "core/sizer.h"
#include "models/arc_model.h"
#include "refsim/rc_timer.h"
#include "tech/tech.h"
#include "timing/paths.h"

namespace smartbench {

namespace sm = smart;

/// Program state every op draws on: the technology, a calibrated model
/// library and a populated macro database. Built once per set-up.
struct Env {
  const sm::tech::Tech* tech = nullptr;
  sm::models::ModelLibrary lib;
  sm::core::MacroDatabase db;
};

/// Per-layer counts an op read from the program's public result structs
/// (SizerResult, respec_trace, PathStats, Advice), keyed by metric name.
using Counts = std::map<std::string, double>;

/// What the checker concluded about one op.
struct Outcome {
  bool failed = false;              ///< the program did not deliver
  std::string reason;               ///< why, when failed
  std::vector<std::string> errors;  ///< outputs that are wrong
  bool sizes = false;               ///< op counts toward cost_ratio
  double cost_ratio = 1.0;          ///< delivered cost / hand design cost
  Counts counts;
};

/// Re-derives and checks the outputs of one timed call.
using Verify = std::function<Outcome()>;

/// One op of a workload: `run` makes the program's calls (the timed part)
/// and returns the check of what they produced.
struct Op {
  std::string name;
  std::function<Verify()> run;
};

/// Everything a workload needs before its first timed op.
struct Workload {
  int threads = 1;  ///< par pool size while the ops run
  std::vector<Op> ops;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds a workload's inputs (netlists, hand designs, specs) from the
/// seed. The seed orders the ops of a round (seed 0: listed order). Seed 0
/// is the paper's instances; any other seed draws each instance's output
/// load from [0.95, 1.05] x the paper's value, unless `paper_loads` keeps
/// the paper's loads for every seed.
Workload make_workload(const std::string& name, const Env& env,
                       uint64_t seed, bool paper_loads);

/// The seed rule: the output load of instance `key` under `seed`.
double seeded_load(double paper_load_ff, uint64_t seed,
                   const std::string& key);

// ---------------------------------------------------------------- checker

/// A delivered sizing and what it must satisfy.
struct SizedDesign {
  const sm::netlist::Netlist* nl = nullptr;
  const sm::core::SizerResult* result = nullptr;
  double delay_spec_ps = 0.0;
  double precharge_spec_ps = 0.0;  ///< <= 0: same as the delay spec
  double converge_tol = 0.02;
  /// Input pin caps of the hand design, Netlist::inputs() order; the
  /// delivered design may present at most these x input_cap_slack.
  /// Empty: not checked (the relaxed rung drops the cap constraints).
  std::vector<double> hand_input_caps;
  double input_cap_slack = 1.05;
};

/// Total device width recomputed from the netlist's devices and a sizing.
double recompute_width(const sm::netlist::Netlist& nl,
                       const sm::netlist::Sizing& sizing);

/// Capacitance at each input port under a sizing (fF), Netlist::inputs()
/// order, from the reference timer's net capacitance.
std::vector<double> pin_caps(const sm::netlist::Netlist& nl,
                             const sm::netlist::Sizing& sizing,
                             const sm::tech::Tech& tech);

/// The cost a sizer minimizes, recomputed from its definition.
double recompute_cost(const sm::netlist::Netlist& nl,
                      const sm::netlist::Sizing& sizing,
                      sm::core::CostMetric cost, const sm::tech::Tech& tech);

/// Re-times a delivered design with the reference timer and checks spec,
/// width box, reported width and input pin caps.
std::vector<std::string> check_sized(const SizedDesign& d,
                                     const sm::tech::Tech& tech);

/// Checks an Advice: every applicable topology is accounted for, ranked
/// solutions are in ascending order of recomputed cost (spec-meeting ones
/// first), and every spec-meeting solution passes check_sized against
/// its own topology's hand design.
std::vector<std::string> check_advice(const sm::core::Advice& advice,
                                      size_t applicable,
                                      sm::core::CostMetric cost,
                                      double delay_spec_ps,
                                      double converge_tol,
                                      const sm::tech::Tech& tech);

/// Source-to-output net paths, counted by a memoized walk of the arcs
/// from every input port and clock net (the same quantity as
/// PathExtractor::count_topological_paths, computed independently).
double count_paths(const sm::netlist::Netlist& nl);

/// Checks extracted paths: each starts at an input or clock source, ends
/// at an output and chains arc to arc; the prune stages never add paths;
/// the reported final count matches; the DP count matches count_paths.
std::vector<std::string> check_paths(const sm::netlist::Netlist& nl,
                                     const std::vector<sm::timing::Path>& paths,
                                     const sm::timing::PathStats& stats,
                                     double program_topological_count);

/// The hand design's timing is finite and positive at every output.
std::vector<std::string> check_hand_timing(
    const sm::netlist::Netlist& nl, const sm::refsim::TimingReport& report);

}  // namespace smartbench
