// SMART-Bench workloads. Each builds its inputs (netlists, hand designs,
// specs) up front and hands main.cpp a fixed list of ops; an op's `run`
// makes only the program's public calls, and the closure it returns checks
// their outputs (see checks.cpp).

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/baseline.h"
#include "core/constraints.h"
#include "core/experiment.h"
#include "gp/verify.h"
#include "lint/erc.h"
#include "obs/obs.h"
#include "power/power.h"
#include "util/strfmt.h"

namespace smartbench {

using namespace smart;
using util::strfmt;

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// One macro instance: what to generate and at which load.
struct Instance {
  std::string name;
  std::string type;
  std::string topo;
  int n = 0;
  double paper_load_ff = 15.0;
  std::map<std::string, double> params;
  core::CostMetric cost = core::CostMetric::kTotalWidth;
  /// false: the load stays at the paper's value whatever the seed.
  bool seeded = true;
};

Instance instance(std::string name, const char* type, const char* topo, int n,
                  double paper_load_ff,
                  std::map<std::string, double> params = {},
                  core::CostMetric cost = core::CostMetric::kTotalWidth) {
  Instance i;
  i.name = std::move(name);
  i.type = type;
  i.topo = topo;
  i.n = n;
  i.paper_load_ff = paper_load_ff;
  i.params = std::move(params);
  i.cost = cost;
  return i;
}

core::MacroSpec spec_of(const Instance& inst, uint64_t seed) {
  core::MacroSpec spec;
  spec.type = inst.type;
  spec.n = inst.n;
  spec.params = inst.params;
  spec.load_ff = inst.seeded ? seeded_load(inst.paper_load_ff, seed, inst.name)
                             : inst.paper_load_ff;
  return spec;
}

netlist::Netlist generate(const Env& env, const Instance& inst,
                          const core::MacroSpec& spec) {
  obs::Span span("bench.macros.generate");
  const auto* entry = env.db.find(inst.type, inst.topo);
  if (entry == nullptr)
    throw std::runtime_error("unknown topology " + inst.type + "/" +
                             inst.topo);
  return entry->generate(spec);
}

/// Counts a sizing op reads from its SizerResult.
void count_sizing(const core::SizerResult& r, Counts& c) {
  c["sizer.respec_iters"] += static_cast<double>(r.respec_trace.size());
  c["sizer.rung_relaxed"] += r.rung == core::SizingRung::kGpRelaxed;
  c["sizer.rung_baseline"] += r.rung == core::SizingRung::kBaseline;
  for (const auto& it : r.respec_trace)
    if (it.accepted && it.gp_status == gp::SolveStatus::kMaxIter)
      c["sizer.accepted_max_iter"] += 1;
  c["constraints.count"] += static_cast<double>(r.constraint_count);
  c["timing.paths_raw"] += r.path_stats.raw_edge_paths;
  c["timing.paths_final"] += static_cast<double>(r.path_stats.final_paths);
}

/// The hand design of a netlist and what the §6.1 protocol derives from
/// it, recomputed by the checker with the program's public functions.
struct Hand {
  netlist::Sizing sizing;
  double delay_ps = 0.0;
  double precharge_ps = 0.0;
  std::vector<double> input_caps;
};

Hand hand_design(const Env& env, const netlist::Netlist& nl) {
  Hand h;
  h.sizing = core::BaselineSizer(*env.tech).size(nl);
  const auto rep = refsim::RcTimer(*env.tech).analyze(nl, h.sizing);
  h.delay_ps = rep.worst_delay;
  h.precharge_ps = rep.worst_precharge;
  h.input_caps = pin_caps(nl, h.sizing, *env.tech);
  return h;
}

/// Judges one sizing against the hand design whose performance it must
/// match. `delay_spec`/`pre_spec` are the specs the sizer was given.
Outcome judge_sizing(const Env& env, const netlist::Netlist& nl,
                     const core::SizerResult& smart_result,
                     const core::SizerOptions& sopt, const Hand& hand,
                     double hand_cost, core::CostMetric cost,
                     double delay_spec, double pre_spec) {
  Outcome o;
  o.sizes = true;
  count_sizing(smart_result, o.counts);
  const bool delivered = smart_result.ok &&
                         smart_result.rung == core::SizingRung::kGp &&
                         smart_result.message == "converged";
  if (!delivered) {
    o.failed = true;
    o.reason = strfmt(
        "%s (rung %s, %zu respec iterations, %d Newton iterations): "
        "measured %.2f ps against spec %.2f ps",
        smart_result.message.c_str(), core::to_string(smart_result.rung),
        smart_result.respec_trace.size(), smart_result.gp_newton_iterations,
        smart_result.measured_delay_ps, delay_spec);
    return o;  // the hand design is kept: cost ratio 1
  }
  SizedDesign d;
  d.nl = &nl;
  d.result = &smart_result;
  d.delay_spec_ps = delay_spec;
  d.precharge_spec_ps = pre_spec;
  d.converge_tol = sopt.converge_tol;
  d.hand_input_caps = hand.input_caps;
  d.input_cap_slack = core::ConstraintOptions{}.input_cap_slack;
  o.errors = check_sized(d, *env.tech);
  o.cost_ratio =
      recompute_cost(nl, smart_result.sizing, cost, *env.tech) / hand_cost;
  return o;
}

// ------------------------------------------------------------ iso_paper

Op iso_op(const Env& env, const Instance& inst, uint64_t seed) {
  auto nl = std::make_shared<const netlist::Netlist>(
      generate(env, inst, spec_of(inst, seed)));
  const core::CostMetric cost = inst.cost;
  return {inst.name, [&env, nl, cost]() -> Verify {
            core::IsoDelayOptions opt;
            opt.sizer.cost = cost;
            auto cmp = std::make_shared<core::IsoDelayComparison>();
            {
              obs::Span span("bench.core.run_iso_delay");
              *cmp = core::run_iso_delay(*nl, *env.tech, env.lib, opt);
            }
            return [&env, nl, cost, opt, cmp]() {
              const Hand hand = hand_design(env, *nl);
              // §6.1: same delay, precharge within the looser of the
              // original's settle time and the evaluate phase.
              const double delay_spec = hand.delay_ps;
              const double pre_spec =
                  hand.precharge_ps > 0.0
                      ? std::max(hand.precharge_ps, hand.delay_ps)
                      : -1.0;
              const double hand_cost =
                  recompute_cost(*nl, hand.sizing, cost, *env.tech);
              Outcome o = judge_sizing(env, *nl, cmp->smart, opt.sizer, hand,
                                       hand_cost, cost, delay_spec, pre_spec);
              if (!(hand.delay_ps == cmp->baseline.measured_delay_ps))
                o.errors.push_back(strfmt(
                    "hand design measured %.6g ps, re-timed %.6g ps",
                    cmp->baseline.measured_delay_ps, hand.delay_ps));
              return o;
            };
          }};
}

/// Fig 7: an alternative comparator topology sized to the original hand
/// design's delay, precharge and pin caps.
Op explore_op(const Env& env, const Instance& original,
              const Instance& inst, uint64_t seed) {
  const auto spec = spec_of(inst, seed);
  auto orig_nl = std::make_shared<const netlist::Netlist>(
      generate(env, original, spec));
  auto nl = std::make_shared<const netlist::Netlist>(
      generate(env, inst, spec));
  auto hand = std::make_shared<const Hand>(hand_design(env, *orig_nl));
  const double hand_cost =
      recompute_cost(*orig_nl, hand->sizing, inst.cost, *env.tech);
  core::SizerOptions sopt;
  sopt.cost = inst.cost;
  sopt.delay_spec_ps = hand->delay_ps;
  sopt.precharge_spec_ps = hand->precharge_ps;
  sopt.input_cap_limits_ff = hand->input_caps;
  const core::CostMetric cost = inst.cost;
  return {inst.name, [&env, nl, hand, hand_cost, sopt, cost]() -> Verify {
            auto r = std::make_shared<core::SizerResult>();
            {
              obs::Span span("bench.core.sizer");
              *r = core::Sizer(*env.tech, env.lib).size(*nl, sopt);
            }
            return [&env, nl, hand, hand_cost, sopt, cost, r]() {
              return judge_sizing(env, *nl, *r, sopt, *hand, hand_cost, cost,
                                  sopt.delay_spec_ps, sopt.precharge_spec_ps);
            };
          }};
}

Workload iso_paper(const Env& env, uint64_t seed) {
  Workload w;
  const auto kPower = core::CostMetric::kPower;
  auto mux = [&](const char* topo, int n, int bits, double load,
                 bool domino) {
    // Table 1 sizes the domino rows for power (clock load drives them).
    return instance(strfmt("table1/%s/%d:1x%d@%g", topo, n, bits, load),
                    "mux", topo, n, load, {{"bits", bits}},
                    domino ? kPower : core::CostMetric::kTotalWidth);
  };
  std::vector<Instance> insts = {
      mux("strong_pass", 4, 8, 12, false),
      mux("strong_pass", 4, 16, 20, false),
      mux("strong_pass", 8, 8, 12, false),
      mux("strong_pass", 6, 8, 16, false),
      mux("encoded2", 2, 8, 12, false),
      mux("encoded2", 2, 16, 20, false),
      mux("encoded2", 2, 32, 12, false),
      mux("tristate", 4, 8, 40, false),
      mux("tristate", 4, 8, 80, false),
      mux("tristate", 8, 8, 60, false),
      mux("domino_unsplit", 4, 8, 12, true),
      mux("domino_unsplit", 8, 8, 12, true),
      mux("domino_unsplit", 8, 16, 16, true),
      mux("domino_split", 8, 8, 12, true),
      mux("domino_split", 16, 8, 12, true),
  };
  // Fails on every run today (re-spec loop ends best effort, above the
  // hand design's delay); kept at the paper's load so the failure does
  // not depend on the seed.
  Instance split16 = mux("domino_split", 16, 16, 16, true);
  split16.seeded = false;
  insts.push_back(split16);

  for (const auto& [type, n, load] :
       std::vector<std::tuple<const char*, int, double>>{
           {"incrementor", 3, 12}, {"decrementor", 3, 12},
           {"incrementor", 13, 12}, {"incrementor", 13, 30},
           {"incrementor", 27, 12}})
    insts.push_back(instance(strfmt("fig5a/%s/%d@%g", type, n, load), type,
                             "ks_prefix", n, load));
  for (const auto& [n, load, arity] :
       std::vector<std::tuple<int, double, int>>{{6, 12, 4},
                                                 {8, 12, 4},
                                                 {8, 30, 2},
                                                 {16, 12, 4},
                                                 {16, 30, 2},
                                                 {22, 12, 4},
                                                 {32, 12, 4},
                                                 {63, 12, 4}})
    insts.push_back(instance(
        strfmt("fig5b/zero_detect/%d@%g/arity%d", n, load, arity),
        "zero_detect", "static_tree", n, load, {{"arity", arity}}));
  for (const auto& [n, load] : std::vector<std::pair<int, double>>{
           {3, 10}, {3, 25}, {4, 10}, {4, 18}, {4, 30}, {6, 10}, {6, 20},
           {7, 10}})
    insts.push_back(instance(
        strfmt("fig5c/decoder/%d:%d@%g", n, 1 << n, load), "decoder",
        "predecode", n, load));
  for (const auto& inst : insts) w.ops.push_back(iso_op(env, inst, seed));

  // Fig 7: resize the original comparator topology, and size the two
  // alternatives to the original's performance; all for power.
  auto cmp = [&](const char* topo) {
    return instance(strfmt("fig7/comparator/%s/32@12", topo), "comparator",
                    topo, 32, 12, {}, kPower);
  };
  const Instance original = cmp("xorsum2_nor4");
  w.ops.push_back(iso_op(env, original, seed));
  for (const char* alt : {"xorsum1_nor8", "xorsum4_nor4"})
    w.ops.push_back(explore_op(env, original, cmp(alt), seed));
  return w;
}

// ------------------------------------------------------ advise_pressured

Workload advise_pressured(const Env& env, uint64_t seed) {
  Workload w;
  w.threads = 2;
  // The selection_map cells where some topology meets a spec 30% faster
  // than the hand-sized first topology.
  const std::vector<std::pair<int, double>> cells = {
      {2, 40}, {2, 160}, {4, 40}, {4, 160}, {8, 8}, {8, 40}, {8, 160}};
  for (const auto& [n, load] : cells) {
    const Instance inst =
        instance(strfmt("selection_map/mux/%d:1x8@%g", n, load), "mux", "",
                 n, load, {{"bits", 8}});
    auto request = std::make_shared<core::AdvisorRequest>();
    request->spec = spec_of(inst, seed);
    request->cost = core::CostMetric::kTotalWidth;
    request->parallel = true;
    const auto topos = env.db.topologies("mux", &request->spec);
    netlist::Netlist first = [&] {
      obs::Span span("bench.macros.generate");
      auto nl = topos.front()->generate(request->spec);
      core::apply_site_wiring(nl, request->spec);
      return nl;
    }();
    const Hand hand = hand_design(env, first);
    request->delay_spec_ps = 0.70 * hand.delay_ps;
    const double hand_cost = recompute_cost(first, hand.sizing,
                                            request->cost, *env.tech);
    const size_t applicable = topos.size();
    w.ops.push_back(
        {inst.name, [&env, request, hand_cost, applicable]() -> Verify {
           const core::DesignAdvisor advisor(env.db, *env.tech, env.lib);
           auto advice = std::make_shared<core::Advice>();
           obs::StopWatch watch;
           {
             obs::Span span("bench.core.advise");
             *advice = advisor.advise(*request);
           }
           const double wall_ms = watch.elapsed_ms();
           return [&env, request, hand_cost, applicable, advice, wall_ms]() {
             Outcome o;
             o.sizes = true;
             const double spec = request->delay_spec_ps;
             o.errors = check_advice(*advice, applicable, request->cost, spec,
                                     request->sizer.converge_tol, *env.tech);
             if (advice->derived_delay_spec_ps != spec)
               o.errors.push_back(strfmt("advice sized to %.6g ps, asked %.6g",
                                         advice->derived_delay_spec_ps, spec));
             auto& c = o.counts;
             c["advisor.candidates"] = static_cast<double>(applicable);
             c["advisor.candidates_failed"] =
                 static_cast<double>(advice->failures.size());
             double cand_ms = 0.0;
             for (const auto& s : advice->solutions) {
               cand_ms += s.wall_ms;
               count_sizing(s.sizing, c);
             }
             for (const auto& f : advice->failures) {
               cand_ms += f.wall_ms;
               c["sizer.rung_relaxed"] += f.rung == core::SizingRung::kGpRelaxed;
               c["sizer.rung_baseline"] += f.rung == core::SizingRung::kBaseline;
             }
             c["advisor.candidate_ms_sum"] = cand_ms;
             c["advisor.advise_wall_ms"] = wall_ms;
             const auto* best = advice->best();
             if (best == nullptr || !best->meets_spec) {
               o.failed = true;
               o.reason = strfmt("no topology meets %.2f ps: %s", spec,
                                 advice->message.c_str());
               return o;
             }
             o.cost_ratio = recompute_cost(best->netlist, best->sizing.sizing,
                                           request->cost, *env.tech) /
                            hand_cost;
             return o;
           };
         }});
  }
  return w;
}

// ---------------------------------------------------------- analyze_wide

Op analyze_op(const Env& env, const Instance& inst, uint64_t seed,
              double min_reduction) {
  const auto spec = spec_of(inst, seed);
  return {inst.name, [&env, inst, spec, min_reduction]() -> Verify {
            // Everything the op produces, handed to the check.
            struct Result {
              netlist::Netlist nl{""};
              lint::Report erc;
              std::vector<timing::Path> paths;
              timing::PathStats stats;
              netlist::Sizing hand;
              refsim::TimingReport timing;
              power::PowerReport power;
              core::GeneratedProblem gen;
              lint::Report wf;
            };
            auto r = std::make_shared<Result>();
            r->nl = generate(env, inst, spec);
            {
              obs::Span span("bench.lint.erc");
              r->erc = lint::run_erc(r->nl);
            }
            {
              obs::Span span("bench.timing.extract");
              r->paths = timing::PathExtractor(r->nl).extract({}, &r->stats);
            }
            {
              obs::Span span("bench.baseline.size");
              r->hand = core::BaselineSizer(*env.tech).size(r->nl);
            }
            const refsim::RcTimer timer(*env.tech);
            {
              obs::Span span("bench.refsim.analyze");
              r->timing = timer.analyze(r->nl, r->hand);
            }
            {
              obs::Span span("bench.power.analyze");
              r->power = power::PowerEstimator(*env.tech).estimate(r->nl,
                                                                   r->hand);
            }
            core::ConstraintOptions copt;
            copt.delay_spec_ps = r->timing.worst_delay;
            copt.precharge_spec_ps =
                r->timing.worst_precharge > 0.0
                    ? std::max(r->timing.worst_precharge,
                               r->timing.worst_delay)
                    : -1.0;
            copt.slope_budget_ps =
                std::max(copt.slope_budget_ps,
                         r->timing.max_internal_slope * 1.02);
            copt.input_cap_limits_ff = pin_caps(r->nl, r->hand, *env.tech);
            {
              obs::Span span("bench.constraints.generate");
              r->gen = core::generate_problem(r->nl, copt, env.lib,
                                              *env.tech);
            }
            {
              obs::Span span("bench.gp.verify");
              r->wf = gp::verify_problem(*r->gen.problem, {}, r->nl.name());
            }
            return [&env, r, min_reduction]() {
              Outcome o;
              const double topo =
                  timing::PathExtractor(r->nl).count_topological_paths();
              o.errors = check_paths(r->nl, r->paths, r->stats, topo);
              for (auto& e : check_hand_timing(r->nl, r->timing))
                o.errors.push_back(std::move(e));
              if (min_reduction > 0.0 &&
                  !(r->stats.raw_topological >
                    min_reduction * static_cast<double>(r->paths.size())))
                o.errors.push_back(strfmt(
                    "pruning reduced %.0f paths to %zu, under %.0fx",
                    r->stats.raw_topological, r->paths.size(),
                    min_reduction));
              const double width = recompute_width(r->nl, r->hand);
              const double power =
                  power::PowerEstimator(*env.tech)
                      .estimate(r->nl, r->hand)
                      .total_mw;
              if (!(width > 0.0) || !(power > 0.0) ||
                  power != r->power.total_mw)
                o.errors.push_back(strfmt(
                    "hand design width %.6g um, power %.6g mW (op saw %.6g)",
                    width, power, r->power.total_mw));
              const size_t n_constraints = r->gen.problem->constraints().size();
              if (n_constraints < r->paths.size())
                o.errors.push_back(strfmt(
                    "%zu constraints for %zu representative paths",
                    n_constraints, r->paths.size()));
              auto& c = o.counts;
              c["lint.errors"] = static_cast<double>(r->erc.errors());
              c["timing.paths_raw"] = r->stats.raw_edge_paths;
              c["timing.paths_final"] = static_cast<double>(r->paths.size());
              c["constraints.count"] = static_cast<double>(n_constraints);
              c["gp.verify_errors"] = static_cast<double>(r->wf.errors());
              return o;
            };
          }};
}

Workload analyze_wide(const Env& env, uint64_t seed) {
  Workload w;
  auto macro = [](const char* type, const char* topo, int n, double load,
                  std::map<std::string, double> params = {}) {
    return instance(strfmt("%s/%s/%d@%g", type, topo, n, load), type, topo,
                    n, load, std::move(params));
  };
  // §5.2: the 64-bit domino adder keeps the paper's >250x reduction.
  w.ops.push_back(analyze_op(env, macro("adder", "domino_cla", 64, 15), seed,
                             250.0));
  for (const auto& inst :
       {macro("adder", "static_cla", 64, 15),
        macro("incrementor", "ks_prefix", 48, 20),
        macro("decrementor", "ks_prefix", 64, 12),
        macro("decoder", "predecode", 7, 10),
        macro("shifter", "barrel_rotate", 32, 15),
        macro("register_file", "domino_read", 32, 15, {{"bits", 32}})})
    w.ops.push_back(analyze_op(env, inst, seed, 0.0));
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "iso_paper", "advise_pressured", "analyze_wide"};
  return names;
}

double seeded_load(double paper_load_ff, uint64_t seed,
                   const std::string& key) {
  if (seed == 0) return paper_load_ff;
  const uint64_t bits = splitmix64(seed ^ fnv1a(key));
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;  // [0, 1)
  return paper_load_ff * (0.95 + 0.10 * u);
}

Workload make_workload(const std::string& name, const Env& env,
                       uint64_t seed, bool paper_loads) {
  const uint64_t load_seed = paper_loads ? 0 : seed;
  Workload w;
  if (name == "iso_paper") {
    w = iso_paper(env, load_seed);
  } else if (name == "advise_pressured") {
    w = advise_pressured(env, load_seed);
  } else if (name == "analyze_wide") {
    w = analyze_wide(env, load_seed);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  // Seeded Fisher-Yates over the round's op order; seed 0 keeps the list.
  uint64_t state = seed;
  for (size_t i = w.ops.size(); seed != 0 && i > 1; --i) {
    state = splitmix64(state);
    std::swap(w.ops[i - 1], w.ops[state % i]);
  }
  return w;
}

}  // namespace smartbench
