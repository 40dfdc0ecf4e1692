#include "cacqr/tune/planner.hpp"

#include <algorithm>

#include "cacqr/lin/kernel.hpp"
#include "cacqr/model/costs.hpp"
#include "cacqr/model/sweep.hpp"
#include "cacqr/support/error.hpp"

namespace cacqr::tune {

std::string ProblemKey::text() const {
  return "m" + std::to_string(m) + "_n" + std::to_string(n) + "_p" +
         std::to_string(p) + "_t" + std::to_string(threads) + "_s" +
         std::to_string(passes) + "_bc" + std::to_string(base_case) + "_" +
         precision_name(precision);
}

std::string Plan::grid() const {
  if (algo == "ca_cqr2") {
    return "c" + std::to_string(c) + "d" + std::to_string(d);
  }
  return std::to_string(pr) + "x" + std::to_string(pc) + "b" +
         std::to_string(block);
}

support::Json Plan::to_json() const {
  support::Json j = support::Json::object();
  j.set("schema", kSchemaVersion);
  j.set("algo", algo);
  j.set("c", c);
  j.set("d", d);
  j.set("pr", pr);
  j.set("pc", pc);
  j.set("block", block);
  j.set("predicted_seconds", predicted_seconds);
  j.set("measured_seconds", measured_seconds);
  j.set("source", source);
  j.set("kernel_variant", kernel_variant);
  j.set("precision", precision_name(precision));
  return j;
}

std::optional<Plan> Plan::from_json(const support::Json& j) {
  if (!j.is_object() || j["schema"].as_int(-1) != kSchemaVersion) {
    return std::nullopt;
  }
  Plan p;
  p.algo = j["algo"].as_string();
  p.c = static_cast<int>(j["c"].as_int());
  p.d = static_cast<int>(j["d"].as_int());
  p.pr = static_cast<int>(j["pr"].as_int());
  p.pc = static_cast<int>(j["pc"].as_int());
  p.block = j["block"].as_int();
  p.predicted_seconds = j["predicted_seconds"].as_number();
  p.measured_seconds = j["measured_seconds"].as_number();
  p.source = j["source"].as_string();
  p.kernel_variant = j["kernel_variant"].as_string();
  const auto prec = parse_precision(j["precision"].as_string());
  if (!prec) return std::nullopt;
  p.precision = *prec;
  // A cached plan must name a variant and a sane configuration; anything
  // else is treated as corruption (ignored by the loader).
  if (p.algo == "ca_cqr2") {
    if (p.c < 1 || p.d < 1 || p.d % p.c != 0) return std::nullopt;
  } else if (p.algo == "pgeqrf_2d") {
    if (p.pr < 1 || p.pc < 1 || p.block < 1) return std::nullopt;
  } else {
    return std::nullopt;
  }
  return p;
}

Planner::Planner(MachineProfile profile, PlannerOptions opts)
    : profile_(std::move(profile)), opts_(opts) {
  ensure(opts_.top_k >= 1, "Planner: top_k must be >= 1");
}

std::vector<Plan> Planner::candidates(const ProblemKey& key) const {
  ensure(key.m >= key.n && key.n >= 1, "Planner: requires m >= n >= 1");
  ensure(key.p >= 1 && key.threads >= 1,
         "Planner: ranks and threads must be positive");
  // Score with the gamma of the micro-kernel the driver will actually
  // dispatch to: the planner's flop rate must describe the engine that
  // runs the plan, not whichever variant calibrated fastest.
  const std::string kv =
      lin::kernel::variant_name(lin::kernel::active_variant());
  const model::Machine mach = profile_.machine_for(kv, key.threads);
  const double m = static_cast<double>(key.m);
  const double n = static_cast<double>(key.n);
  // The model costs are for the 2-pass (CQR2) forms; a 1-pass or
  // shifted-3-pass driver scales the CholeskyQR families roughly
  // linearly in passes (pgeqrf ignores the knob).
  const double pass_factor =
      std::max(1, key.passes) / 2.0;
  // The precision axis: how many CholeskyQR passes run their Gram stage
  // in fp32 under this key, mirroring the driver exactly -- `mixed`
  // confines it to the first pass, `fp32` keeps it for every pass, and
  // the 3-pass shifted fallback ignores the knob (always fp64).  For
  // each affected pass the re-scored Gram stage keeps its alpha, ships
  // half the beta words (fp32 pairs riding whole 8-byte wire words), and
  // charges its flops at the variant's measured fp32-lane gamma.
  const double f32_passes =
      key.precision == Precision::fp64 || key.passes == 3 ? 0.0
      : key.precision == Precision::mixed
          ? 1.0
          : static_cast<double>(std::min(key.passes, 2));
  const model::Machine mach32 =
      profile_.machine_for(kv, key.threads, Precision::fp32);
  const auto precision_adjust = [&](double c, double d) {
    if (f32_passes == 0.0) return 0.0;
    const model::Cost gram = model::cost_gram_stage(m, n, c, d);
    const model::Cost gram32{gram.alpha, gram.beta * 0.5, gram.gamma,
                             gram.mem};
    return f32_passes * (gram32.time(mach32) - gram.time(mach));
  };
  std::vector<Plan> out;

  // CA-CQR2 on every valid (c, d) tunable grid; c == 1 is 1D-CQR2
  // (Algorithm 7) on all P ranks.  The driver pads rows, so the c == 1
  // grid is always a candidate; a wider grid needs a row class per rank.
  // Grids needing more column classes than there are columns (or whose
  // CFR3D base case n >= c^2 fails even after padding) are skipped;
  // the driver pads, but a grid with c > n can never be sensible.
  for (const auto& [c, d] : model::valid_grids(key.p)) {
    if (static_cast<i64>(c) * c > key.n ||
        (c > 1 && static_cast<i64>(d) > key.m)) {
      continue;
    }
    Plan p;
    p.algo = "ca_cqr2";
    p.c = static_cast<int>(c);
    p.d = static_cast<int>(d);
    p.predicted_seconds =
        model::eval_cacqr2(m, n, c, d, mach).seconds * pass_factor +
        precision_adjust(static_cast<double>(c), static_cast<double>(d));
    p.source = "model";
    out.push_back(std::move(p));
  }

  // The ScaLAPACK-style baseline, the paper's tuning sweep:
  // power-of-two pr and blocks {16, 32, 64}.  The driver pads up to
  // block-cycle multiples, so only require one block per process.
  for (i64 pr = 1; pr <= key.p; pr *= 2) {
    if (key.p % pr != 0) continue;
    const i64 pc = key.p / pr;
    for (const i64 b : {i64{16}, i64{32}, i64{64}}) {
      if (pr * b > key.m || pc * b > key.n) continue;
      Plan p;
      p.algo = "pgeqrf_2d";
      p.pr = static_cast<int>(pr);
      p.pc = static_cast<int>(pc);
      p.block = b;
      p.predicted_seconds =
          model::eval_pgeqrf(m, n, pr, pc, b, mach).seconds;
      p.source = "model";
      out.push_back(std::move(p));
    }
  }

  // Every plan records the precision it was scored under (pgeqrf_2d has
  // no fp32 lane and its score is precision-independent, but the tag
  // still gates cache reuse uniformly).
  for (Plan& p : out) {
    p.kernel_variant = kv;
    p.precision = key.precision;
  }

  // Deterministic order: predicted time ascending; ties broken by the
  // enumeration order above (stable sort), which is itself fixed.
  std::stable_sort(out.begin(), out.end(), [](const Plan& a, const Plan& b) {
    return a.predicted_seconds < b.predicted_seconds;
  });
  return out;
}

Plan Planner::plan(const ProblemKey& key) const {
  std::vector<Plan> all = candidates(key);
  ensure(!all.empty(), "Planner: no valid candidate for ", key.text());
  return all.front();
}

}  // namespace cacqr::tune
