#include "e2ebench/edit_script.h"

#include <algorithm>
#include <map>

#include "e2ebench/trace.h"
#include "src/core/predicate.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"

namespace e2ebench {

using emdbg::Predicate;
using emdbg::Result;
using emdbg::Rule;
using emdbg::Status;

const char* EditTypeName(EditType t) {
  switch (t) {
    case EditType::kTighten:
      return "tighten";
    case EditType::kRelax:
      return "relax";
    case EditType::kAddPred:
      return "add_pred";
    case EditType::kRemovePred:
      return "remove_pred";
    case EditType::kAddRule:
      return "add_rule";
    case EditType::kRemoveRule:
      return "remove_rule";
  }
  return "?";
}

namespace {

// Stricter (tighten) or looser (relax) threshold for `p`, moved by a
// fraction of the distance to the end of the [0, 1] similarity range.
double MovedThreshold(const Predicate& p, bool tighten, double frac) {
  const double t = p.threshold;
  const bool raise = emdbg::IsLowerBound(p.op) == tighten;
  const double moved = raise ? t + (1.0 - t) * frac : t - t * frac;
  return std::clamp(moved, 0.0, 1.0);
}

size_t Pick(emdbg::Rng& rng, size_t n) {
  return static_cast<size_t>(rng.Uniform(n));
}

}  // namespace

std::vector<EditOp> MakeEditScript(const emdbg::MatchingFunction& base,
                                   const emdbg::MatchingFunction& extra,
                                   size_t num_pairs, uint64_t seed) {
  emdbg::Rng rng(seed);
  std::vector<EditOp> script;
  script.reserve(2 * num_pairs);
  const size_t n = base.num_rules();
  for (size_t k = 0; k < num_pairs; ++k) {
    const EditType type = static_cast<EditType>(k % kNumEditTypes);
    EditOp fwd;
    EditOp inv;
    fwd.type = type;
    inv.inverse = true;
    fwd.rule = Pick(rng, n);
    inv.rule = fwd.rule;
    const Rule& rule = base.rule(fwd.rule);
    switch (type) {
      case EditType::kTighten:
      case EditType::kRelax: {
        const bool tighten = type == EditType::kTighten;
        fwd.pred = Pick(rng, rule.size());
        const Predicate& p = rule.predicate(fwd.pred);
        fwd.threshold = MovedThreshold(p, tighten, rng.UniformDouble(0.05, 0.3));
        inv.type = tighten ? EditType::kRelax : EditType::kTighten;
        inv.pred = fwd.pred;
        inv.threshold = p.threshold;
        break;
      }
      case EditType::kAddPred: {
        const Rule& donor = extra.rule(Pick(rng, extra.num_rules()));
        fwd.predicate = donor.predicate(Pick(rng, donor.size()));
        inv.type = EditType::kRemovePred;
        break;
      }
      case EditType::kRemovePred:
        fwd.pred = Pick(rng, rule.size());
        inv.type = EditType::kAddPred;
        inv.pred = fwd.pred;
        inv.predicate = rule.predicate(fwd.pred);
        break;
      case EditType::kAddRule:
        fwd.body = extra.rule(Pick(rng, extra.num_rules()));
        inv.type = EditType::kRemoveRule;
        break;
      case EditType::kRemoveRule:
        inv.type = EditType::kAddRule;
        inv.body = rule;
        break;
    }
    script.push_back(std::move(fwd));
    script.push_back(std::move(inv));
  }
  return script;
}

EditScriptRunner::EditScriptRunner(EditTarget& target,
                                   std::vector<EditOp> script, size_t start,
                                   uint32_t stream)
    : target_(target),
      script_(std::move(script)),
      next_(start & ~size_t{1}),
      stream_(stream) {
  const emdbg::MatchingFunction& fn = target_.function();
  for (const Rule& r : fn.rules()) {
    rule_ids_.push_back(r.id());
    std::vector<emdbg::PredicateId> ids;
    for (const Predicate& p : r.predicates()) ids.push_back(p.id);
    pred_ids_.push_back(std::move(ids));
    pred_content_.push_back(r.predicates());
  }
  base_ = target_.ResultFingerprint();
}

void EditScriptRunner::RebindRule(size_t slot, emdbg::RuleId rid) {
  rule_ids_[slot] = rid;
  const Rule* rule = target_.function().RuleById(rid);
  if (rule == nullptr) return;
  std::vector<bool> used(rule->size(), false);
  for (size_t j = 0; j < pred_content_[slot].size(); ++j) {
    for (size_t k = 0; k < rule->size(); ++k) {
      if (!used[k] && rule->predicate(k).SameTest(pred_content_[slot][j])) {
        used[k] = true;
        pred_ids_[slot][j] = rule->predicate(k).id;
        break;
      }
    }
  }
}

Status EditScriptRunner::Apply(const EditOp& op) {
  const emdbg::RuleId rid = rule_ids_[op.rule];
  switch (op.type) {
    case EditType::kTighten:
    case EditType::kRelax:
      return target_.SetThreshold(rid, pred_ids_[op.rule][op.pred],
                                  op.threshold);
    case EditType::kAddPred: {
      Result<emdbg::PredicateId> pid = target_.AddPredicate(rid, op.predicate);
      if (!pid.ok()) return pid.status();
      if (op.inverse) {
        pred_ids_[op.rule][op.pred] = *pid;
      } else {
        added_pred_ = *pid;
      }
      return Status::Ok();
    }
    case EditType::kRemovePred:
      return target_.RemovePredicate(
          rid, op.inverse ? added_pred_ : pred_ids_[op.rule][op.pred]);
    case EditType::kAddRule: {
      Result<emdbg::RuleId> added = target_.AddRule(op.body);
      if (!added.ok()) return added.status();
      if (op.inverse) {
        RebindRule(op.rule, *added);
      } else {
        added_rule_ = *added;
      }
      return Status::Ok();
    }
    case EditType::kRemoveRule:
      return target_.RemoveRule(op.inverse ? added_rule_ : rid);
  }
  return Status::Internal("unknown edit type");
}

size_t EditScriptRunner::Step() {
  const size_t pos = next_ % script_.size();
  const EditOp& op = script_[pos];
  ++next_;
  ++attempted_;
  Status s;
  EditSample sample;
  sample.type = op.type;
  sample.key = (static_cast<uint64_t>(stream_) << 32) | pos;
  {
    Span span("core.edit");
    emdbg::Stopwatch watch;
    s = Apply(op);
    sample.ms = watch.ElapsedMillis();
  }
  sample.stats = target_.LastStats();
  samples_.push_back(sample);
  if (!s.ok()) {
    if (first_error_.empty()) {
      first_error_ = std::string(EditTypeName(op.type)) + ": " + s.ToString();
    }
    return 1;
  }
  if (op.inverse && target_.ResultFingerprint() != base_) {
    if (first_error_.empty()) {
      first_error_ = std::string("result not restored after inverse ") +
                     EditTypeName(op.type);
    }
    return 1;
  }
  if (!op.inverse && spot_check_ &&
      (last_spot_ns_ == 0 ||
       NowNs() - last_spot_ns_ >= static_cast<int64_t>(spot_interval_s_ * 1e9))) {
    last_spot_ns_ = NowNs();
    const bool ok = spot_check_();
    spot_seconds_ += static_cast<double>(NowNs() - last_spot_ns_) / 1e9;
    if (!ok) {
      if (first_error_.empty()) {
        first_error_ = std::string("spot check failed after ") +
                       EditTypeName(op.type);
      }
      return 1;
    }
  }
  return 0;
}

void EditScriptRunner::SetSpotCheck(std::function<bool()> check,
                                    double interval_s) {
  spot_check_ = std::move(check);
  spot_interval_s_ = interval_s;
}

size_t EditScriptRunner::Run(const std::function<bool()>& keep_going) {
  size_t failed = 0;
  while (script_.size() > 0) {
    if (next_ % 2 == 0 && !keep_going()) break;
    failed += Step();
  }
  return failed;
}

size_t EditScriptRunner::RunPairs(size_t pairs) {
  size_t done = 0;
  return Run([&] { return done++ < pairs; });
}

std::vector<double> BestPerEdit(const std::vector<EditSample>& samples) {
  std::map<uint64_t, double> best;
  for (const EditSample& s : samples) {
    auto [it, inserted] = best.emplace(s.key, s.ms);
    if (!inserted) it->second = std::min(it->second, s.ms);
  }
  std::vector<double> out;
  out.reserve(best.size());
  for (const auto& [key, ms] : best) out.push_back(ms);
  return out;
}

std::array<std::vector<const EditSample*>, kNumEditTypes> ByType(
    const std::vector<EditSample>& samples) {
  std::array<std::vector<const EditSample*>, kNumEditTypes> out;
  for (const EditSample& s : samples) {
    out[static_cast<size_t>(s.type)].push_back(&s);
  }
  return out;
}

}  // namespace e2ebench
