#include "src/core/incremental.h"

#include <bit>
#include <utility>
#include <vector>

#include "src/core/block_matcher.h"
#include "src/util/bitmap.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

/// Edits below one bitmap word of lanes run per pair: the columnar setup
/// (lane gather, mask buffers) does not pay there.
constexpr size_t kMinGatheredLanes = 64;

/// Calls fn(i) for every i in [0, n) whose bit is set in word(i / 64),
/// a word at a time: a zero word costs one test, not 64 bit probes.
/// word(w) is read once, before fn runs for any of its bits.
template <typename WordFn, typename Fn>
void ForEachSetBit(size_t n, WordFn&& word, Fn&& fn) {
  const size_t words = bitspan::Words(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t m = word(w);
    if (w + 1 == words) m &= bitspan::TailMask(n);
    while (m != 0) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
}

/// Calls fn(i) for every set lane of a gathered mask over [0, n).
template <typename Fn>
void ForEachLane(const uint64_t* mask, size_t n, Fn&& fn) {
  ForEachSetBit(n, [mask](size_t w) { return mask[w]; }, fn);
}

/// The pair indices in [0, n) whose bit is set in word(i / 64).
template <typename WordFn>
std::vector<uint32_t> CollectLanes(size_t n, WordFn&& word) {
  std::vector<uint32_t> idx;
  ForEachSetBit(n, word,
                [&](size_t i) { idx.push_back(static_cast<uint32_t>(i)); });
  return idx;
}

std::vector<uint32_t> SetLanes(const Bitmap& bm) {
  const uint64_t* words = bm.words().data();
  return CollectLanes(bm.size(), [words](size_t w) { return words[w]; });
}

std::vector<uint32_t> UnsetLanes(const Bitmap& bm) {
  const uint64_t* words = bm.words().data();
  return CollectLanes(bm.size(), [words](size_t w) { return ~words[w]; });
}

/// Unmatched pairs a predicate rejected: the candidates of Algorithm 8.
std::vector<uint32_t> RejectedUnmatchedLanes(const Bitmap& rejected,
                                             const Bitmap& matches) {
  const uint64_t* r = rejected.words().data();
  const uint64_t* m = matches.words().data();
  return CollectLanes(rejected.size(),
                      [r, m](size_t w) { return r[w] & ~m[w]; });
}

}  // namespace

IncrementalMatcher::IncrementalMatcher(PairContext& ctx,
                                       const CandidateSet& pairs,
                                       Options options)
    : ctx_(ctx), pairs_(pairs), options_(options) {
  // The state is still empty, so this can only fail on an injected
  // mem.reserve fault; an unbudgeted state is the correct fallback then.
  (void)state_.AttachBudget(options_.budget);
}

MatchStats IncrementalMatcher::FullRun(const MatchingFunction& fn) {
  return FullRun(fn, RunControl()).stats;
}

MatchResult IncrementalMatcher::FullRun(const MatchingFunction& fn,
                                        const RunControl& control) {
  fn_ = fn;
  BlockMatcher matcher(BlockMatcher::Options{.block_size = options_.block_size,
                                             .budget = options_.budget,
                                             .pool = options_.pool});
  MatchResult result =
      matcher.RunWithState(fn_, pairs_, ctx_, state_, control);
  has_run_ = !result.partial;
  return result;
}

Status IncrementalMatcher::Resume(const MatchingFunction& fn,
                                  MatchState state) {
  if (!state.initialized() || state.num_pairs() != pairs_.size()) {
    return Status::InvalidArgument(
        StrFormat("state has %zu pairs, candidate set has %zu",
                  state.num_pairs(), pairs_.size()));
  }
  // Bill the adopted state's memo against the session budget before
  // committing — a quota too small for the loaded state must fail the
  // resume, not silently run unbudgeted.
  EMDBG_RETURN_IF_ERROR(state.AttachBudget(options_.budget));
  fn_ = fn;
  state_ = std::move(state);
  has_run_ = true;
  return Status::Ok();
}

Status IncrementalMatcher::SyncMemoWidth() {
  return state_.EnsureCapacity(state_.num_pairs(), ctx_.catalog().size());
}

double IncrementalMatcher::AcquireFeature(FeatureId f, size_t i,
                                          MatchStats& stats) {
  double value = 0.0;
  if (state_.memo().Lookup(i, f, &value)) {
    ++stats.memo_hits;
    return value;
  }
  value = ctx_.ComputeFeature(f, pairs_.pair(i));
  state_.memo().Store(i, f, value);
  ++stats.feature_computations;
  return value;
}

bool IncrementalMatcher::EvalRule(const Rule& r, size_t i,
                                  MatchStats& stats) {
  for (const Predicate& p : r.predicates()) {
    ++stats.predicate_evaluations;
    const double value = AcquireFeature(p.feature, i, stats);
    if (!p.Test(value)) {
      state_.PredFalse(p.id).Set(i);
      return false;
    }
    // Keep I3 tight: a bit set for a predicate that now passes is stale.
    state_.PredFalse(p.id).Clear(i);
  }
  return true;
}

bool IncrementalMatcher::RuleKnownFalse(const Rule& r, size_t i) const {
  for (const Predicate& p : r.predicates()) {
    const Bitmap* bm = state_.FindPredFalse(p.id);
    if (bm != nullptr && bm->Get(i)) return true;
  }
  return false;
}

void IncrementalMatcher::RematchPair(size_t i, size_t skip_pos,
                                     MatchStats& stats) {
  for (size_t pos = 0; pos < fn_.num_rules(); ++pos) {
    if (pos == skip_pos) continue;
    const Rule& rule = fn_.rule(pos);
    if (rule.empty()) continue;
    if (RuleKnownFalse(rule, i)) continue;
    ++stats.rule_evaluations;
    if (EvalRule(rule, i, stats)) {
      state_.matches().Set(i);
      state_.RuleTrue(rule.id()).Set(i);
      return;
    }
  }
}

void IncrementalMatcher::AcquireFeatureGathered(
    FeatureId f, const std::vector<uint32_t>& idx,
    const std::vector<PairId>& gathered, const uint64_t* lanes, float* col,
    MatchStats& stats) {
  const size_t n = idx.size();
  const size_t words = bitspan::Words(n);
  std::vector<uint64_t> need(words, 0);
  ForEachLane(lanes, n, [&](size_t i) {
    double v = 0.0;
    if (state_.memo().Lookup(idx[i], f, &v)) {
      col[i] = static_cast<float>(v);
      ++stats.memo_hits;
    } else {
      need[i >> 6] |= uint64_t{1} << (i & 63);
    }
  });
  if (!bitspan::Any(need.data(), n)) return;
  ctx_.ComputeFeatureBlock(f, gathered.data(), n, need.data(), col);
  ForEachLane(need.data(), n, [&](size_t i) {
    state_.memo().Store(idx[i], f, static_cast<double>(col[i]));
    ++stats.feature_computations;
  });
}

void IncrementalMatcher::EvalRuleGathered(const Rule& r,
                                          std::vector<uint32_t>& idx,
                                          MatchStats& stats) {
  const size_t n = idx.size();
  if (n == 0) return;
  const size_t words = bitspan::Words(n);
  std::vector<PairId> gathered(n);
  for (size_t i = 0; i < n; ++i) gathered[i] = pairs_.pair(idx[i]);
  std::vector<float> col(n);
  std::vector<uint64_t> active(words);
  bitspan::Fill(active.data(), n, true);

  for (const Predicate& p : r.predicates()) {
    const size_t entering = bitspan::Count(active.data(), n);
    if (entering == 0) break;
    stats.predicate_evaluations += entering;
    AcquireFeatureGathered(p.feature, idx, gathered, active.data(),
                           col.data(), stats);
    Bitmap& pf = state_.PredFalse(p.id);
    // ForEachLane reads each word before walking it, so clearing a
    // failing lane from `active` mid-walk is safe.
    ForEachLane(active.data(), n, [&](size_t i) {
      if (p.Test(static_cast<double>(col[i]))) {
        pf.Clear(idx[i]);  // keep I3 tight, as EvalRule does
      } else {
        pf.Set(idx[i]);
        active[i >> 6] &= ~(uint64_t{1} << (i & 63));
      }
    });
  }

  // Surviving lanes passed every predicate: record them, keep the rest.
  std::vector<uint32_t> still_false;
  still_false.reserve(n);
  Bitmap& rule_true = state_.RuleTrue(r.id());
  for (size_t i = 0; i < n; ++i) {
    if ((active[i >> 6] >> (i & 63)) & 1) {
      state_.matches().Set(idx[i]);
      rule_true.Set(idx[i]);
    } else {
      still_false.push_back(idx[i]);
    }
  }
  idx = std::move(still_false);
}

void IncrementalMatcher::RematchGathered(std::vector<uint32_t>& idx,
                                         size_t skip_pos,
                                         MatchStats& stats) {
  std::vector<uint32_t> deferred;
  for (size_t pos = 0; pos < fn_.num_rules() && !idx.empty(); ++pos) {
    if (pos == skip_pos) continue;
    const Rule& rule = fn_.rule(pos);
    if (rule.empty()) continue;
    // Known-false shortcut (I3), partitioned per lane: short-circuited
    // lanes skip this rule but continue to the next one.
    std::vector<uint32_t> eligible;
    eligible.reserve(idx.size());
    deferred.clear();
    for (const uint32_t i : idx) {
      if (RuleKnownFalse(rule, i)) {
        deferred.push_back(i);
      } else {
        eligible.push_back(i);
      }
    }
    stats.rule_evaluations += eligible.size();
    EvalRuleGathered(rule, eligible, stats);
    idx = std::move(eligible);  // lanes where the rule came out false
    idx.insert(idx.end(), deferred.begin(), deferred.end());
  }
}

MatchStats IncrementalMatcher::EvalRuleOnLanes(const Rule& r,
                                               std::vector<uint32_t> idx) {
  MatchStats stats;
  stats.rule_evaluations += idx.size();
  if (idx.size() >= kMinGatheredLanes) {
    EvalRuleGathered(r, idx, stats);
    return stats;
  }
  for (const uint32_t i : idx) {
    if (EvalRule(r, i, stats)) {
      state_.matches().Set(i);
      state_.RuleTrue(r.id()).Set(i);
    }
  }
  return stats;
}

MatchStats IncrementalMatcher::RematchLanes(std::vector<uint32_t> idx,
                                            size_t skip_pos) {
  MatchStats stats;
  for (const uint32_t i : idx) state_.matches().Clear(i);
  if (idx.size() >= kMinGatheredLanes) {
    RematchGathered(idx, skip_pos, stats);
    return stats;
  }
  for (const uint32_t i : idx) RematchPair(i, skip_pos, stats);
  return stats;
}

MatchStats IncrementalMatcher::RecheckMatchedPairs(RuleId rid,
                                                   const Predicate& p) {
  // Snapshot: the pairs that fail are cleared from RuleTrue(rid) below.
  const std::vector<uint32_t> idx = SetLanes(state_.RuleTrue(rid));
  MatchStats stats;
  stats.predicate_evaluations += idx.size();
  Bitmap& pf = state_.PredFalse(p.id);
  Bitmap& rule_true = state_.RuleTrue(rid);
  std::vector<uint32_t> failing;
  auto record = [&](uint32_t i, bool pass) {
    if (pass) {
      pf.Clear(i);  // still matched by this rule
      return;
    }
    pf.Set(i);
    rule_true.Clear(i);
    failing.push_back(i);
  };
  if (idx.size() >= kMinGatheredLanes) {
    const size_t n = idx.size();
    std::vector<PairId> gathered(n);
    for (size_t k = 0; k < n; ++k) gathered[k] = pairs_.pair(idx[k]);
    std::vector<float> col(n);
    std::vector<uint64_t> all(bitspan::Words(n));
    bitspan::Fill(all.data(), n, true);
    AcquireFeatureGathered(p.feature, idx, gathered, all.data(), col.data(),
                           stats);
    for (size_t k = 0; k < n; ++k) {
      record(idx[k], p.Test(static_cast<double>(col[k])));
    }
  } else {
    for (const uint32_t i : idx) {
      record(i, p.Test(AcquireFeature(p.feature, i, stats)));
    }
  }
  // Algorithm 7 re-checks the rules after r; we additionally skip r
  // itself and use the known-false shortcut for the earlier rules, which
  // keeps this correct even after earlier relax edits cleared some of
  // their bitmap bits.
  stats += RematchLanes(std::move(failing), fn_.FindRule(rid));
  return stats;
}

Result<MatchStats> IncrementalMatcher::AddRule(const Rule& rule) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  MatchStats stats;
  const RuleId rid = fn_.AddRule(rule);
  last_added_rule_ = rid;
  const Rule& r = *fn_.RuleById(rid);
  // Algorithm 10: only unmatched pairs can be affected.
  if (!r.empty()) stats = EvalRuleOnLanes(r, UnsetLanes(state_.matches()));
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::RemoveRule(RuleId rid) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  const Rule* rule = fn_.RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  // Snapshot the pairs this rule was responsible for, then drop its state.
  std::vector<uint32_t> affected;
  if (const Bitmap* bm = state_.FindRuleTrue(rid); bm != nullptr) {
    affected = SetLanes(*bm);
  }
  for (const Predicate& p : rule->predicates()) {
    state_.ErasePredicate(p.id);
  }
  state_.EraseRule(rid);
  EMDBG_RETURN_IF_ERROR(fn_.RemoveRule(rid));
  // Algorithm 9: re-check the affected pairs against the remaining rules.
  MatchStats stats = RematchLanes(std::move(affected), fn_.num_rules());
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::AddPredicate(RuleId rid,
                                                    Predicate p) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  const Rule* rule = fn_.RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const bool was_empty = rule->empty();
  Result<PredicateId> pid = fn_.AddPredicate(rid, p);
  if (!pid.ok()) return pid.status();
  last_added_predicate_ = *pid;
  MatchStats stats;
  if (was_empty) {
    // Empty rules are false everywhere, so this transition can only add
    // matches: evaluate like a newly added rule (Algorithm 10).
    stats = EvalRuleOnLanes(*fn_.RuleById(rid), UnsetLanes(state_.matches()));
  } else {
    // Algorithm 7: adding a predicate can only shrink the rule's matches.
    Predicate added = p;
    added.id = *pid;
    stats = RecheckMatchedPairs(rid, added);
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::RemovePredicate(RuleId rid,
                                                       PredicateId pid) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  const Rule* rule = fn_.RuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  // Snapshot the pairs this predicate rejected before dropping its state.
  std::vector<uint32_t> rejected;
  if (const Bitmap* bm = state_.FindPredFalse(pid); bm != nullptr) {
    rejected = RejectedUnmatchedLanes(*bm, state_.matches());
  }
  EMDBG_RETURN_IF_ERROR(fn_.RemovePredicate(rid, pid));
  state_.ErasePredicate(pid);

  MatchStats stats;
  const Rule* updated = fn_.RuleById(rid);
  if (updated->empty()) {
    // The rule degenerated to empty = false everywhere: un-match the
    // pairs it was responsible for and re-match them elsewhere.
    std::vector<uint32_t> affected = SetLanes(state_.RuleTrue(rid));
    state_.RuleTrue(rid).Fill(false);
    stats = RematchLanes(std::move(affected), fn_.num_rules());
  } else {
    // Algorithm 8: only unmatched pairs that the predicate rejected can
    // become matches.
    stats = EvalRuleOnLanes(*updated, std::move(rejected));
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

Result<MatchStats> IncrementalMatcher::SetThreshold(RuleId rid,
                                                    PredicateId pid,
                                                    double threshold) {
  if (!has_run_) {
    return Status::FailedPrecondition("FullRun required before edits");
  }
  Stopwatch timer;
  EMDBG_RETURN_IF_ERROR(SyncMemoWidth());
  Rule* rule = fn_.MutableRuleById(rid);
  if (rule == nullptr) {
    return Status::NotFound(StrFormat("rule %u not found", rid));
  }
  const size_t pos = rule->FindPredicate(pid);
  if (pos == rule->size()) {
    return Status::NotFound(
        StrFormat("predicate %u not found in rule %u", pid, rid));
  }
  const Predicate old = rule->predicate(pos);
  if (old.threshold == threshold) return MatchStats{};

  // A larger threshold tightens lower-bound predicates (>=, >) and
  // relaxes upper-bound ones (<, <=).
  const bool tighten = IsLowerBound(old.op) ? threshold > old.threshold
                                            : threshold < old.threshold;
  rule->mutable_predicate(pos).threshold = threshold;
  const Predicate updated = rule->predicate(pos);

  MatchStats stats;
  if (tighten) {
    // Algorithm 7 flavour: previously-false pairs stay false; only the
    // rule's matched pairs need re-checking against the new threshold.
    stats = RecheckMatchedPairs(rid, updated);
  } else {
    // Algorithm 8: pairs the predicate rejected may now pass. All of the
    // predicate's recorded false-bits are stale under the relaxed
    // threshold, so clear every one (clear = unknown is always sound for
    // I3); the unmatched rejected pairs are then re-evaluated, which
    // re-records fresh outcomes for whatever the evaluation touches.
    std::vector<uint32_t> rejected;
    if (const Bitmap* bm = state_.FindPredFalse(pid); bm != nullptr) {
      rejected = RejectedUnmatchedLanes(*bm, state_.matches());
    }
    state_.PredFalse(pid).Fill(false);
    stats = EvalRuleOnLanes(*rule, std::move(rejected));
  }
  stats.elapsed_ms = timer.ElapsedMillis();
  return stats;
}

}  // namespace emdbg
