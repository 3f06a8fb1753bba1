#include "src/core/debug_session.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "src/core/block_matcher.h"
#include "src/core/sampler.h"
#include "src/core/shard_driver.h"
#include "src/util/csv.h"
#include "src/util/stopwatch.h"
#include "src/util/string_util.h"

namespace emdbg {

namespace {

// ---- Durability file layout inside the session directory:
//   checkpoint.meta             "EMDBGCK1 <epoch>" — names the live epoch
//   checkpoint.<epoch>.features catalog feature names, one per id-order line
//   checkpoint.<epoch>.rules    precise DSL, one rule per line
//   checkpoint.<epoch>.state    binary memo + bitmaps (state_io v2)
//   journal.log                 edits committed since the checkpoint
// The meta file is the commit point: it is rewritten (atomically) only
// after the new epoch's files are fully on disk, so a crash anywhere in
// checkpointing leaves a complete old or new checkpoint. ----

constexpr std::string_view kMetaTag = "EMDBGCK1 ";

std::string MetaPath(const std::string& dir) {
  return dir + "/checkpoint.meta";
}
std::string JournalPath(const std::string& dir) {
  return dir + "/journal.log";
}
std::string FeaturesPath(const std::string& dir, uint64_t epoch) {
  return StrFormat("%s/checkpoint.%llu.features", dir.c_str(),
                   static_cast<unsigned long long>(epoch));
}
std::string RulesPath(const std::string& dir, uint64_t epoch) {
  return StrFormat("%s/checkpoint.%llu.rules", dir.c_str(),
                   static_cast<unsigned long long>(epoch));
}
std::string StatePath(const std::string& dir, uint64_t epoch) {
  return StrFormat("%s/checkpoint.%llu.state", dir.c_str(),
                   static_cast<unsigned long long>(epoch));
}

Result<uint64_t> ReadMeta(const std::string& dir) {
  Result<std::string> text = ReadFileToString(MetaPath(dir));
  if (!text.ok()) return text.status();
  const std::string_view trimmed = TrimAscii(*text);
  if (trimmed.size() <= kMetaTag.size() ||
      trimmed.substr(0, kMetaTag.size()) != kMetaTag) {
    return Status::ParseError(
        StrFormat("%s is not an emdbg checkpoint meta file",
                  MetaPath(dir).c_str()));
  }
  int64_t epoch = 0;
  if (!ParseInt64(trimmed.substr(kMetaTag.size()), &epoch) || epoch <= 0) {
    return Status::ParseError("checkpoint meta has a bad epoch");
  }
  return static_cast<uint64_t>(epoch);
}

/// The catalog's features, one "simfn(attrA, attrB)" name per line in id
/// order. Recovery re-interns them in the same order, so the feature ids
/// baked into the saved memo columns stay valid.
std::string CheckpointFeaturesText(const FeatureCatalog& catalog) {
  std::string text;
  for (FeatureId f = 0; f < catalog.size(); ++f) {
    text += catalog.Name(f);
    text += "\n";
  }
  return text;
}

Status LoadCheckpointFeatures(const std::string& path,
                              FeatureCatalog& catalog) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  FeatureId next_id = 0;
  std::string_view rest(*text);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line =
        TrimAscii(nl == std::string_view::npos ? rest : rest.substr(0, nl));
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    // "simfn(attrA, attrB)"
    const size_t lparen = line.find('(');
    const size_t comma = line.find(',', lparen);
    const size_t rparen = line.find(')', comma);
    if (lparen == std::string_view::npos ||
        comma == std::string_view::npos ||
        rparen == std::string_view::npos) {
      return Status::ParseError(StrFormat(
          "bad feature name '%.*s' in %s", static_cast<int>(line.size()),
          line.data(), path.c_str()));
    }
    Result<SimFunction> fn =
        SimFunctionFromName(std::string(TrimAscii(line.substr(0, lparen))));
    if (!fn.ok()) return fn.status();
    Result<FeatureId> id = catalog.InternByName(
        *fn, TrimAscii(line.substr(lparen + 1, comma - lparen - 1)),
        TrimAscii(line.substr(comma + 1, rparen - comma - 1)));
    if (!id.ok()) return id.status();
    // A session that interned features before loading (e.g. it added a
    // rule) would otherwise read every saved memo column shifted.
    if (*id != next_id) {
      return Status::FailedPrecondition(StrFormat(
          "feature '%.*s' is id %u in this session but %u in %s; load "
          "checkpoints into a session that has interned no features",
          static_cast<int>(line.size()), line.data(),
          static_cast<unsigned>(*id), static_cast<unsigned>(next_id),
          path.c_str()));
    }
    ++next_id;
  }
  return Status::Ok();
}

/// Checkpoint rules: precise DSL, plus a "!empty [name]" escape for rules
/// with no predicates (the DSL cannot express them, but a live function
/// can contain them and journal positions must line up).
std::string CheckpointRulesText(const MatchingFunction& fn,
                                const FeatureCatalog& catalog) {
  std::string text;
  for (const Rule& rule : fn.rules()) {
    if (rule.empty()) {
      text += "!empty";
      if (!rule.name().empty()) {
        text += " ";
        text += rule.name();
      }
    } else {
      text += RuleToDsl(rule, catalog);
    }
    text += "\n";
  }
  return text;
}

Result<MatchingFunction> LoadCheckpointRules(const std::string& path,
                                             FeatureCatalog& catalog) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  MatchingFunction fn;
  std::string_view rest(*text);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line =
        TrimAscii(nl == std::string_view::npos ? rest : rest.substr(0, nl));
    rest = nl == std::string_view::npos ? std::string_view()
                                        : rest.substr(nl + 1);
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, 6) == "!empty") {
      fn.AddRule(Rule(std::string(TrimAscii(line.substr(6)))));
      continue;
    }
    Result<Rule> rule = ParseRule(line, catalog);
    if (!rule.ok()) return rule.status();
    fn.AddRule(std::move(*rule));
  }
  return fn;
}

/// Consumes a leading non-negative integer token from `rest`.
bool TakeIndex(std::string_view& rest, size_t* out) {
  int64_t v = 0;
  if (!ParseInt64(TakeToken(rest), &v) || v < 0) return false;
  *out = static_cast<size_t>(v);
  return true;
}

/// Function-level edits (before the first run, and in batch mode) do no
/// matching work.
Result<MatchStats> NoStats(const Status& s) {
  if (!s.ok()) return s;
  return MatchStats{};
}

/// Follows `remap` from an id an undo replaced to the live id.
uint32_t Resolve(const std::unordered_map<uint32_t, uint32_t>& remap,
                 uint32_t id) {
  for (auto it = remap.find(id); it != remap.end(); it = remap.find(id)) {
    id = it->second;
  }
  return id;
}

}  // namespace

DebugSession::DebugSession(Table a, Table b, CandidateSet pairs,
                           Options options)
    : DebugSession(std::make_shared<const Table>(std::move(a)),
                   std::make_shared<const Table>(std::move(b)),
                   std::make_shared<const CandidateSet>(std::move(pairs)),
                   options) {}

DebugSession::DebugSession(std::shared_ptr<const Table> a,
                           std::shared_ptr<const Table> b,
                           std::shared_ptr<const CandidateSet> pairs,
                           Options options)
    : a_(std::move(a)),
      b_(std::move(b)),
      pairs_(std::move(pairs)),
      options_(options),
      catalog_(a_->schema(), b_->schema()),
      rng_(options.seed) {
  ctx_ = std::make_unique<PairContext>(
      *a_, *b_, catalog_, PairContext::Options{.budget = options_.budget});
  // batch_state_ is still empty, so attaching cannot bill anything yet.
  (void)batch_state_.AttachBudget(options_.budget);
  if (options_.num_threads != 1) {
    // One persistent pool for the session's lifetime: threads spawn here
    // once and are reused by every full run, prewarm, and edit.
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

IncrementalMatcher::Options DebugSession::IncOptions() {
  return IncrementalMatcher::Options{.pool = pool_.get(),
                                     .budget = options_.budget,
                                     .block_size = options_.block_size};
}

MatchResult DebugSession::BatchRun(const RunControl& control) {
  if (options_.sharded) {
    // Out-of-core: shard-sized memo slices instead of one resident
    // matrix. keep_state=false — the session only needs the match bits,
    // so shard state is dropped as each shard completes and no spill
    // directory is required.
    ShardedMatchDriver driver(ShardedMatchDriver::Options{
        .shard_pairs = options_.shard_pairs,
        .budget = options_.budget,
        .pool = pool_.get(),
        .block_size = options_.block_size,
        .cost_model = model_.get(),
        .keep_state = false});
    MatchResult result = driver.Run(fn_, *pairs_, *ctx_, control);
    if (!result.partial) batch_state_.matches() = result.matches;
    return result;
  }
  BlockMatcher matcher(BlockMatcher::Options{.block_size = options_.block_size,
                                             .cost_model = model_.get(),
                                             .budget = options_.budget,
                                             .pool = pool_.get()});
  return matcher.RunWithState(fn_, *pairs_, *ctx_, batch_state_, control);
}

const MatchingFunction& DebugSession::function() const {
  if (started_ && options_.incremental) return inc_->function();
  return fn_;
}

void DebugSession::PrepareRule(Rule& rule) {
  if (model_ == nullptr) return;
  for (const FeatureId f : rule.Features()) {
    model_->EnsureFeature(f, *ctx_);
  }
  if (options_.ordering != OrderingStrategy::kAsWritten &&
      options_.ordering != OrderingStrategy::kRandom) {
    OrderRulePredicates(rule, *model_);
  }
}

Result<RuleId> DebugSession::AddRuleText(std::string_view dsl) {
  Result<Rule> rule = ParseRule(dsl, catalog_);
  if (!rule.ok()) return rule.status();
  return AddRule(std::move(*rule));
}

Result<RuleId> DebugSession::AddRule(Rule rule) {
  Edit edit{.kind = Edit::Kind::kAddRule, .body = std::move(rule)};
  EMDBG_RETURN_IF_ERROR(Apply(edit));
  return edit.rule;
}

Status DebugSession::RemoveRule(RuleId rid) {
  Edit edit{.kind = Edit::Kind::kRemoveRule, .rule = rid};
  return Apply(edit);
}

Result<PredicateId> DebugSession::AddPredicate(RuleId rid, Predicate p) {
  Edit edit{.kind = Edit::Kind::kAddPredicate, .rule = rid, .pred = p};
  EMDBG_RETURN_IF_ERROR(Apply(edit));
  return edit.predicate;
}

Status DebugSession::RemovePredicate(RuleId rid, PredicateId pid) {
  Edit edit{
      .kind = Edit::Kind::kRemovePredicate, .rule = rid, .predicate = pid};
  return Apply(edit);
}

Status DebugSession::SetThreshold(RuleId rid, PredicateId pid,
                                  double threshold) {
  Edit edit{.kind = Edit::Kind::kSetThreshold,
            .rule = rid,
            .predicate = pid,
            .threshold = threshold};
  return Apply(edit);
}

Result<RuleId> DebugSession::ApplyEdit(std::string_view line) {
  Result<Edit> edit = ParseEdit(line);
  if (!edit.ok()) return edit.status();
  EMDBG_RETURN_IF_ERROR(Apply(*edit));
  return edit->rule;
}

Status DebugSession::Apply(Edit& edit, bool undo) {
  using Kind = Edit::Kind;
  if (!undo && edit.kind == Kind::kAddRule) PrepareRule(edit.body);
  if (!undo && edit.kind == Kind::kAddPredicate && model_ != nullptr) {
    model_->EnsureFeature(edit.pred.feature, *ctx_);
  }

  // Resolve the ids once, and take the positions the journal line names
  // from the function as the edit finds it.
  const MatchingFunction& fn = function();
  size_t rule_pos = 0;
  size_t pred_pos = 0;
  if (edit.kind != Kind::kAddRule) {
    edit.rule = Resolve(rule_remap_, edit.rule);
    rule_pos = fn.FindRule(edit.rule);
    if (rule_pos == fn.num_rules()) {
      return Status::NotFound(StrFormat("rule %u not found", edit.rule));
    }
  }
  if (edit.kind == Kind::kRemovePredicate ||
      edit.kind == Kind::kSetThreshold) {
    edit.predicate = Resolve(predicate_remap_, edit.predicate);
    pred_pos = fn.rule(rule_pos).FindPredicate(edit.predicate);
    if (pred_pos == fn.rule(rule_pos).size()) {
      return Status::NotFound(StrFormat("predicate %u not found in rule %u",
                                        edit.predicate, edit.rule));
    }
  }

  // Each case first takes what the inverse needs from what the edit is
  // about to remove or overwrite.
  const bool live = started_ && options_.incremental;
  Edit inverse{.kind = edit.kind};
  Result<MatchStats> stats = MatchStats{};
  switch (edit.kind) {
    case Kind::kAddRule:
      inverse.kind = Kind::kRemoveRule;
      if (live) {
        stats = inc_->AddRule(edit.body);
        edit.rule = inc_->last_added_rule_id();
      } else {
        edit.rule = fn_.AddRule(edit.body);
      }
      break;
    case Kind::kRemoveRule:
      inverse.kind = Kind::kAddRule;
      inverse.body = fn.rule(rule_pos);
      stats = live ? inc_->RemoveRule(edit.rule)
                   : NoStats(fn_.RemoveRule(edit.rule));
      break;
    case Kind::kAddPredicate:
      inverse.kind = Kind::kRemovePredicate;
      if (live) {
        stats = inc_->AddPredicate(edit.rule, edit.pred);
        edit.predicate = inc_->last_added_predicate_id();
      } else {
        // The rule was found above, so this cannot fail.
        edit.predicate = *fn_.AddPredicate(edit.rule, edit.pred);
      }
      break;
    case Kind::kRemovePredicate:
      inverse.kind = Kind::kAddPredicate;
      inverse.pred = fn.rule(rule_pos).predicate(pred_pos);
      stats = live ? inc_->RemovePredicate(edit.rule, edit.predicate)
                   : NoStats(fn_.RemovePredicate(edit.rule, edit.predicate));
      break;
    case Kind::kSetThreshold:
      inverse.threshold = fn.rule(rule_pos).predicate(pred_pos).threshold;
      stats = live ? inc_->SetThreshold(edit.rule, edit.predicate,
                                        edit.threshold)
                   : NoStats(fn_.SetThreshold(edit.rule, edit.predicate,
                                              edit.threshold));
      break;
  }
  if (!stats.ok()) return stats.status();
  if (live) {
    last_stats_ = *stats;
    total_stats_ += *stats;
  } else {
    batch_dirty_ = true;
  }

  if (undo) {
    history_.pop_back();
    // Re-created rules and predicates have fresh ids; map the ids they
    // had (kept in the payload) so older history and callers still
    // reach them. AddRule keeps predicate order, so map positionally.
    if (edit.kind == Kind::kAddRule) {
      rule_remap_[edit.body.id()] = edit.rule;
      const Rule& restored = function().rules().back();
      for (size_t k = 0; k < edit.body.size(); ++k) {
        predicate_remap_[edit.body.predicate(k).id] =
            restored.predicate(k).id;
      }
    } else if (edit.kind == Kind::kAddPredicate) {
      predicate_remap_[edit.pred.id] = edit.predicate;
    }
  } else if (live) {
    inverse.rule = edit.rule;
    inverse.predicate = edit.predicate;
    history_.push_back(std::move(inverse));
  }

  if (journal_ != nullptr) {
    EMDBG_RETURN_IF_ERROR(
        journal_->Append(EditLine(edit, rule_pos, pred_pos)));
    if (++edits_since_checkpoint_ >= checkpoint_every_) {
      EMDBG_RETURN_IF_ERROR(WriteCheckpoint());
    }
  }
  return Status::Ok();
}

Result<DebugSession::Edit> DebugSession::ParseEdit(std::string_view line) {
  using Kind = Edit::Kind;
  std::string_view rest = line;
  const std::string_view verb = TakeToken(rest);
  Edit edit;
  if (verb == "add_rule_empty") {
    edit.body = Rule(std::string(rest));
    return edit;
  }
  if (verb == "add_rule") {
    if (rest.empty()) {
      return Status::ParseError("add_rule takes a rule in DSL");
    }
    Result<Rule> rule = ParseRule(rest, catalog_);
    if (!rule.ok()) return rule.status();
    edit.body = std::move(*rule);
    return edit;
  }

  // The positional verbs: a rule position, then a predicate position for
  // remove_pred / set_threshold.
  static constexpr struct {
    std::string_view verb;
    Kind kind;
    std::string_view args;
  } kVerbs[] = {
      {"remove_rule", Kind::kRemoveRule, "<rule>"},
      {"add_pred", Kind::kAddPredicate, "<rule> <predicate>"},
      {"remove_pred", Kind::kRemovePredicate, "<rule> <pred>"},
      {"set_threshold", Kind::kSetThreshold, "<rule> <pred> <threshold>"},
  };
  const auto* v = std::find_if(std::begin(kVerbs), std::end(kVerbs),
                               [&](const auto& k) { return k.verb == verb; });
  if (v == std::end(kVerbs)) {
    return Status::ParseError("unknown edit verb: " + std::string(verb));
  }
  edit.kind = v->kind;
  const bool on_pred =
      edit.kind == Kind::kRemovePredicate || edit.kind == Kind::kSetThreshold;
  size_t rpos = 0;
  size_t ppos = 0;
  if (!TakeIndex(rest, &rpos) || (on_pred && !TakeIndex(rest, &ppos)) ||
      (edit.kind == Kind::kSetThreshold &&
       !ParseDouble(TrimAscii(rest), &edit.threshold))) {
    return Status::ParseError(StrFormat("usage: %s %s", v->verb.data(),
                                        v->args.data()));
  }
  const std::vector<Rule>& rules = function().rules();
  if (rpos >= rules.size() || (on_pred && ppos >= rules[rpos].size())) {
    return Status::NotFound("index out of range");
  }
  edit.rule = rules[rpos].id();
  if (on_pred) edit.predicate = rules[rpos].predicate(ppos).id;
  if (edit.kind == Kind::kAddPredicate) {
    // A single predicate parses as a one-predicate anonymous rule.
    Result<Rule> parsed = ParseRule(rest, catalog_);
    if (!parsed.ok()) return parsed.status();
    if (parsed->size() != 1) {
      return Status::ParseError("expected exactly one predicate");
    }
    edit.pred = parsed->predicate(0);
  }
  return edit;
}

std::string DebugSession::EditLine(const Edit& edit, size_t rule_pos,
                                   size_t pred_pos) const {
  switch (edit.kind) {
    case Edit::Kind::kAddRule:
      // Empty rules have no DSL form and get their own verb.
      if (edit.body.empty()) {
        return edit.body.name().empty()
                   ? "add_rule_empty"
                   : "add_rule_empty " + edit.body.name();
      }
      return "add_rule " + RuleToDsl(edit.body, catalog_);
    case Edit::Kind::kRemoveRule:
      return StrFormat("remove_rule %zu", rule_pos);
    case Edit::Kind::kAddPredicate:
      return StrFormat("add_pred %zu %s", rule_pos,
                       PredicateToDsl(edit.pred, catalog_).c_str());
    case Edit::Kind::kRemovePredicate:
      return StrFormat("remove_pred %zu %zu", rule_pos, pred_pos);
    case Edit::Kind::kSetThreshold:
      return StrFormat("set_threshold %zu %zu %.17g", rule_pos, pred_pos,
                       edit.threshold);
  }
  return std::string();
}

Status DebugSession::Undo() {
  // Only post-run edits in incremental mode are recorded.
  if (history_.empty()) {
    return Status::FailedPrecondition("no post-run edit to undo");
  }
  Edit inverse = history_.back();  // Apply pops the original
  return Apply(inverse, /*undo=*/true);
}

std::string DebugSession::History() const {
  // Each entry is the inverse of the edit it lists.
  std::string out;
  for (size_t i = 0; i < history_.size(); ++i) {
    const Edit& inverse = history_[i];
    out += StrFormat("%3zu. ", i + 1);
    switch (inverse.kind) {
      case Edit::Kind::kRemoveRule:
        out += StrFormat("add rule #%u", inverse.rule);
        break;
      case Edit::Kind::kAddRule:
        out += "remove rule " + inverse.body.name();
        break;
      case Edit::Kind::kRemovePredicate:
        out += StrFormat("add predicate #%u to rule #%u", inverse.predicate,
                         inverse.rule);
        break;
      case Edit::Kind::kAddPredicate:
        out += StrFormat("remove predicate %s from rule #%u",
                         PredicateToString(inverse.pred, catalog_).c_str(),
                         inverse.rule);
        break;
      case Edit::Kind::kSetThreshold:
        out += StrFormat("set threshold of predicate #%u (was %.4g)",
                         inverse.predicate, inverse.threshold);
        break;
    }
    out += "\n";
  }
  return out;
}

MatchResult DebugSession::FirstRun(const RunControl& control) {
  // Estimate the cost model on a small random sample (paper: 1%), order
  // the rules with the configured strategy, then run fully.
  const CandidateSet sample =
      SamplePairs(*pairs_, options_.sample_fraction, rng_);
  model_ = std::make_unique<CostModel>(
      CostModel::EstimateForFunction(fn_, *ctx_, sample));
  ApplyOrdering(fn_, options_.ordering, *model_, &rng_);

  MatchResult result;
  if (options_.incremental) {
    if (inc_ == nullptr) {
      inc_ = std::make_unique<IncrementalMatcher>(*ctx_, *pairs_,
                                                   IncOptions());
    }
    result = inc_->FullRun(fn_, control);
  } else {
    result = BatchRun(control);
    batch_dirty_ = result.partial;
  }
  last_stats_ = result.stats;
  total_stats_ += last_stats_;
  // A partial first run leaves the session in the pre-run regime: the
  // memo keeps everything computed so far, a retry resumes cheaply.
  started_ = !result.partial;
  return result;
}

const Bitmap& DebugSession::Run() {
  if (!started_) {
    FirstRun(RunControl());
  } else if (!options_.incremental && batch_dirty_) {
    // Non-incremental mode: rerun everything, but keep the memo — the
    // "precomputation variation" of Sec. 7.6.
    last_stats_ = BatchRun(RunControl()).stats;
    total_stats_ += last_stats_;
    batch_dirty_ = false;
  }
  return options_.incremental ? inc_->matches() : batch_state_.matches();
}

MatchResult DebugSession::Run(const RunControl& control) {
  if (!started_) return FirstRun(control);
  if (!options_.incremental && batch_dirty_) {
    MatchResult result = BatchRun(control);
    last_stats_ = result.stats;
    total_stats_ += last_stats_;
    batch_dirty_ = result.partial;
    return result;
  }
  // The maintained result is already up to date (incremental mode keeps
  // it current through edits); return it as a complete result.
  MatchResult result;
  result.matches =
      options_.incremental ? inc_->matches() : batch_state_.matches();
  result.MarkComplete(pairs_->size());
  return result;
}

QualityMetrics DebugSession::Score(const PairLabels& labels) {
  return Evaluate(Run(), labels);
}

std::string DebugSession::MemoryReport() const {
  return state().MemoryReport();
}

DebugSession::MemoryFootprint DebugSession::Footprint() const {
  MemoryFootprint fp;
  fp.memo_bytes = state().MemoryBytes();
  fp.token_cache_bytes = ctx_->TokenCacheBytes();
  fp.id_cache_bytes = ctx_->IdCacheBytes();
  if (const TokenInterner* interner = ctx_->interner()) {
    fp.interner_bytes =
        interner->ArenaBytes() + interner->DictionaryBytes();
  }
  return fp;
}

MatchExplanation DebugSession::Explain(PairId pair) {
  return ExplainPair(function(), pair, *ctx_);
}

std::vector<NearMiss> DebugSession::WhyNot(PairId pair, size_t top_k) {
  return FindNearMisses(function(), pair, *ctx_, top_k);
}

Status DebugSession::SaveSession(const std::string& dir) const {
  if (!started_ || !options_.incremental) {
    return Status::FailedPrecondition(
        "saving requires a completed run in incremental mode");
  }
  std::error_code ec;
  if (durable() && std::filesystem::equivalent(dir, durability_dir_, ec)) {
    // A new epoch here would orphan the live journal; checkpoint instead.
    return Status::FailedPrecondition(
        "that is the session's durability directory; use Checkpoint()");
  }
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create %s: %s", dir.c_str(),
                                     ec.message().c_str()));
  }
  // Saving over an earlier snapshot continues its epoch sequence.
  Result<uint64_t> epoch = ReadMeta(dir);
  return WriteSnapshot(dir, epoch.ok() ? *epoch : 0).status();
}

Status DebugSession::ResumeSession(const std::string& dir) {
  if (started_) {
    return Status::FailedPrecondition(
        "resume must happen before the first run");
  }
  if (!options_.incremental) {
    return Status::FailedPrecondition("resume requires incremental mode");
  }
  Result<uint64_t> epoch = ReadMeta(dir);
  if (!epoch.ok()) return epoch.status();

  // Re-intern the catalog's features in saved id order, so the feature
  // ids baked into the memo columns stay valid.
  EMDBG_RETURN_IF_ERROR(
      LoadCheckpointFeatures(FeaturesPath(dir, *epoch), catalog_));
  Result<MatchingFunction> rules =
      LoadCheckpointRules(RulesPath(dir, *epoch), catalog_);
  if (!rules.ok()) return rules.status();
  Result<MatchState> state = LoadMatchState(StatePath(dir, *epoch));
  if (!state.ok()) return state.status();

  auto inc = std::make_unique<IncrementalMatcher>(*ctx_, *pairs_,
                                                  IncOptions());
  EMDBG_RETURN_IF_ERROR(inc->Resume(*rules, std::move(*state)));
  inc_ = std::move(inc);
  started_ = true;
  epoch_ = *epoch;
  return Status::Ok();
}

std::string DebugSession::RuleActivityReport() const {
  if (!started_) return "(no run yet)\n";
  std::string out;
  for (const Rule& rule : function().rules()) {
    const Bitmap* fired = state().FindRuleTrue(rule.id());
    out += StrFormat("%-10s matches %6zu pairs | rejects:",
                     rule.name().c_str(),
                     fired == nullptr ? 0 : fired->Count());
    for (const Predicate& p : rule.predicates()) {
      const Bitmap* rejected = state().FindPredFalse(p.id);
      out += StrFormat(" %s=%zu", catalog_.Name(p.feature).c_str(),
                       rejected == nullptr ? 0 : rejected->Count());
    }
    out += "\n";
  }
  return out;
}

MatchStats DebugSession::Reoptimize() {
  fn_ = function();
  const MatchStats stats = FirstRun(RunControl()).stats;
  // Journal lines name rules by position, and the new order moved them:
  // replay must start from a checkpoint of that order.
  if (durable() && (!started_ || !WriteCheckpoint().ok())) journal_.reset();
  return stats;
}

Status DebugSession::EnableDurability(const std::string& dir,
                                      size_t checkpoint_every) {
  if (!options_.incremental) {
    return Status::FailedPrecondition(
        "durability requires incremental mode");
  }
  if (!started_) {
    return Status::FailedPrecondition(
        "durability requires a completed run; call Run() first");
  }
  if (journal_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  if (checkpoint_every == 0) {
    return Status::InvalidArgument("checkpoint_every must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create %s: %s", dir.c_str(),
                                     ec.message().c_str()));
  }
  durability_dir_ = dir;
  checkpoint_every_ = checkpoint_every;
  Status s = WriteCheckpoint();
  if (!s.ok()) {
    journal_.reset();
    durability_dir_.clear();
  }
  return s;
}

Status DebugSession::Checkpoint() {
  if (!durable()) {
    return Status::FailedPrecondition("durability is not enabled");
  }
  return WriteCheckpoint();
}

Result<uint64_t> DebugSession::WriteSnapshot(const std::string& dir,
                                             uint64_t epoch) const {
  const uint64_t next_epoch = epoch + 1;
  const MatchingFunction& fn = inc_->function();
  EMDBG_RETURN_IF_ERROR(WriteFileAtomic(FeaturesPath(dir, next_epoch),
                                        CheckpointFeaturesText(catalog_)));
  EMDBG_RETURN_IF_ERROR(WriteFileAtomic(RulesPath(dir, next_epoch),
                                        CheckpointRulesText(fn, catalog_)));
  // Loading re-parses the rules file, which assigns dense ids in file
  // order; save the bitmaps under those ids so the two files line up.
  std::unordered_map<RuleId, RuleId> rule_ids;
  std::unordered_map<PredicateId, PredicateId> predicate_ids;
  RuleId next_rid = 0;
  PredicateId next_pid = 0;
  for (const Rule& rule : fn.rules()) {
    rule_ids[rule.id()] = next_rid++;
    for (const Predicate& p : rule.predicates()) {
      predicate_ids[p.id] = next_pid++;
    }
  }
  EMDBG_RETURN_IF_ERROR(SaveMatchStateRemapped(
      inc_->state(), rule_ids, predicate_ids, StatePath(dir, next_epoch)));
  // Commit point: repoint the meta file at the fully-written epoch.
  EMDBG_RETURN_IF_ERROR(WriteFileAtomic(
      MetaPath(dir), StrFormat("EMDBGCK1 %llu\n",
                               static_cast<unsigned long long>(next_epoch))));
  if (epoch != 0) {
    std::error_code ec;
    std::filesystem::remove(FeaturesPath(dir, epoch), ec);
    std::filesystem::remove(RulesPath(dir, epoch), ec);
    std::filesystem::remove(StatePath(dir, epoch), ec);
  }
  return next_epoch;
}

Status DebugSession::WriteCheckpoint() {
  Result<uint64_t> epoch = WriteSnapshot(durability_dir_, epoch_);
  if (!epoch.ok()) return epoch.status();
  epoch_ = *epoch;
  // Fresh journal for the new epoch. If a crash lands between the meta
  // write and this, recovery sees an epoch-mismatched (stale) journal and
  // correctly ignores it — its edits are inside the checkpoint.
  journal_.reset();
  Result<std::unique_ptr<EditJournal>> journal =
      EditJournal::Create(JournalPath(durability_dir_), epoch_);
  if (!journal.ok()) return journal.status();
  journal_ = std::move(*journal);
  edits_since_checkpoint_ = 0;
  return Status::Ok();
}

Status DebugSession::Recover(const std::string& dir,
                             size_t checkpoint_every) {
  if (started_) {
    return Status::FailedPrecondition(
        "resume must happen before the first run");
  }
  // Any failure below rolls back to this pre-resume state, so a failed
  // recovery can be retried. (The catalog keeps features the checkpoint
  // interned; a retry re-interns them at the same ids.)
  std::unique_ptr<IncrementalMatcher> prior_inc = std::move(inc_);
  const MatchStats prior_last = last_stats_;
  const MatchStats prior_total = total_stats_;
  auto fail = [&](Status s) {
    inc_ = std::move(prior_inc);
    started_ = false;
    epoch_ = 0;
    history_.clear();
    rule_remap_.clear();
    predicate_remap_.clear();
    last_stats_ = prior_last;
    total_stats_ = prior_total;
    journal_.reset();
    durability_dir_.clear();
    return s;
  };
  if (Status s = ResumeSession(dir); !s.ok()) return fail(s);

  // Replay edits committed after the checkpoint. A missing journal means
  // nothing to replay; a journal from an older epoch was superseded by
  // the checkpoint (crash between the meta write and the journal reset)
  // and is ignored. Corruption before the final record is an error — the
  // torn-final-record case (crash mid-append) is tolerated because that
  // edit never committed.
  Result<EditJournal::Contents> journal =
      EditJournal::Read(JournalPath(dir));
  if (journal.ok()) {
    if (journal->epoch == epoch_) {
      for (const std::string& record : journal->records) {
        const Status s = ApplyEdit(record).status();
        if (s.ok()) continue;
        // A budget denial leaves the disk state intact and is retryable;
        // a record that does not apply means the journal is corrupt.
        if (s.code() == StatusCode::kResourceExhausted) return fail(s);
        return fail(Status::ParseError(StrFormat(
            "bad journal record '%s': %s", record.c_str(),
            s.message().c_str())));
      }
    }
  } else if (journal.status().code() != StatusCode::kIoError) {
    return fail(journal.status());
  }

  // Re-enable durability here: fold the replayed edits into a fresh
  // checkpoint and start a clean journal.
  durability_dir_ = dir;
  checkpoint_every_ = checkpoint_every;
  if (Status s = WriteCheckpoint(); !s.ok()) return fail(s);
  return Status::Ok();
}

}  // namespace emdbg
