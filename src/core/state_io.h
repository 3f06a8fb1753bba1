#ifndef EMDBG_CORE_STATE_IO_H_
#define EMDBG_CORE_STATE_IO_H_

#include <string>
#include <unordered_map>

#include "src/core/match_state.h"

namespace emdbg {

/// Binary persistence for materialized matching state — the memo of
/// similarity values plus the per-rule/per-predicate bitmaps. Session
/// checkpoints (DebugSession::SaveSession / EnableDurability) store it
/// next to the rule set, so an analyst can suspend a debugging session
/// and resume it later without recomputing anything, extending the
/// paper's Sec. 6 materialization across process lifetimes.
///
/// Current format, version 2 (crash-safe):
///   magic "EMDBGST2"
///   | header: num_pairs u64, num_features u64, crc32c u32
///   | memo floats (pairs x features, NaN = absent), crc32c u32
///   | matches bitmap words, crc32c u32
///   | rule-bitmap count u64, then per bitmap: id u32 + words; crc32c u32
///   | predicate-bitmap count u64, then per bitmap: id u32 + words;
///     crc32c u32
///
/// Each CRC-32C covers the bytes of its section, so truncation and
/// bit-level corruption are both detected at load time and reported as
/// ParseError instead of silently resuming from bad state. Files are
/// written atomically (temp + fsync + rename), so a crash mid-save leaves
/// the previous state intact.
///
/// Integers and floats are stored in the producing machine's native byte
/// order — all platforms this project targets are little-endian, and
/// state files are session-local scratch, not an exchange format. A
/// big-endian reader would fail the magic-adjacent CRC checks rather than
/// silently misread values.
///
/// Version-1 files ("EMDBGST1": same layout without checksums) are still
/// readable; saves always produce version 2.

Status SaveMatchState(const MatchState& state, const std::string& path);

/// As SaveMatchState, but rewrites the stable rule/predicate ids through
/// the given maps before writing; bitmaps whose id is absent from its map
/// are dropped (they belong to removed rules/predicates). Used by session
/// checkpointing: the checkpoint's rules file is re-parsed on recovery,
/// which assigns fresh dense ids in file order, so the state must be
/// saved under those ids for the two files to line up.
Status SaveMatchStateRemapped(
    const MatchState& state,
    const std::unordered_map<RuleId, RuleId>& rule_ids,
    const std::unordered_map<PredicateId, PredicateId>& predicate_ids,
    const std::string& path);

/// Loads a state written by SaveMatchState. Header dimensions are
/// validated against the actual file size (with overflow-safe
/// arithmetic) *before* any allocation, so a corrupt or hostile header
/// cannot trigger a huge allocation. The loaded state's stable
/// rule/predicate ids must correspond to the matching function the caller
/// restores alongside it. Re-parsed rules get dense ids in file order, so
/// a state saved next to a rule file must be saved through
/// SaveMatchStateRemapped whenever the live ids are not already dense.
Result<MatchState> LoadMatchState(const std::string& path);

}  // namespace emdbg

#endif  // EMDBG_CORE_STATE_IO_H_
