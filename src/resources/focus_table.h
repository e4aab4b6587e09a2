// FocusTable: an append-only interner turning canonical foci into dense
// 32-bit FocusIds.
//
// The Performance Consultant's refinement loop creates, dedupes, and
// compares foci at every candidate; as vectors of part strings that means
// re-hashing and re-copying long resource paths per candidate. The table
// stores each distinct focus once (one PartId per hierarchy) and memoizes
// the expensive derived forms — canonical name, parse result, refinement
// list — so SHG expansion and directive lookups become integer arithmetic.
// The Performance Consultant searches on FocusIds only. The string-based
// Focus operations remain for load-time text and results, and serve as
// the oracle the table's operations are tested against
// (tests/resources_test.cpp); the golden diagnoses
// (tests/data/golden_diagnoses.jsonl) pin the search built on them.
//
// Ownership and lifetime (see docs/architecture.md):
//  * The table snapshots the db's ResourceHierarchy pointers at
//    construction. The hierarchies must be fully built first and must
//    outlive the table; the ResourceDb object itself may move (its
//    hierarchies are heap-allocated and stable).
//  * The table is internally synchronized and strictly append-only: ids
//    are never invalidated, returned references (names, refinement lists)
//    are stable for the table's lifetime, and concurrent readers/interners
//    are safe — the parallel variant runner shares one table across
//    DiagnosisSession variants.
//
// "Foreign" parts: a probe focus can name a resource absent from the db
// (a hypothesis's implicit SyncObject scope, e.g. "/SyncObject/Message",
// when the trace recorded no such objects). Such parts get PartIds at or
// above kForeignPartBase, backed by a side string table; they have no
// children and contribute zero depth, exactly like the string path's
// find() == kNoResource handling.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "resources/focus.h"
#include "resources/resource_db.h"

namespace histpc::resources {

/// Dense id of an interned focus; stable for the table's lifetime.
using FocusId = std::int32_t;
inline constexpr FocusId kNoFocus = -1;

/// Id of one focus part within its hierarchy: the ResourceId for real
/// resources, >= kForeignPartBase for parts naming resources absent from
/// the db.
using PartId = std::int32_t;
inline constexpr PartId kNoPart = -1;
inline constexpr PartId kForeignPartBase = 1 << 30;

class FocusTable {
 public:
  /// Snapshots `db`'s hierarchies. The hierarchies must be fully built and
  /// must outlive the table (TraceView builds its db in its constructor
  /// and never grows it afterwards).
  explicit FocusTable(const ResourceDb& db);

  FocusTable(const FocusTable&) = delete;
  FocusTable& operator=(const FocusTable&) = delete;

  std::size_t num_hierarchies() const { return hiers_.size(); }

  /// The snapshotted (immutable) hierarchy for index `idx`.
  const ResourceHierarchy& hierarchy(std::size_t idx) const { return *hiers_.at(idx).tree; }

  /// The unconstrained focus (every part a hierarchy root); always id 0.
  FocusId whole_program() const { return 0; }

  /// Intern a string-based focus (one part per hierarchy, db order).
  /// Throws std::invalid_argument on a part-count mismatch.
  FocusId intern(const Focus& focus);

  /// The focus `id` with hierarchy `hierarchy_idx`'s part replaced —
  /// Focus::with_part without the string vector copy.
  FocusId with_part(FocusId id, std::size_t hierarchy_idx, PartId part);

  /// Focus::parse with resource validation, memoized by input text
  /// (successes only). Same acceptance, defaulting, and diagnostics as
  /// Focus::parse(text, db, /*validate_resources=*/true, error).
  std::optional<FocusId> parse(std::string_view text, std::string* error = nullptr);

  /// Canonical "<...>" name, built once per focus on first request. The
  /// reference is stable. Counted by names_built() so tests can assert
  /// counters-only searches never materialize names.
  const std::string& name(FocusId id) const;

  /// Materialize the string-based equivalent (for filter compilation and
  /// oracle comparisons). Does not build or count the canonical name.
  Focus to_focus(FocusId id) const;

  PartId part(FocusId id, std::size_t hierarchy_idx) const;

  /// PartId for a part full name, interning a foreign id if the resource
  /// is absent from the hierarchy.
  PartId part_id(std::size_t hierarchy_idx, std::string_view full_name);

  const std::string& part_name(std::size_t hierarchy_idx, PartId part) const;

  /// The underlying ResourceId, or kNoResource for foreign parts.
  static ResourceId part_resource(PartId part) {
    return part >= kForeignPartBase ? kNoResource : part;
  }

  /// Path depth below the hierarchy root ("/Code" = 0, "/Code/m" = 1),
  /// from the tree for real parts and from the name for foreign ones.
  int part_depth(std::size_t hierarchy_idx, PartId part) const;

  /// True when `outer`'s part name is a path prefix of `inner`'s
  /// (util::is_path_prefix semantics: equal or ancestor).
  bool part_within(std::size_t hierarchy_idx, PartId inner, PartId outer) const;

  /// All one-edge refinements of `id`, in Focus::refinements order
  /// (hierarchy order, child order). Built once; the reference is stable.
  const std::vector<FocusId>& refinements(FocusId id);

  bool is_whole_program(FocusId id) const;
  int total_depth(FocusId id) const;

  /// Focus::contains over ids: every part of `inner` equal to or below the
  /// corresponding part of `outer`.
  bool contains(FocusId outer, FocusId inner) const;

  /// Number of interned foci.
  std::size_t size() const;
  /// Number of canonical names materialized (telemetry: counters-only
  /// searches should keep this at zero until results are rendered).
  std::size_t names_built() const;

 private:
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct TransparentEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };

  struct Hier {
    const ResourceHierarchy* tree = nullptr;
    /// Foreign part names in id order (deque: stable references).
    std::deque<std::string> foreign_names;
    std::unordered_map<std::string, PartId, TransparentHash, TransparentEq> foreign_ids;
  };

  struct Entry {
    std::vector<PartId> parts;
    int total_depth = 0;
    bool whole = false;
    std::string name;  ///< canonical "<...>", built lazily
    bool name_built = false;
    std::vector<FocusId> refinements;
    bool refinements_built = false;
  };

  struct PartsHash {
    std::size_t operator()(const std::vector<PartId>& parts) const {
      std::size_t h = 0xcbf29ce484222325ull;
      for (PartId p : parts) {
        h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(p));
        h *= 0x100000001b3ull;
      }
      return h;
    }
  };

  // _locked helpers assume mu_ is held (the mutex is not recursive).
  FocusId intern_parts_locked(std::vector<PartId> parts);
  PartId part_id_locked(std::size_t hierarchy_idx, std::string_view full_name);
  const std::string& part_name_locked(std::size_t hierarchy_idx, PartId part) const;
  int part_depth_locked(std::size_t hierarchy_idx, PartId part) const;
  const Entry& entry(FocusId id) const;

  std::vector<Hier> hiers_;
  std::unordered_map<std::string, int, TransparentHash, TransparentEq> hier_index_;
  /// Arena: deque keeps Entry references stable across growth. Mutable so
  /// name() can memoize under the lock from const context.
  mutable std::deque<Entry> entries_;
  std::unordered_map<std::vector<PartId>, FocusId, PartsHash> dedup_;
  std::unordered_map<std::string, FocusId, TransparentHash, TransparentEq> parse_memo_;
  mutable std::size_t names_built_ = 0;
  /// One lock for every operation: all ops are short, and uniform locking
  /// keeps concurrent interning (parallel variant runs) strictly safe.
  mutable std::mutex mu_;
};

}  // namespace histpc::resources
