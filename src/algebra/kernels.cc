#include "algebra/kernels.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/memory.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "core/schema_inference.h"
#include "exec/spill/spill.h"
#include "expr/eval.h"
#include "relational/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "types/schema.h"

namespace nexus {
namespace algebra {

namespace {

void Count(const char* name) {
  telemetry::MetricsRegistry::Global().counter(name)->Increment();
}

// Typed key equality across two tables (no nulls in associative-array keys,
// but kept null-aware so the logic is identical to relational::HashJoin's).
bool PairKeysEqual(const Table& a, int64_t ar, const std::vector<int>& ac,
                   const Table& b, int64_t br, const std::vector<int>& bc) {
  for (size_t k = 0; k < ac.size(); ++k) {
    const Column& ca = a.column(ac[k]);
    const Column& cb = b.column(bc[k]);
    bool na = ca.IsNull(ar), nb = cb.IsNull(br);
    if (na || nb) return false;
    if (ca.type() == cb.type()) {
      switch (ca.type()) {
        case DataType::kInt64:
          if (ca.ints()[static_cast<size_t>(ar)] !=
              cb.ints()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
        case DataType::kFloat64:
          if (ca.doubles()[static_cast<size_t>(ar)] !=
              cb.doubles()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
        case DataType::kBool:
          if (ca.bools()[static_cast<size_t>(ar)] !=
              cb.bools()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
        case DataType::kString:
          if (ca.strings()[static_cast<size_t>(ar)] !=
              cb.strings()[static_cast<size_t>(br)]) {
            return false;
          }
          break;
      }
    } else if (ca.GetValue(ar) != cb.GetValue(br)) {
      return false;
    }
  }
  return true;
}

// Group-key equality with SQL semantics (nulls equal each other), matching
// relational::HashAggregate so LowerAggregate groups identically. Over
// associative arrays keys are never null, so this degrades to plain equality.
bool GroupKeysEqual(const Table& t, int64_t ar, int64_t br,
                    const std::vector<int>& cols) {
  for (int c : cols) {
    const Column& col = t.column(c);
    bool na = col.IsNull(ar), nb = col.IsNull(br);
    if (na != nb) return false;
    if (na) continue;
    if (col.GetValue(ar) != col.GetValue(br)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The shared ⊕-fold core. Normalize/Union/Reduce and LowerAggregate all run
// on this one implementation — the "write it once, not four times" payoff.
// ---------------------------------------------------------------------------

/// Per-(group, fold) accumulator. `+`-folds accumulate from the ring zero
/// (bit-identical to the engines' `acc = 0; acc += v` loops); min/max/or
/// folds seed from the first value (the engines' has-extreme seeding).
struct MonoidState {
  int64_t count = 0;  ///< non-null contributions (count_star: all rows)
  int64_t iacc = 0;
  double facc = 0.0;
  std::string sacc;
  bool seen = false;
};

/// One ⊕-fold over one input column.
struct FoldSpec {
  MonoidOp op = MonoidOp::kAdd;
  bool lift = false;        ///< fold ring-one per entry (COUNT-style rings)
  bool count_star = false;  ///< count every row, ignoring the input column
  int64_t one_i = 1;
  double one_f = 1.0;
};

Status FoldRow(const FoldSpec& f, const Column& c, int64_t r, MonoidState* st) {
  if (f.count_star) {
    ++st->count;
    return Status::OK();
  }
  if (c.IsNull(r)) return Status::OK();
  if (c.type() == DataType::kBool) {
    return Status::TypeError("cannot aggregate bool input");
  }
  ++st->count;
  if (f.lift) {
    if (f.op == MonoidOp::kAdd) {
      st->iacc += f.one_i;
      st->facc += f.one_f;
    } else {
      st->iacc = st->seen ? ApplyI(f.op, st->iacc, f.one_i) : f.one_i;
      st->facc = st->seen ? ApplyF(f.op, st->facc, f.one_f) : f.one_f;
    }
    st->seen = true;
    return Status::OK();
  }
  switch (c.type()) {
    case DataType::kInt64: {
      int64_t v = c.ints()[static_cast<size_t>(r)];
      if (f.op == MonoidOp::kAdd) {
        st->iacc += v;
        st->facc += static_cast<double>(v);  // engines track both sums
      } else {
        st->iacc = st->seen ? ApplyI(f.op, st->iacc, v) : v;
        st->facc = st->seen ? ApplyF(f.op, st->facc, static_cast<double>(v))
                            : static_cast<double>(v);
      }
      break;
    }
    case DataType::kFloat64: {
      double v = c.doubles()[static_cast<size_t>(r)];
      if (f.op == MonoidOp::kAdd) {
        st->facc += v;
      } else {
        st->facc = st->seen ? ApplyF(f.op, st->facc, v) : v;
      }
      break;
    }
    case DataType::kString: {
      const std::string& s = c.strings()[static_cast<size_t>(r)];
      // Strings extend the fold as an ordered monoid under min/max only;
      // other ops contribute count alone (matching the engine, whose
      // numeric sums simply stay zero for string inputs).
      if (f.op == MonoidOp::kMin) {
        if (!st->seen || s < st->sacc) st->sacc = s;
      } else if (f.op == MonoidOp::kMax) {
        if (!st->seen || s > st->sacc) st->sacc = s;
      }
      break;
    }
    case DataType::kBool:
      break;  // unreachable (checked above)
  }
  st->seen = true;
  return Status::OK();
}

/// One hash partition's fold state (the sequential path uses a single
/// partition covering every hash) — the shape of relational's AggPartition.
struct FoldPartition {
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  std::vector<int64_t> rep_row;
  std::vector<std::vector<MonoidState>> states;
};

/// Folds every row whose group hash satisfies (h & mask) == want into
/// `part`, scanning rows in ascending order — the determinism contract's
/// partition-by-hash ⊕: a group's rows all share one hash, so one partition
/// folds them in the same ascending order as the sequential pass.
Status AccumulateFold(const Table& input, const std::vector<int>& group_cols,
                      const std::vector<FoldSpec>& folds,
                      const std::vector<Column>& fold_inputs,
                      const std::vector<uint64_t>& hashes, uint64_t mask,
                      uint64_t want, FoldPartition* part) {
  for (int64_t r = 0; r < input.num_rows(); ++r) {
    uint64_t h = hashes[static_cast<size_t>(r)];
    if ((h & mask) != want) continue;
    std::vector<size_t>& bucket = part->buckets[h];
    size_t group = SIZE_MAX;
    for (size_t g : bucket) {
      if (GroupKeysEqual(input, part->rep_row[g], r, group_cols)) {
        group = g;
        break;
      }
    }
    if (group == SIZE_MAX) {
      group = part->states.size();
      bucket.push_back(group);
      part->rep_row.push_back(r);
      part->states.emplace_back(folds.size());
    }
    std::vector<MonoidState>& gs = part->states[group];
    for (size_t a = 0; a < folds.size(); ++a) {
      NEXUS_RETURN_NOT_OK(FoldRow(folds[a], fold_inputs[a], r, &gs[a]));
    }
  }
  return Status::OK();
}

struct GroupFoldOut {
  std::vector<int64_t> rep_row;
  std::vector<std::vector<MonoidState>> states;
};

// Out-of-core grouped ⊕-fold, the algebra twin of relational's spilled
// aggregation: Grace-partition a (keys + fold inputs) working table by group
// hash, fold each loaded partition with the ordinary sequential pass, and
// sort the merged groups by their global rep row. A group's rows share one
// hash, so one partition folds them all in ascending original-row order —
// the sequential ⊕ order — and the merge restores first-seen group order.
Result<GroupFoldOut> SpillGroupFold(const Table& input,
                                    const std::vector<int>& group_cols,
                                    const std::vector<FoldSpec>& folds,
                                    const std::vector<Column>& fold_inputs,
                                    const std::vector<uint64_t>& hashes) {
  std::vector<Field> wfields;
  std::vector<Column> wcols;
  std::vector<int> wgroup_cols;
  for (size_t g = 0; g < group_cols.size(); ++g) {
    Field f = input.schema()->field(group_cols[g]);
    f.is_dimension = false;
    wfields.push_back(std::move(f));
    wcols.push_back(input.column(group_cols[g]));
    wgroup_cols.push_back(static_cast<int>(g));
  }
  std::vector<int> fold_slot(folds.size(), -1);
  for (size_t a = 0; a < folds.size(); ++a) {
    if (folds[a].count_star) continue;  // never reads its column
    fold_slot[a] = static_cast<int>(wcols.size());
    wfields.push_back(Field::Attr(StrCat("__fold_", static_cast<int64_t>(a)),
                                  fold_inputs[a].type()));
    wcols.push_back(fold_inputs[a]);
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr wschema, Schema::Make(std::move(wfields)));
  NEXUS_ASSIGN_OR_RETURN(TablePtr working,
                         Table::Make(wschema, std::move(wcols)));

  spill::PartitionedSpiller::Options opts;
  opts.budget_bytes = spill::SpillBudgetBytes();
  opts.tag = "fold";
  opts.release_inputs = true;
  spill::PartitionedSpiller spiller(&spill::SpillManager::Global(), opts);

  std::vector<std::pair<int64_t, std::vector<MonoidState>>> groups;
  Status st = spiller.Run(
      {{working, &hashes}},
      [&](const std::vector<TablePtr>& parts) -> Status {
        const Table& wp = *parts[0];
        const auto& rows = wp.column(wp.num_columns() - 2).ints();
        const auto& hbits = wp.column(wp.num_columns() - 1).ints();
        std::vector<uint64_t> local_hashes;
        local_hashes.reserve(hbits.size());
        for (int64_t h : hbits) local_hashes.push_back(static_cast<uint64_t>(h));
        std::vector<Column> local_inputs;
        for (size_t a = 0; a < folds.size(); ++a) {
          local_inputs.push_back(fold_slot[a] < 0 ? Column(DataType::kInt64)
                                                  : wp.column(fold_slot[a]));
        }
        FoldPartition part;
        NEXUS_RETURN_NOT_OK(AccumulateFold(wp, wgroup_cols, folds,
                                           local_inputs, local_hashes, 0, 0,
                                           &part));
        for (size_t g = 0; g < part.states.size(); ++g) {
          groups.emplace_back(rows[static_cast<size_t>(part.rep_row[g])],
                              std::move(part.states[g]));
        }
        return Status::OK();
      });
  working.reset();
  NEXUS_RETURN_NOT_OK(st);
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  GroupFoldOut out;
  out.rep_row.reserve(groups.size());
  out.states.reserve(groups.size());
  for (auto& [row, gs] : groups) {
    out.rep_row.push_back(row);
    out.states.push_back(std::move(gs));
  }
  Count("algebra.spilled_folds");
  return out;
}

/// The full grouped ⊕-fold with relational::HashAggregate's exact parallel
/// skeleton: same hashes, same sequential-path condition, same pow-2
/// partition count, and the same rep_row sort restoring first-seen group
/// order — so anything built on this fold is byte-identical at any thread
/// count, and LowerAggregate is byte-identical to the engine it replaces.
Result<GroupFoldOut> GroupFold(const Table& input,
                               const std::vector<int>& group_cols,
                               const std::vector<FoldSpec>& folds,
                               const std::vector<Column>& fold_inputs) {
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> hashes,
                         relational::HashRows(input, group_cols));
  GroupFoldOut out;
  const int64_t n = input.num_rows();
  // Out-of-core path (mirrors relational::HashAggregate's spill branch).
  if (!group_cols.empty() && n > 0) {
    int64_t working_bytes = 0;
    for (int c : group_cols) working_bytes += input.column(c).ByteSize();
    for (const Column& c : fold_inputs) working_bytes += c.ByteSize();
    if (spill::ShouldSpill(working_bytes)) {
      return SpillGroupFold(input, group_cols, folds, fold_inputs, hashes);
    }
  }
  if (GetThreadCount() == 1 || group_cols.empty() || n < 2 * kMorselRows) {
    FoldPartition all;
    NEXUS_RETURN_NOT_OK(AccumulateFold(input, group_cols, folds, fold_inputs,
                                       hashes, 0, 0, &all));
    out.rep_row = std::move(all.rep_row);
    out.states = std::move(all.states);
    return out;
  }
  int parts = 1;
  while (parts < GetThreadCount() && parts < 64) parts *= 2;
  const uint64_t mask = static_cast<uint64_t>(parts - 1);
  std::vector<FoldPartition> partitions(static_cast<size_t>(parts));
  std::vector<Status> statuses(static_cast<size_t>(parts), Status::OK());
  ParallelFor(parts, 1, [&](int64_t pb, int64_t pe) {
    for (int64_t p = pb; p < pe; ++p) {
      statuses[static_cast<size_t>(p)] =
          AccumulateFold(input, group_cols, folds, fold_inputs, hashes, mask,
                         static_cast<uint64_t>(p),
                         &partitions[static_cast<size_t>(p)]);
    }
  });
  for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);
  struct GroupRef {
    int64_t row;
    int part;
    size_t idx;
  };
  std::vector<GroupRef> order;
  size_t total = 0;
  for (const FoldPartition& p : partitions) total += p.states.size();
  order.reserve(total);
  for (int p = 0; p < parts; ++p) {
    const FoldPartition& part = partitions[static_cast<size_t>(p)];
    for (size_t g = 0; g < part.states.size(); ++g) {
      order.push_back({part.rep_row[g], p, g});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const GroupRef& a, const GroupRef& b) { return a.row < b.row; });
  out.rep_row.reserve(total);
  out.states.reserve(total);
  for (const GroupRef& gr : order) {
    out.rep_row.push_back(gr.row);
    out.states.push_back(
        std::move(partitions[static_cast<size_t>(gr.part)].states[gr.idx]));
  }
  return out;
}

// Out-of-core ⊗-join pair computation — the algebra twin of relational's
// spilled HashJoin: partition both sides by key hash, build/probe each
// partition in memory, and sort the merged pairs of original entry indices
// by (a, b). The in-memory probe emits pairs in exactly that lexicographic
// order (a-entries ascending, each probing one ascending bucket chain), so
// the sorted pairs — and everything gathered from them — are bit-identical.
Status SpillJoinPairs(const TablePtr& ta_ptr, const TablePtr& tb_ptr,
                      const std::vector<uint64_t>& ah,
                      const std::vector<uint64_t>& bh,
                      const std::vector<int>& ak, const std::vector<int>& bk,
                      std::vector<int64_t>* li, std::vector<int64_t>* ri,
                      telemetry::SpanGuard* span) {
  spill::PartitionedSpiller::Options opts;
  opts.budget_bytes = spill::SpillBudgetBytes();
  opts.tag = "alg-join";
  spill::PartitionedSpiller spiller(&spill::SpillManager::Global(), opts);
  std::vector<std::pair<int64_t, int64_t>> pairs;
  ScopedCharge pair_charge;
  Status st = spiller.Run(
      {{ta_ptr, &ah}, {tb_ptr, &bh}},
      [&](const std::vector<TablePtr>& parts) -> Status {
        const Table& ap = *parts[0];
        const Table& bp = *parts[1];
        const auto& arows = ap.column(ap.num_columns() - 2).ints();
        const auto& ahash = ap.column(ap.num_columns() - 1).ints();
        const auto& brows = bp.column(bp.num_columns() - 2).ints();
        const auto& bhash = bp.column(bp.num_columns() - 1).ints();
        ScopedCharge build_charge;
        build_charge.Add(bp.num_rows() * 48);
        std::unordered_map<uint64_t, std::vector<int64_t>> table;
        table.reserve(static_cast<size_t>(bp.num_rows()) + 1);
        for (int64_t r = 0; r < bp.num_rows(); ++r) {
          table[static_cast<uint64_t>(bhash[static_cast<size_t>(r)])].push_back(r);
        }
        size_t before = pairs.size();
        for (int64_t l = 0; l < ap.num_rows(); ++l) {
          auto it = table.find(static_cast<uint64_t>(ahash[static_cast<size_t>(l)]));
          if (it == table.end()) continue;
          for (int64_t r : it->second) {
            if (PairKeysEqual(ap, l, ak, bp, r, bk)) {
              pairs.emplace_back(arows[static_cast<size_t>(l)],
                                 brows[static_cast<size_t>(r)]);
            }
          }
        }
        pair_charge.Add(static_cast<int64_t>(pairs.size() - before) * 16);
        return Status::OK();
      });
  NEXUS_RETURN_NOT_OK(st);
  std::sort(pairs.begin(), pairs.end());
  li->reserve(pairs.size());
  ri->reserve(pairs.size());
  for (const auto& [l, r] : pairs) {
    li->push_back(l);
    ri->push_back(r);
  }
  Count("algebra.spilled_joins");
  span->AddCounter("spill_partitions", spiller.stats().partitions);
  span->AddCounter("spill_bytes", spiller.stats().bytes_spilled);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Ext
// ---------------------------------------------------------------------------

Result<AssocArray> Ext(const AssocArray& a, const std::vector<Field>& out_keys,
                       const Field& out_value, const ExtFn& fn) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Ext");
  span.AddCounter("entries_in", a.num_entries());
  Count("algebra.ext");
  if (out_keys.empty()) {
    return Status::InvalidArgument("Ext output needs >= 1 key");
  }
  const int64_t n = a.num_entries();
  const int64_t grain = kMorselRows;
  const size_t morsels = static_cast<size_t>((n + grain - 1) / grain);
  using Emitted = std::pair<std::vector<Value>, Value>;
  std::vector<std::vector<Emitted>> parts(std::max<size_t>(morsels, 1));
  std::vector<Status> statuses(std::max<size_t>(morsels, 1), Status::OK());
  ParallelFor(n, grain, [&](int64_t b, int64_t e) {
    std::vector<Emitted>& out = parts[static_cast<size_t>(b / grain)];
    Status& st = statuses[static_cast<size_t>(b / grain)];
    std::vector<Value> keys(static_cast<size_t>(a.num_keys()));
    auto emit = [&out](std::vector<Value> ks, Value v) {
      out.emplace_back(std::move(ks), std::move(v));
    };
    for (int64_t r = b; r < e; ++r) {
      for (int i = 0; i < a.num_keys(); ++i) {
        keys[static_cast<size_t>(i)] = a.key_column(i).GetValue(r);
      }
      st = fn(keys, a.value_column().GetValue(r), emit);
      if (!st.ok()) return;
    }
  });
  for (const Status& s : statuses) NEXUS_RETURN_NOT_OK(s);

  std::vector<Field> fields = out_keys;
  fields.push_back(out_value);
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  std::vector<Column> cols;
  for (int c = 0; c < schema->num_fields(); ++c) {
    cols.emplace_back(schema->field(c).type);
  }
  // Merge emitted entries in morsel order: output order is entry order.
  for (const std::vector<Emitted>& part : parts) {
    for (const Emitted& em : part) {
      if (em.first.size() != out_keys.size()) {
        return Status::InvalidArgument("Ext emitted wrong key count");
      }
      for (size_t k = 0; k < em.first.size(); ++k) {
        NEXUS_RETURN_NOT_OK(cols[k].Append(em.first[k]));
      }
      NEXUS_RETURN_NOT_OK(cols[out_keys.size()].Append(em.second));
    }
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(cols)));
  span.AddCounter("entries", t->num_rows());
  return AssocArray::Wrap(std::move(t), static_cast<int>(out_keys.size()));
}

Result<AssocArray> ExtProject(const AssocArray& a,
                              const std::vector<std::string>& keep_keys) {
  Count("algebra.ext");
  if (keep_keys.empty()) {
    return Status::InvalidArgument("ExtProject needs >= 1 kept key");
  }
  std::vector<Field> fields;
  std::vector<Column> cols;
  for (const std::string& k : keep_keys) {
    int i = a.FindKey(k);
    if (i < 0) return Status::PlanError(StrCat("unknown key '", k, "'"));
    fields.push_back(a.table()->schema()->field(i));
    cols.push_back(a.key_column(i));
  }
  fields.push_back(a.table()->schema()->field(a.num_keys()));
  cols.push_back(a.value_column());
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(cols)));
  return AssocArray::Wrap(std::move(t), static_cast<int>(keep_keys.size()));
}

// ---------------------------------------------------------------------------
// Join
// ---------------------------------------------------------------------------

Result<AssocArray> Join(const AssocArray& a, const AssocArray& b,
                        const Semiring& sr) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Join");
  span.AddCounter("entries_left", a.num_entries());
  span.AddCounter("entries_right", b.num_entries());
  Count("algebra.join");

  // Shared keys, in a's key order; b's remaining keys pass through.
  std::vector<int> ak, bk;
  std::vector<int> b_extra;
  for (int i = 0; i < a.num_keys(); ++i) {
    int j = b.FindKey(a.key_name(i));
    if (j >= 0) {
      ak.push_back(i);
      bk.push_back(j);
    }
  }
  if (ak.empty()) {
    return Status::InvalidArgument("Join requires >= 1 shared key attribute");
  }
  for (int j = 0; j < b.num_keys(); ++j) {
    if (std::find(bk.begin(), bk.end(), j) == bk.end()) b_extra.push_back(j);
  }

  const Table& ta = *a.table();
  const Table& tb = *b.table();
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> ah, relational::HashRows(ta, ak));
  NEXUS_ASSIGN_OR_RETURN(std::vector<uint64_t> bh, relational::HashRows(tb, bk));
  const int64_t na = ta.num_rows();
  const int64_t nb = tb.num_rows();

  std::vector<int64_t> li, ri;
  ScopedCharge working_set;  // released when the join returns
  const int64_t grain = kMorselRows;
  // Out-of-core path: Grace-partition both sides when the build-side
  // working set would cross the query's budget.
  if (nb > 0 && spill::ShouldSpill(ta.ByteSize() + tb.ByteSize() + nb * 48)) {
    NEXUS_RETURN_NOT_OK(
        SpillJoinPairs(a.table(), b.table(), ah, bh, ak, bk, &li, &ri, &span));
  } else {
    // Partitioned build on b (ascending bucket chains), morsel-order probe of
    // a — the HashJoin determinism recipe: pair order is a-entry order with
    // matches in b-entry order, independent of the thread count.
    int parts = 1;
    while (parts < GetThreadCount() && parts < 64) parts *= 2;
    const uint64_t mask = static_cast<uint64_t>(parts - 1);
    working_set.Add(nb * 48);
    std::vector<std::unordered_map<uint64_t, std::vector<int64_t>>> tables(
        static_cast<size_t>(parts));
    ParallelFor(parts, 1, [&](int64_t pb, int64_t pe) {
      for (int64_t p = pb; p < pe; ++p) {
        auto& table = tables[static_cast<size_t>(p)];
        table.reserve(static_cast<size_t>(nb / parts + 1));
        for (int64_t r = 0; r < nb; ++r) {
          uint64_t h = bh[static_cast<size_t>(r)];
          if ((h & mask) != static_cast<uint64_t>(p)) continue;
          table[h].push_back(r);
        }
      }
    });

    const size_t morsels = static_cast<size_t>((na + grain - 1) / grain);
    std::vector<std::vector<int64_t>> lparts(std::max<size_t>(morsels, 1));
    std::vector<std::vector<int64_t>> rparts(std::max<size_t>(morsels, 1));
    ParallelFor(na, grain, [&](int64_t bgn, int64_t end) {
      std::vector<int64_t>& lo = lparts[static_cast<size_t>(bgn / grain)];
      std::vector<int64_t>& ro = rparts[static_cast<size_t>(bgn / grain)];
      for (int64_t l = bgn; l < end; ++l) {
        uint64_t h = ah[static_cast<size_t>(l)];
        const auto& table = tables[static_cast<size_t>(h & mask)];
        auto it = table.find(h);
        if (it == table.end()) continue;
        for (int64_t r : it->second) {
          if (PairKeysEqual(ta, l, ak, tb, r, bk)) {
            lo.push_back(l);
            ro.push_back(r);
          }
        }
      }
    });
    size_t total = 0;
    for (const auto& p : lparts) total += p.size();
    working_set.Add(static_cast<int64_t>(total) * 16);
    li.reserve(total);
    ri.reserve(total);
    for (size_t m = 0; m < lparts.size(); ++m) {
      li.insert(li.end(), lparts[m].begin(), lparts[m].end());
      ri.insert(ri.end(), rparts[m].begin(), rparts[m].end());
    }
  }

  // Output schema: a's keys, b's non-shared keys, then the ⊗ value.
  std::vector<Field> fields;
  for (int i = 0; i < a.num_keys(); ++i) {
    fields.push_back(ta.schema()->field(i));
  }
  for (int j : b_extra) {
    Field f = tb.schema()->field(j);
    f.is_dimension = false;
    fields.push_back(f);
  }
  const Column& va = a.value_column();
  const Column& vb = b.value_column();
  const DataType vt =
      (va.type() == DataType::kInt64 && vb.type() == DataType::kInt64)
          ? DataType::kInt64
          : DataType::kFloat64;
  const std::string vname =
      a.value_name() == b.value_name()
          ? a.value_name()
          : StrCat(a.value_name(), "_", b.value_name());
  fields.push_back(Field::Attr(vname, vt));
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));

  std::vector<Column> out_cols;
  for (int i = 0; i < a.num_keys(); ++i) {
    out_cols.push_back(ta.column(i).Take(li));
  }
  for (int j : b_extra) {
    out_cols.push_back(tb.column(j).Take(ri));
  }
  // ⊗-combine the paired values (each morsel owns disjoint slots).
  const int64_t npairs = static_cast<int64_t>(li.size());
  if (vt == DataType::kInt64) {
    std::vector<int64_t> vals(static_cast<size_t>(npairs));
    ParallelFor(npairs, grain, [&](int64_t bgn, int64_t end) {
      for (int64_t p = bgn; p < end; ++p) {
        int64_t x = sr.lift
                        ? ApplyI(sr.times, sr.one_i, sr.one_i)
                        : ApplyI(sr.times,
                                 va.ints()[static_cast<size_t>(
                                     li[static_cast<size_t>(p)])],
                                 vb.ints()[static_cast<size_t>(
                                     ri[static_cast<size_t>(p)])]);
        vals[static_cast<size_t>(p)] = x;
      }
    });
    out_cols.push_back(Column::FromInt64(std::move(vals)));
  } else {
    auto load = [](const Column& c, int64_t r) {
      return c.type() == DataType::kInt64
                 ? static_cast<double>(c.ints()[static_cast<size_t>(r)])
                 : c.doubles()[static_cast<size_t>(r)];
    };
    std::vector<double> vals(static_cast<size_t>(npairs));
    ParallelFor(npairs, grain, [&](int64_t bgn, int64_t end) {
      for (int64_t p = bgn; p < end; ++p) {
        double x = sr.lift
                       ? ApplyF(sr.times, sr.one_f, sr.one_f)
                       : ApplyF(sr.times, load(va, li[static_cast<size_t>(p)]),
                                load(vb, ri[static_cast<size_t>(p)]));
        vals[static_cast<size_t>(p)] = x;
      }
    });
    out_cols.push_back(Column::FromFloat64(std::move(vals)));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr t, Table::Make(schema, std::move(out_cols)));
  span.AddCounter("entries", t->num_rows());
  return AssocArray::Wrap(std::move(t),
                          a.num_keys() + static_cast<int>(b_extra.size()));
}

// ---------------------------------------------------------------------------
// Union / Normalize / Reduce
// ---------------------------------------------------------------------------

Result<AssocArray> Normalize(const AssocArray& a, const Semiring& sr) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Normalize");
  span.AddCounter("entries_in", a.num_entries());
  Count("algebra.normalize");
  std::vector<int> group_cols;
  for (int i = 0; i < a.num_keys(); ++i) group_cols.push_back(i);
  std::vector<FoldSpec> folds(1);
  folds[0].op = sr.plus;
  folds[0].lift = sr.lift;
  folds[0].one_i = sr.one_i;
  folds[0].one_f = sr.one_f;
  std::vector<Column> inputs = {a.value_column()};
  NEXUS_ASSIGN_OR_RETURN(GroupFoldOut folded,
                         GroupFold(*a.table(), group_cols, folds, inputs));
  std::vector<Column> out_cols;
  for (int c : group_cols) {
    out_cols.push_back(a.table()->column(c).Take(folded.rep_row));
  }
  Column vcol(a.value_type());
  vcol.Reserve(static_cast<int64_t>(folded.states.size()));
  for (const auto& gs : folded.states) {
    if (a.value_type() == DataType::kInt64) {
      vcol.AppendInt64(gs[0].iacc);
    } else {
      vcol.AppendFloat64(gs[0].facc);
    }
  }
  out_cols.push_back(std::move(vcol));
  NEXUS_ASSIGN_OR_RETURN(
      TablePtr t, Table::Make(a.table()->schema(), std::move(out_cols)));
  span.AddCounter("entries", t->num_rows());
  return AssocArray::Wrap(std::move(t), a.num_keys());
}

Result<AssocArray> Union(const AssocArray& a, const AssocArray& b,
                         const Semiring& sr) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Union");
  Count("algebra.union");
  if (a.num_keys() != b.num_keys()) {
    return Status::TypeError("Union key-arity mismatch");
  }
  for (int i = 0; i < a.num_keys(); ++i) {
    if (a.key_name(i) != b.key_name(i) ||
        a.key_column(i).type() != b.key_column(i).type()) {
      return Status::TypeError(
          StrCat("Union key mismatch at position ", i));
    }
  }
  if (a.value_type() != b.value_type()) {
    return Status::TypeError("Union value-type mismatch");
  }
  // Concatenate a then b (a's names win), then ⊕-collapse: entries of `a`
  // fold before entries of `b` within each shared key.
  std::vector<Column> cols = a.table()->columns();
  for (size_t c = 0; c < cols.size(); ++c) {
    NEXUS_RETURN_NOT_OK(cols[c].AppendColumn(b.table()->column(static_cast<int>(c))));
  }
  NEXUS_ASSIGN_OR_RETURN(TablePtr both,
                         Table::Make(a.table()->schema(), std::move(cols)));
  NEXUS_ASSIGN_OR_RETURN(AssocArray wrapped,
                         AssocArray::Wrap(std::move(both), a.num_keys()));
  return Normalize(wrapped, sr);
}

Result<AssocArray> Reduce(const AssocArray& a,
                          const std::vector<std::string>& keep_keys,
                          const Semiring& sr) {
  NEXUS_ASSIGN_OR_RETURN(AssocArray projected, ExtProject(a, keep_keys));
  return Normalize(projected, sr);
}

// ---------------------------------------------------------------------------
// Lowering: relational aggregation
// ---------------------------------------------------------------------------

bool AggregateLowerable(const AggregateOp& spec) {
  for (const AggSpec& a : spec.aggs) {
    switch (a.func) {
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kCount:
        break;
      case AggFunc::kAvg:
        return false;  // a quotient of folds, not a single monoid fold
    }
  }
  return true;
}

Result<TablePtr> LowerAggregate(const TablePtr& input,
                                const AggregateOp& spec) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "alg.Agg");
  span.AddCounter("rows_in", input->num_rows());
  Count("algebra.agg_lowered");
  Count("algebra.ops_lowered");
  std::vector<int> group_cols;
  for (const std::string& g : spec.group_by) {
    NEXUS_ASSIGN_OR_RETURN(int i, input->schema()->FindFieldOrError(g));
    group_cols.push_back(i);
  }
  // Pre-evaluate aggregate inputs (identical to the engine's).
  std::vector<Column> agg_inputs;
  std::vector<DataType> agg_types;
  std::vector<FoldSpec> folds;
  for (const AggSpec& a : spec.aggs) {
    FoldSpec f;
    switch (a.func) {
      case AggFunc::kSum:
        f.op = MonoidOp::kAdd;
        break;
      case AggFunc::kMin:
        f.op = MonoidOp::kMin;
        break;
      case AggFunc::kMax:
        f.op = MonoidOp::kMax;
        break;
      case AggFunc::kCount:
        // COUNT is the lifted ring: ⊕-fold ring-one per non-null entry
        // (count(*): per row).
        f.op = MonoidOp::kAdd;
        f.lift = true;
        break;
      case AggFunc::kAvg:
        return Status::PlanError("avg is not semi-ring lowerable");
    }
    if (a.input != nullptr) {
      NEXUS_ASSIGN_OR_RETURN(Column c, EvalExprVector(*a.input, *input));
      agg_types.push_back(c.type());
      agg_inputs.push_back(std::move(c));
    } else {
      if (a.func != AggFunc::kCount) {
        return Status::PlanError("only count may omit its input expression");
      }
      f.count_star = true;
      agg_types.push_back(DataType::kInt64);
      agg_inputs.emplace_back(DataType::kInt64);
    }
    folds.push_back(f);
  }
  NEXUS_ASSIGN_OR_RETURN(GroupFoldOut folded,
                         GroupFold(*input, group_cols, folds, agg_inputs));
  std::vector<int64_t> rep_row = std::move(folded.rep_row);
  std::vector<std::vector<MonoidState>> states = std::move(folded.states);
  // SQL semantics: a global aggregate over empty input yields one row.
  if (group_cols.empty() && states.empty()) {
    rep_row.push_back(0);  // unused: no group columns to gather
    states.emplace_back(spec.aggs.size());
  }
  std::vector<Field> fields;
  for (int c : group_cols) fields.push_back(input->schema()->field(c));
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    NEXUS_ASSIGN_OR_RETURN(DataType t,
                           AggResultType(spec.aggs[a].func, agg_types[a]));
    fields.push_back(Field::Attr(spec.aggs[a].output_name, t));
  }
  NEXUS_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  std::vector<Column> out_cols;
  for (int c : group_cols) out_cols.push_back(input->column(c).Take(rep_row));
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    Column col(schema->field(static_cast<int>(group_cols.size() + a)).type);
    col.Reserve(static_cast<int64_t>(states.size()));
    const DataType in = agg_types[a];
    for (const auto& gs : states) {
      const MonoidState& st = gs[a];
      Value v = Value::Null();
      switch (spec.aggs[a].func) {
        case AggFunc::kCount:
          v = Value::Int64(st.count);
          break;
        case AggFunc::kSum:
          if (st.count == 0) break;
          v = in == DataType::kInt64 ? Value::Int64(st.iacc)
                                     : Value::Float64(st.facc);
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          if (st.count == 0) break;
          if (in == DataType::kString) {
            v = Value::String(st.sacc);
          } else {
            v = in == DataType::kInt64 ? Value::Int64(st.iacc)
                                       : Value::Float64(st.facc);
          }
          break;
        case AggFunc::kAvg:
          return Status::Internal("unreachable: avg not lowerable");
      }
      NEXUS_RETURN_NOT_OK(col.Append(v));
    }
    out_cols.push_back(std::move(col));
  }
  return Table::Make(schema, std::move(out_cols));
}

}  // namespace algebra
}  // namespace nexus
