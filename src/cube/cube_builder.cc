#include "cube/cube_builder.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace seda::cube {

namespace {

std::string LastLabel(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// How one key component evaluates under the columnar scan. The planner only
/// assigns a column kind when the column probe provably reproduces the tree
/// walk — same value, same single-valued/missing trichotomy, same error
/// string — so extraction stays byte-identical with columns on or off.
struct ComponentPlan {
  enum class Kind {
    kTree,      ///< no covering column; per-node tree walk
    kAbsolute,  ///< absolute path with a column: whole-document singleton
    kSelf,      ///< pure "." at a columnized context: the context row itself
    kStep,      ///< "..^k name" at a columnized context: Dewey-prefix probe
  };
  Kind kind = Kind::kTree;
  const column::Column* col = nullptr;  ///< target column (kAbsolute/kStep)
  size_t prefix_len = 0;                ///< kStep: context components kept
  const KeyPath* kp = nullptr;
  std::string step_name;                ///< kStep: final name (error strings)
};

struct KeyPlan {
  /// Column over the binding's context path; a per-tuple row hit here both
  /// proves the context node exists (so the relative probes are sound) and
  /// supplies the measure value. Null => relative components walk the tree.
  const column::Column* ctx_col = nullptr;
  std::vector<ComponentPlan> components;
};

/// Compiles one (context, key) binding against the column set. Guards that
/// force kTree, in declaration order: no columns at all; no column over the
/// component's target path; a relative form other than "..^k name" (inner
/// name steps carry their own uniqueness checks); ".." underflow past the
/// root; a step name starting with '@' (the tree walk
/// matches children by element/attribute *name*, which never carries '@');
/// and an attribute-shadow path (parent + "/@" + name exists somewhere in
/// the collection — such attribute children are counted by the tree walk's
/// duplicate check but are not rows of the element column).
KeyPlan PlanKey(const column::ColumnStore* columns,
                const store::PathDictionary& dict,
                const ContextBinding& binding) {
  KeyPlan plan;
  const column::Column* ctx_col =
      columns != nullptr ? columns->Find(binding.context) : nullptr;
  plan.ctx_col = ctx_col;
  const std::vector<std::string> ctx_labels =
      SplitSkipEmpty(binding.context, '/');
  plan.components.reserve(binding.key.paths().size());
  for (const KeyPath& kp : binding.key.paths()) {
    ComponentPlan cp;
    cp.kp = &kp;
    plan.components.push_back(cp);
    ComponentPlan& out = plan.components.back();
    if (columns == nullptr) continue;
    if (kp.absolute) {
      const column::Column* col = columns->Find(kp.text);
      if (col != nullptr) {
        out.kind = ComponentPlan::Kind::kAbsolute;
        out.col = col;
      }
      continue;
    }
    if (ctx_col == nullptr) continue;
    size_t ups = 0;
    std::string name;
    bool plain = true;
    for (const std::string& step : SplitSkipEmpty(kp.text, '/')) {
      if (step == ".") continue;
      if (!name.empty()) {  // anything after the name step
        plain = false;
        break;
      }
      if (step == "..") {
        ++ups;
      } else {
        name = step;
      }
    }
    if (!plain || ups >= ctx_labels.size()) continue;
    if (name.empty()) {
      // "..^k" alone: k == 0 is the context node itself; k > 0 targets an
      // ancestor, whose concatenated content no leaf column carries.
      if (ups == 0) out.kind = ComponentPlan::Kind::kSelf;
      continue;
    }
    if (name[0] == '@') continue;
    std::string parent_path;
    for (size_t i = 0; i + ups < ctx_labels.size(); ++i) {
      parent_path += "/" + ctx_labels[i];
    }
    if (dict.Find(parent_path + "/@" + name) != store::kInvalidPathId) {
      continue;
    }
    const column::Column* col = columns->Find(parent_path + "/" + name);
    if (col == nullptr) continue;
    out.kind = ComponentPlan::Kind::kStep;
    out.col = col;
    out.prefix_len = ctx_labels.size() - ups;
    out.step_name = name;
  }
  return plan;
}

}  // namespace

std::string Table::ToString() const {
  std::vector<size_t> widths(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w > s.size() ? w - s.size() : 0, ' ');
  };
  std::string out = name + ":\n";
  for (size_t c = 0; c < columns.size(); ++c) {
    out += (c ? " | " : "  ") + pad(columns[c], widths[c]);
  }
  out += "\n";
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += (c ? " | " : "  ") + pad(row[c], widths[c]);
    }
    out += "\n";
  }
  return out;
}

std::string StarSchema::ToString() const {
  std::string out;
  for (const Table& t : fact_tables) out += t.ToString() + "\n";
  for (const Table& t : dimension_tables) out += t.ToString() + "\n";
  for (const std::string& w : warnings) out += "warning: " + w + "\n";
  return out;
}

Result<StarSchema> CubeBuilder::Build(const twig::CompleteResult& result,
                                      const Options& options) const {
  StarSchema schema;
  if (result.tuples.empty()) {
    return Status::FailedPrecondition("empty result set; nothing to cube");
  }
  const store::PathDictionary& dict = store_->paths();
  const size_t m = result.tuples.front().nodes.size();

  // ---- Step 1: matching ----
  obs::ScopedSpan match_span(options.trace, "cube_match");
  std::vector<std::vector<std::string>> column_paths(m);
  for (size_t c = 0; c < m; ++c) {
    std::set<std::string> distinct;
    for (const twig::ResultTuple& tuple : result.tuples) {
      if (tuple.paths[c] != store::kInvalidPathId) {
        distinct.insert(dict.PathString(tuple.paths[c]));
      }
    }
    column_paths[c].assign(distinct.begin(), distinct.end());
  }

  struct FactColumn {
    size_t column;
    const CatalogEntry* fact;
  };
  std::vector<FactColumn> fact_columns;
  std::map<std::string, size_t> dim_source_column;  // dimension name -> column

  for (size_t c = 0; c < m; ++c) {
    ColumnMatch match;
    match.column = c;
    match.paths = column_paths[c];

    auto facts = catalog_->MatchFacts(column_paths[c]);
    auto dims = catalog_->MatchDimensions(column_paths[c]);
    if (!facts.empty()) {
      match.matched_name = facts.front()->name;
      match.is_fact = true;
      fact_columns.push_back({c, facts.front()});
      if (facts.size() > 1) {
        schema.warnings.push_back("column " + std::to_string(c) +
                                  " matches multiple facts; using '" +
                                  facts.front()->name + "'");
      }
    } else if (!dims.empty()) {
      match.matched_name = dims.front()->name;
      dim_source_column.emplace(dims.front()->name, c);
      if (dims.size() > 1) {
        schema.warnings.push_back("column " + std::to_string(c) +
                                  " matches multiple dimensions; using '" +
                                  dims.front()->name + "'");
      }
    } else {
      match.ignored = true;
      for (const CatalogEntry* partial : catalog_->PartialFacts(column_paths[c])) {
        match.partial_matches.push_back(partial->name);
      }
      for (const CatalogEntry* partial :
           catalog_->PartialDimensions(column_paths[c])) {
        match.partial_matches.push_back(partial->name);
      }
      if (!match.partial_matches.empty()) {
        // The paper issues a warning so the user can check the context list.
        schema.warnings.push_back(
            "column " + std::to_string(c) +
            " only partially matches: " + Join(match.partial_matches, ", ") +
            "; verify the chosen contexts or define a new fact/dimension");
      } else {
        schema.warnings.push_back("column " + std::to_string(c) +
                                  " matches no fact or dimension; ignored");
      }
    }
    schema.matches.push_back(std::move(match));
  }

  match_span.End();

  // ---- Step 2: augmentation (manual adds/removes) ---- (the spans close
  // via RAII on the early-return error paths.)
  obs::ScopedSpan augment_span(options.trace, "cube_augment");
  for (const std::string& name : options.add_facts) {
    const CatalogEntry* fact = catalog_->FindFact(name);
    if (fact == nullptr) return Status::NotFound("unknown fact '" + name + "'");
    // Added facts must still be anchored to a column; require one whose paths
    // the fact covers.
    bool anchored = false;
    for (size_t c = 0; c < m && !anchored; ++c) {
      if (fact->CoversAll(column_paths[c])) {
        fact_columns.push_back({c, fact});
        anchored = true;
      }
    }
    if (!anchored) {
      return Status::FailedPrecondition("fact '" + name +
                                        "' matches no result column");
    }
  }
  std::erase_if(fact_columns, [&](const FactColumn& fc) {
    return std::find(options.remove_facts.begin(), options.remove_facts.end(),
                     fc.fact->name) != options.remove_facts.end();
  });
  if (fact_columns.empty()) {
    return Status::FailedPrecondition(
        "no fact identified in the result; define one from a result column");
  }

  augment_span.End();

  // ---- Step 3: extraction ----
  obs::ScopedSpan extract_span(options.trace, "cube_extract");
  std::map<const ContextBinding*, KeyPlan> plans;
  auto plan_for = [&](const ContextBinding* binding) -> const KeyPlan& {
    auto it = plans.find(binding);
    if (it == plans.end()) {
      it = plans.emplace(binding, PlanKey(columns_, dict, *binding)).first;
    }
    return it->second;
  };
  struct BuiltFact {
    const CatalogEntry* fact;
    Table table;
    std::vector<std::string> key_names;  // resolved dimension/column names
  };
  std::vector<BuiltFact> built;
  std::set<std::string> final_dimensions;
  for (const auto& [name, column] : dim_source_column) final_dimensions.insert(name);
  for (const std::string& name : options.add_dimensions) {
    if (catalog_->FindDimension(name) == nullptr) {
      return Status::NotFound("unknown dimension '" + name + "'");
    }
    final_dimensions.insert(name);
  }

  for (const FactColumn& fc : fact_columns) {
    BuiltFact bf;
    bf.fact = fc.fact;

    // Key arity must agree across this fact's context bindings.
    size_t arity = fc.fact->context_list.front().key.size();
    for (const ContextBinding& binding : fc.fact->context_list) {
      if (binding.key.size() != arity) {
        return Status::FailedPrecondition("fact '" + fc.fact->name +
                                          "' has bindings with differing key arity");
      }
    }

    // Column names for key components: prefer the dimension whose context
    // list contains the resolved target path (this is how the paper's year
    // dimension joins the output automatically).
    const ContextBinding& first_binding = fc.fact->context_list.front();
    std::vector<std::string> targets =
        first_binding.key.ResolveTargetPaths(first_binding.context);
    for (const std::string& target : targets) {
      std::string column_name = LastLabel(target);
      for (const CatalogEntry& dim : catalog_->dimensions()) {
        if (dim.BindingFor(target) != nullptr) {
          column_name = dim.name;
          final_dimensions.insert(dim.name);  // auto-added dimension
          break;
        }
      }
      bf.key_names.push_back(column_name);
    }

    bf.table.name = "fact_" + fc.fact->name;
    bf.table.columns = bf.key_names;
    for (size_t kc = 0; kc < bf.key_names.size(); ++kc) {
      bf.table.key_columns.push_back(kc);
    }
    bf.table.columns.push_back(fc.fact->name);

    std::set<std::vector<std::string>> key_seen;
    bool duplicate_warned = false;
    std::set<std::vector<std::string>> row_dedup;
    for (const twig::ResultTuple& tuple : result.tuples) {
      const store::NodeId& node = tuple.nodes[fc.column];
      std::string path = tuple.paths[fc.column] == store::kInvalidPathId
                             ? std::string()
                             : dict.PathString(tuple.paths[fc.column]);
      const ContextBinding* binding = fc.fact->BindingFor(path);
      if (binding == nullptr) continue;  // ignored heterogeneous leftover
      const KeyPlan& plan = plan_for(binding);

      // Per-tuple context-row verification, shared by every relative probe
      // and the measure: a hit in the context column proves the tuple's node
      // exists with this Dewey ID and yields its content; a miss (stale or
      // foreign NodeId) routes the whole tuple through the tree walk, whose
      // error handling is authoritative.
      bool ctx_checked = false;
      bool ctx_ok = false;
      uint32_t ctx_row = 0;
      const std::vector<uint32_t>& dewey = node.dewey.components();
      auto ensure_ctx = [&]() {
        if (!ctx_checked) {
          ctx_checked = true;
          if (plan.ctx_col != nullptr) {
            ++schema.column_rows_scanned;
            ctx_ok = plan.ctx_col->FindRow(node.doc, dewey.data(),
                                           dewey.size(), &ctx_row);
          }
        }
        return ctx_ok;
      };

      bool used_tree = false;
      Status row_error = Status::OK();
      std::vector<std::string> row;
      row.reserve(plan.components.size() + 1);
      for (const ComponentPlan& cp : plan.components) {
        Result<std::string> value = std::string();
        switch (cp.kind) {
          case ComponentPlan::Kind::kAbsolute: {
            uint32_t r = 0;
            ++schema.column_rows_scanned;
            switch (cp.col->DocSingleton(node.doc, &r)) {
              case column::Column::Presence::kDuplicate:
                value = Status::FailedPrecondition(
                    "key component " + cp.kp->text +
                    " is not single-valued in document " +
                    store_->document(node.doc).name());
                break;
              case column::Column::Presence::kMissing:
                value = Status::NotFound("key component " + cp.kp->text +
                                         " missing in document " +
                                         store_->document(node.doc).name());
                break;
              case column::Column::Presence::kValue:
                value = std::string(cp.col->RowValue(r));
                break;
            }
            break;
          }
          case ComponentPlan::Kind::kSelf:
            if (ensure_ctx()) {
              value = std::string(plan.ctx_col->RowValue(ctx_row));
            } else {
              used_tree = true;
              value = EvaluateKeyComponent(*store_, node, *cp.kp);
            }
            break;
          case ComponentPlan::Kind::kStep:
            if (ensure_ctx()) {
              uint32_t r = 0;
              ++schema.column_rows_scanned;
              switch (cp.col->PrefixSingleton(node.doc, dewey.data(),
                                              cp.prefix_len, &r)) {
                case column::Column::Presence::kDuplicate:
                  value = Status::FailedPrecondition(
                      "relative key step '" + cp.step_name +
                      "' is not single-valued");
                  break;
                case column::Column::Presence::kMissing:
                  value = Status::NotFound("relative key step '" +
                                           cp.step_name + "' has no match");
                  break;
                case column::Column::Presence::kValue:
                  value = std::string(cp.col->RowValue(r));
                  break;
              }
            } else {
              used_tree = true;
              value = EvaluateKeyComponent(*store_, node, *cp.kp);
            }
            break;
          case ComponentPlan::Kind::kTree:
            used_tree = true;
            value = EvaluateKeyComponent(*store_, node, *cp.kp);
            break;
        }
        if (!value.ok()) {
          row_error = value.status();
          break;
        }
        row.push_back(std::move(value).value());
      }
      if (used_tree) ++schema.column_fallback_docs;
      if (!row_error.ok()) {
        schema.warnings.push_back("row skipped for fact '" + fc.fact->name +
                                  "': " + row_error.ToString());
        continue;
      }
      if (ensure_ctx()) {
        row.push_back(std::string(plan.ctx_col->RowValue(ctx_row)));
      } else {
        if (!used_tree) ++schema.column_fallback_docs;
        row.push_back(store_->GetContent(node));
      }
      // The same (fact node) may appear in many result tuples when other
      // columns fan out; fact rows are deduplicated on all values.
      if (!row_dedup.insert(row).second) continue;
      std::vector<std::string> key_only(row.begin(), row.end() - 1);
      if (!key_seen.insert(key_only).second && !duplicate_warned) {
        schema.warnings.push_back("fact '" + fc.fact->name +
                                  "' key is not unique over the result; "
                                  "aggregates may be ambiguous");
        duplicate_warned = true;
      }
      bf.table.rows.push_back(std::move(row));
    }
    built.push_back(std::move(bf));
  }

  // Merge fact tables with identical key column lists (§7 optimization).
  if (options.merge_fact_tables) {
    std::vector<BuiltFact> merged;
    for (BuiltFact& bf : built) {
      BuiltFact* target = nullptr;
      for (BuiltFact& existing : merged) {
        if (existing.key_names == bf.key_names) {
          target = &existing;
          break;
        }
      }
      if (target == nullptr) {
        merged.push_back(std::move(bf));
        continue;
      }
      // Align rows on key values.
      size_t old_measures = target->table.columns.size() - target->key_names.size();
      target->table.name += "+" + bf.fact->name;
      target->table.columns.push_back(bf.fact->name);
      std::map<std::vector<std::string>, size_t> by_key;
      for (size_t r = 0; r < target->table.rows.size(); ++r) {
        std::vector<std::string> key(target->table.rows[r].begin(),
                                     target->table.rows[r].begin() +
                                         target->key_names.size());
        by_key.emplace(std::move(key), r);
        target->table.rows[r].push_back("");
      }
      for (const auto& row : bf.table.rows) {
        std::vector<std::string> key(row.begin(), row.begin() + bf.key_names.size());
        auto it = by_key.find(key);
        if (it != by_key.end()) {
          target->table.rows[it->second].back() = row.back();
        } else {
          std::vector<std::string> new_row = key;
          for (size_t i = 0; i < old_measures; ++i) new_row.push_back("");
          new_row.push_back(row.back());
          target->table.rows.push_back(std::move(new_row));
        }
      }
    }
    built = std::move(merged);
  }

  for (BuiltFact& bf : built) schema.fact_tables.push_back(std::move(bf.table));

  // Dimension tables: distinct values per dimension, drawn from the fact
  // tables' key columns (and from the source result column when present).
  for (const std::string& dim_name : final_dimensions) {
    if (std::find(options.remove_dimensions.begin(), options.remove_dimensions.end(),
                  dim_name) != options.remove_dimensions.end()) {
      continue;
    }
    Table table;
    table.name = "dim_" + dim_name;
    table.columns = {dim_name};
    table.key_columns = {0};
    std::set<std::string> values;
    for (const Table& fact_table : schema.fact_tables) {
      for (size_t c = 0; c < fact_table.columns.size(); ++c) {
        if (fact_table.columns[c] != dim_name) continue;
        for (const auto& row : fact_table.rows) values.insert(row[c]);
      }
    }
    auto source = dim_source_column.find(dim_name);
    if (source != dim_source_column.end()) {
      for (const twig::ResultTuple& tuple : result.tuples) {
        const store::NodeId& node = tuple.nodes[source->second];
        const store::PathId pid = tuple.paths[source->second];
        const column::Column* col =
            columns_ != nullptr && pid != store::kInvalidPathId
                ? columns_->FindByPathId(pid)
                : nullptr;
        uint32_t row = 0;
        if (col != nullptr) {
          ++schema.column_rows_scanned;
          const std::vector<uint32_t>& dewey = node.dewey.components();
          if (col->FindRow(node.doc, dewey.data(), dewey.size(), &row)) {
            values.insert(std::string(col->RowValue(row)));
            continue;
          }
        }
        values.insert(store_->GetContent(node));
      }
    }
    for (const std::string& value : values) table.rows.push_back({value});
    schema.dimension_tables.push_back(std::move(table));
  }

  extract_span.AddCounter("column_rows_scanned", schema.column_rows_scanned);
  extract_span.AddCounter("column_fallback_docs", schema.column_fallback_docs);
  return schema;
}

}  // namespace seda::cube
