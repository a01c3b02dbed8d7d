#include "src/update/applier.h"

#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/xml/dtd_validator.h"

namespace smoqe::update {

namespace {

/// Ids of every node in a subtree (collected before the ids are retired).
void CollectSubtreeIds(const xml::Node* root, std::vector<int32_t>* out) {
  std::vector<const xml::Node*> stack = {root};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    out->push_back(n->node_id);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
}

size_t SubtreeSize(const xml::Node* root) {
  size_t n = 0;
  std::vector<const xml::Node*> stack = {root};
  while (!stack.empty()) {
    const xml::Node* cur = stack.back();
    stack.pop_back();
    ++n;
    for (const xml::Node* c = cur->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  return n;
}

/// True iff a strict ancestor of `n` is in `removed`.
bool UnderRemoval(const xml::Node* n,
                  const std::unordered_set<const xml::Node*>& removed) {
  for (const xml::Node* a = n->parent; a != nullptr; a = a->parent) {
    if (removed.count(a) > 0) return true;
  }
  return false;
}

/// Projected element-child sequence of one parent after the script's
/// removals/replacements, plus the inserts planned into it so far.
struct ParentProjection {
  const xml::Node* parent = nullptr;
  std::vector<std::string> labels;
  bool has_text = false;
};

}  // namespace

Result<EditPlan> PlanScript(const xml::Document& doc,
                            const std::vector<ResolvedEdit>& script,
                            const ApplierOptions& options) {
  if (options.guard != nullptr) SMOQE_RETURN_IF_ERROR(options.guard->Check());
  const xml::NameTable& names = *doc.names();
  EditPlan plan;

  // Same-node conflicts and the removal set (nesting normalization).
  // Two edits of one node conflict unless they are exact duplicates
  // (same kind AND same fragment) — a second insert/replace with a
  // different fragment must error, not silently lose one fragment.
  std::unordered_set<const xml::Node*> removed;
  std::unordered_map<const xml::Node*, std::pair<OpKind, const xml::Document*>>
      op_of;
  for (const ResolvedEdit& e : script) {
    if (e.target == nullptr) {
      return Status::InvalidArgument("edit has no target");
    }
    if (!e.target->is_element()) {
      return Status::InvalidArgument("edit target must be an element");
    }
    auto [it, fresh] = op_of.emplace(e.target,
                                     std::make_pair(e.kind, e.fragment));
    if (!fresh && it->second != std::make_pair(e.kind, e.fragment)) {
      return Status::InvalidArgument(
          "conflicting edits target the same node (id " +
          std::to_string(e.target->node_id) + ")");
    }
    if (e.kind != OpKind::kInsert) removed.insert(e.target);
    if ((e.kind == OpKind::kInsert || e.kind == OpKind::kReplace) &&
        e.fragment == nullptr) {
      return Status::InvalidArgument(std::string(ToString(e.kind)) +
                                     " edit has no fragment");
    }
  }

  // Surviving edits: outermost removals win; edits inside them drop.
  std::unordered_set<const xml::Node*> seen;
  for (const ResolvedEdit& e : script) {
    if (!seen.insert(e.target).second) {  // duplicate (same kind): dedupe
      ++plan.dropped;
      continue;
    }
    if (UnderRemoval(e.target, removed) ||
        (e.kind == OpKind::kInsert && removed.count(e.target) > 0)) {
      ++plan.dropped;
      continue;
    }
    if (e.kind == OpKind::kDelete && e.target->parent == nullptr) {
      return Status::InvalidArgument(
          "cannot delete the document root element");
    }
    plan.steps.push_back(EditPlan::Step{e.kind, e.target->node_id, e.fragment,
                                        std::numeric_limits<size_t>::max()});
  }

  if (options.dtd == nullptr) return plan;
  const xml::Dtd& dtd = *options.dtd;
  // One compiled content model per element type for the whole plan (the
  // insert-position scan probes the same parent many times).
  xml::ContentModelCache models;

  // Fragment internal validity + replace-root type check.
  for (const EditPlan::Step& e : plan.steps) {
    if (e.fragment == nullptr) continue;
    SMOQE_RETURN_IF_ERROR(
        xml::ValidateSubtree(e.fragment->root(), *e.fragment->names(), dtd,
                             {}, &models)
            .WithContext(std::string(ToString(e.kind)) + " fragment"));
    if (e.kind == OpKind::kReplace && doc.node(e.target)->parent == nullptr &&
        !dtd.root_name().empty() &&
        e.fragment->names()->NameOf(e.fragment->root()->label) !=
            dtd.root_name()) {
      return Status::InvalidArgument(
          "replacing the root requires a fragment of the DTD root type '" +
          dtd.root_name() + "'");
    }
  }

  // Per-parent child-sequence simulation. First project removals and
  // replacements, then place the inserts (rightmost valid position).
  std::map<int32_t, ParentProjection> parents;  // by node id
  auto project = [&](const xml::Node* parent) -> ParentProjection& {
    auto it = parents.find(parent->node_id);
    if (it != parents.end()) return it->second;
    ParentProjection proj;
    proj.parent = parent;
    for (const xml::Node* c = parent->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_text()) {
        proj.has_text = true;
        continue;
      }
      auto op = op_of.find(c);
      if (op != op_of.end() && op->second.first == OpKind::kDelete) continue;
      if (op != op_of.end() && op->second.first == OpKind::kReplace) {
        // Substitute the replacement's root type at the same position.
        const xml::Document* frag = op->second.second;
        proj.labels.push_back(frag->names()->NameOf(frag->root()->label));
        continue;
      }
      proj.labels.push_back(names.NameOf(c->label));
    }
    return parents.emplace(parent->node_id, std::move(proj)).first->second;
  };

  for (EditPlan::Step& e : plan.steps) {
    // The insert-position scan is the plan phase's expensive loop
    // (quadratic in children per insert) — check the guard per edit.
    if (options.guard != nullptr) {
      SMOQE_RETURN_IF_ERROR(options.guard->Check());
    }
    const xml::Node* target = doc.node(e.target);
    const xml::Node* affected =
        e.kind == OpKind::kInsert ? target : target->parent;
    if (affected == nullptr) continue;  // replace-root: checked above
    ParentProjection& proj = project(affected);
    if (e.kind != OpKind::kInsert) continue;
    const std::string& frag_label =
        e.fragment->names()->NameOf(e.fragment->root()->label);
    // Rightmost valid element position (append-preferring).
    Status last_error = Status::OK();
    bool placed = false;
    for (size_t pos = proj.labels.size() + 1; pos-- > 0;) {
      std::vector<std::string> candidate = proj.labels;
      candidate.insert(candidate.begin() + static_cast<ptrdiff_t>(pos),
                       frag_label);
      Status st = xml::ValidateChildSequence(
          dtd, names.NameOf(affected->label), candidate, proj.has_text, {},
          &models);
      if (st.ok()) {
        proj.labels = std::move(candidate);
        e.elem_pos = pos;
        placed = true;
        break;
      }
      last_error = std::move(st);
    }
    if (!placed) {
      return last_error.WithContext(
          "insert of '" + frag_label + "' fits no position under element '" +
          names.NameOf(affected->label) + "'");
    }
  }

  // Parents affected only by removals still need their final sequence
  // checked (inserts validated theirs along the way, but revalidating the
  // final projection is cheap and uniform).
  for (const auto& [id, proj] : parents) {
    const std::string& label = names.NameOf(proj.parent->label);
    SMOQE_RETURN_IF_ERROR(
        xml::ValidateChildSequence(dtd, label, proj.labels, proj.has_text, {},
                                   &models)
            .WithContext("post-update content of element '" + label + "'"));
  }
  return plan;
}

Result<ApplyStats> UpdateApplier::Commit(const EditPlan& plan) {
  // The last point before mutation: a guard trip or the armed
  // "update.apply" fault aborts with the document untouched.
  if (options_.guard != nullptr) {
    SMOQE_RETURN_IF_ERROR(options_.guard->Check());
  }
  if (fault::At("update.apply")) {
    return Status::Internal("injected update-apply fault (update.apply)");
  }
  ApplyStats stats;
  stats.edits_dropped = plan.dropped;

  // Dirty parents for TAX repair, with the subtrees grafted under each.
  std::vector<std::pair<const xml::Node*, std::vector<const xml::Node*>>>
      dirty;
  std::unordered_map<const xml::Node*, size_t> dirty_index;
  auto mark_dirty = [&](const xml::Node* parent, const xml::Node* grafted) {
    auto [it, fresh] = dirty_index.emplace(parent, dirty.size());
    if (fresh) dirty.push_back({parent, {}});
    if (grafted != nullptr) dirty[it->second].second.push_back(grafted);
  };
  std::vector<int32_t> retired;

  // Removals and replacements first, inserts second: insert positions
  // were planned against the post-removal child sequences.
  for (const EditPlan::Step& e : plan.steps) {
    if (e.kind == OpKind::kInsert) continue;
    xml::Node* target = doc_->mutable_node(e.target);
    const size_t mark = retired.size();
    CollectSubtreeIds(target, &retired);
    stats.nodes_deleted += retired.size() - mark;
    const xml::Node* parent = target->parent;
    if (e.kind == OpKind::kDelete) {
      doc_->RemoveSubtree(target);
      mark_dirty(parent, nullptr);
    } else {
      xml::Node* copy = doc_->ImportSubtree(e.fragment->root(), *e.fragment);
      stats.nodes_inserted += SubtreeSize(copy);
      doc_->ReplaceSubtree(target, copy);
      mark_dirty(parent != nullptr ? parent : copy, copy);
    }
    ++stats.edits_applied;
  }
  for (const EditPlan::Step& e : plan.steps) {
    if (e.kind != OpKind::kInsert) continue;
    xml::Node* target = doc_->mutable_node(e.target);
    xml::Node* copy = doc_->ImportSubtree(e.fragment->root(), *e.fragment);
    stats.nodes_inserted += SubtreeSize(copy);
    doc_->AttachChild(target, copy, e.elem_pos);
    mark_dirty(target, copy);
    ++stats.edits_applied;
  }

  doc_->RefreshOrder();

  if (options_.tax != nullptr) {
    bool first = true;
    for (const auto& [parent, grafted] : dirty) {
      SMOQE_ASSIGN_OR_RETURN(
          size_t recomputed,
          options_.tax->RepairAfterEdit(
              *doc_, parent, grafted,
              first ? retired : std::vector<int32_t>(), options_.guard));
      stats.tax_sets_recomputed += recomputed;
      first = false;
    }
  }
  return stats;
}

Result<ApplyStats> UpdateApplier::Run(const std::vector<ResolvedEdit>& script) {
  SMOQE_ASSIGN_OR_RETURN(EditPlan plan, PlanScript(*doc_, script, options_));
  return Commit(plan);
}

}  // namespace smoqe::update
