#include "src/index/tax.h"

#include <functional>

namespace smoqe::index {

namespace {

/// Width-insensitive hash of a set's bits: trailing zero words are
/// skipped, so sets with the same bits at different widths collide (and
/// SameBits then matches them).
uint64_t HashBits(const DynamicBitset& bits) {
  const std::vector<uint64_t>& words = bits.words();
  size_t n = words.size();
  while (n > 0 && words[n - 1] == 0) --n;
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

TaxIndex TaxIndex::Build(const xml::Document& doc) {
  auto idx = Build(doc, nullptr);
  // Unguarded build cannot fail (the walk only allocates).
  return idx.MoveValue();
}

Result<TaxIndex> TaxIndex::Build(const xml::Document& doc,
                                 const Guardrail* guard) {
  TaxIndex idx;
  idx.width_ = doc.names()->size();
  idx.refs_.resize(doc.num_nodes());
  if (guard != nullptr) {
    guard->ChargeBytes(idx.refs_.size() * sizeof(uint32_t));
    SMOQE_RETURN_IF_ERROR(guard->Check());
  }
  size_t recomputed = 0;
  GuardTicker ticker(guard);
  SMOQE_RETURN_IF_ERROR(
      idx.BuildSubtree(doc.root(), idx.width_, &recomputed, &ticker));
  idx.ChargeNewSets(guard);
  SMOQE_RETURN_IF_ERROR(ticker.Now());
  idx.elements_ = recomputed;
  return idx;
}

uint32_t TaxIndex::Intern(const DynamicBitset& bits) {
  const uint64_t h = HashBits(bits);
  auto [lo, hi] = set_index_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (sets_[it->second].SameBits(bits)) return it->second;
  }
  const uint32_t ref = static_cast<uint32_t>(sets_.size());
  sets_.push_back(bits);
  set_index_.emplace(h, ref);
  // The set's header and words, plus a hash node (key, value, link, hash).
  table_bytes_ += sizeof(DynamicBitset) + bits.num_words() * 8 + 32;
  return ref;
}

void TaxIndex::ChargeNewSets(const Guardrail* guard) {
  if (guard == nullptr) return;
  guard->ChargeBytes(table_bytes_ - charged_bytes_);
  charged_bytes_ = table_bytes_;
}

void TaxIndex::RecomputeFromChildren(const xml::Node* n,
                                     DynamicBitset* scratch) {
  scratch->Clear();
  for (const xml::Node* c = n->first_child; c != nullptr;
       c = c->next_sibling) {
    if (!c->is_element()) continue;
    scratch->Set(static_cast<size_t>(c->label));
    scratch->UnionWithZeroExt(sets_[refs_[c->node_id]]);
  }
  refs_[n->node_id] = Intern(*scratch);
}

Status TaxIndex::BuildSubtree(const xml::Node* subtree, size_t width,
                              size_t* recomputed, GuardTicker* ticker) {
  // Post-order pointer walk (ids are not pre-order after updates, so the
  // seed's reverse-id sweep would read children before they are final).
  // nullptr marks "children done; fold the node below it".
  std::vector<const xml::Node*> stack = {subtree};
  std::vector<const xml::Node*> open;
  DynamicBitset scratch(width);
  while (!stack.empty()) {
    if (ticker != nullptr && ticker->Due()) {
      ChargeNewSets(ticker->guard());
      SMOQE_RETURN_IF_ERROR(ticker->Now());
    }
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n == nullptr) {
      RecomputeFromChildren(open.back(), &scratch);
      ++*recomputed;
      open.pop_back();
      continue;
    }
    if (!n->is_element()) continue;
    open.push_back(n);
    stack.push_back(nullptr);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) stack.push_back(c);
    }
  }
  return Status::OK();
}

size_t TaxIndex::RepairAfterEdit(
    const xml::Document& doc, const xml::Node* parent,
    const std::vector<const xml::Node*>& new_subtrees,
    const std::vector<int32_t>& retired_ids) {
  auto r = RepairAfterEdit(doc, parent, new_subtrees, retired_ids, nullptr);
  // Unguarded repair cannot fail (no guard, and the fault site only
  // fires when a test armed it — tests that do use the guarded variant).
  return r.ok() ? *r : 0;
}

Result<size_t> TaxIndex::RepairAfterEdit(
    const xml::Document& doc, const xml::Node* parent,
    const std::vector<const xml::Node*>& new_subtrees,
    const std::vector<int32_t>& retired_ids, const Guardrail* guard) {
  if (fault::At("tax.repair")) {
    return Status::Internal("injected index-repair fault (tax.repair)");
  }
  GuardTicker ticker(guard);
  const size_t width = doc.names()->size();
  if (refs_.size() < static_cast<size_t>(doc.num_nodes())) {
    if (guard != nullptr) {
      guard->ChargeBytes((doc.num_nodes() - refs_.size()) * sizeof(uint32_t));
    }
    refs_.resize(doc.num_nodes());
  }
  for (int32_t id : retired_ids) refs_[id] = 0;
  size_t recomputed = 0;
  for (const xml::Node* s : new_subtrees) {
    if (s->is_element()) {
      SMOQE_RETURN_IF_ERROR(BuildSubtree(s, width, &recomputed, &ticker));
    }
  }
  // Ancestor chain, bottom-up to the root. Children's sets are final:
  // untouched children kept theirs, grafted ones were just built, and
  // chains from other edits correct any overlap on their own pass.
  DynamicBitset scratch(width);
  for (const xml::Node* a = parent; a != nullptr; a = a->parent) {
    SMOQE_RETURN_IF_ERROR(ticker.Tick());
    RecomputeFromChildren(a, &scratch);
    ++recomputed;
  }
  ChargeNewSets(guard);
  SMOQE_RETURN_IF_ERROR(ticker.Now());
  elements_ = static_cast<size_t>(doc.num_elements());
  if (width > width_) width_ = width;
  return recomputed;
}

bool TaxIndex::EquivalentTo(const TaxIndex& other) const {
  const size_t n = refs_.size() > other.refs_.size() ? refs_.size()
                                                     : other.refs_.size();
  for (size_t i = 0; i < n; ++i) {
    // Ref 0 (also past the end) is the empty placeholder set.
    const uint32_t a = i < refs_.size() ? refs_[i] : 0;
    const uint32_t b = i < other.refs_.size() ? other.refs_[i] : 0;
    if (!sets_[a].SameBits(other.sets_[b])) return false;
  }
  return true;
}

size_t TaxIndex::memory_bytes() const {
  return refs_.capacity() * sizeof(uint32_t) + sizeof(DynamicBitset) +
         table_bytes_;
}

std::string TaxIndex::Dump(const xml::Document& doc, int max_nodes) const {
  std::string out;
  int emitted = 0;
  std::function<void(const xml::Node*, int)> walk = [&](const xml::Node* n,
                                                        int depth) {
    if (emitted >= max_nodes) return;
    ++emitted;
    out += std::string(static_cast<size_t>(depth) * 2, ' ');
    out += doc.names()->NameOf(n->label);
    out += " : {";
    bool first = true;
    sets_[refs_[n->node_id]].ForEachSetBit([&](size_t bit) {
      if (!first) out += ", ";
      first = false;
      out += doc.names()->NameOf(static_cast<xml::NameId>(bit));
    });
    out += "}\n";
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      if (c->is_element()) walk(c, depth + 1);
    }
  };
  walk(doc.root(), 0);
  return out;
}

}  // namespace smoqe::index
