#include "src/eval/engine.h"

#include <algorithm>
#include <cassert>

namespace smoqe::eval {

using automata::AcceptTest;
using automata::FlatNfa;
using automata::Obligation;
using automata::Pred;
using automata::PredId;
using automata::PredSet;

namespace {

class NoAttrs : public AttrProvider {
 public:
  std::optional<std::string_view> Find(xml::NameId) const override {
    return std::nullopt;
  }
};

}  // namespace

const AttrProvider& AttrProvider::None() {
  static const NoAttrs none;
  return none;
}

HypeEngine::HypeEngine(const automata::Mfa& mfa) : mfa_(mfa) {
  // Virtual document node (the query context above the root). The
  // attribute provider is threaded through every call that can reach an
  // attribute accept test — never stashed in a global — so the engine is
  // fully confined to its owning thread (docs/DESIGN.md §7).
  PushFrame(-1);
  const AttrProvider& attrs = AttrProvider::None();
  for (const auto& [state, guard_preds] : mfa_.selection().initial) {
    Run r;
    r.is_selection = true;
    r.state = state;
    r.guard = InstantiateSet(guard_preds, attrs);
    AddRun(r, attrs);
  }
  RunWorklist(attrs);
}

HypeEngine::~HypeEngine() = default;

HypeEngine::Frame& HypeEngine::PushFrame(int32_t id) {
  if (depth_ == stack_.size()) {
    stack_.emplace_back();
    alloc_bytes_ += sizeof(Frame);
  }
  Frame& f = stack_[depth_++];
  f.Reset(id);
  accepted_ = 0;
  // New epoch: every dedup-table slot of previous frames is now stale.
  ++frame_epoch_;
  return f;
}

const FlatNfa& HypeEngine::NfaOf(const Run& r) const {
  return r.is_selection ? mfa_.selection() : mfa_.obligation(r.ob).nfa;
}

namespace {

/// Frames with fewer runs than this are deduplicated by linear scan:
/// below it the scan is one cache line and beats any table. The index
/// kicks in — built once, lazily — when a frame goes wide (recursion ×
/// predicates × unions), which is exactly where the linear scan degrades
/// quadratically. Sweeping 4…64 on the deep-genealogy
/// workload showed 4–16 equivalent and ≥32 measurably worse.
constexpr size_t kRunIndexThreshold = 16;

/// Hash of a run's dedup key (is_selection, ob, leaf, state). `state`
/// carries most of the entropy; one 64-bit multiply spreads it.
inline uint32_t RunKeyHash(bool is_selection, automata::ObligationId ob,
                           int leaf, int state) {
  uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(state)) << 32) |
               ((static_cast<uint32_t>(leaf) << 16) ^
                (static_cast<uint32_t>(ob) << 1) ^ (is_selection ? 1u : 0u));
  x *= 0x9e3779b97f4a7c15ull;
  return static_cast<uint32_t>(x >> 32);
}

}  // namespace

bool HypeEngine::CanShare(const Run& e, const Run& run) const {
  return !run.is_selection && (e.owners >= 0 || run.owners >= 0) &&
         pool_.IsSubset(e.guard, run.guard) &&
         pool_.IsSubset(run.guard, e.guard);
}

HypeEngine::OwnerList HypeEngine::Cons(InstId inst, OwnerList tail) {
  owner_nodes_.push_back(OwnerNode{inst, tail});
  alloc_bytes_ += sizeof(OwnerNode);
  return ~static_cast<OwnerList>(owner_nodes_.size() - 1);
}

void HypeEngine::ShareRun(Frame& cur, size_t index, const Run& run,
                          const AttrProvider& attrs) {
  Run& e = cur.runs[index];
  // Cons the single owner onto the other list: O(1) either way, and the
  // owners new to `e` are exactly run.owners.
  e.owners = run.owners >= 0 ? Cons(run.owners, e.owners)
                             : Cons(e.owners, run.owners);
  if (index < accepted_) {
    // An instance created during the worklist joined a run the worklist
    // already handled here: its owners still owe this node's accepts.
    Run delta = e;
    delta.owners = run.owners;
    HandleAccepts(delta, attrs);
  }
}

void HypeEngine::AddRun(const Run& run, const AttrProvider& attrs) {
  Frame& cur = CurFrame();
  if (cur.runs.size() >= kRunIndexThreshold) {
    AddRunHashed(cur, run, attrs);
    return;
  }
  size_t share = cur.runs.size();
  for (size_t i = 0; i < cur.runs.size(); ++i) {
    const Run& e = cur.runs[i];
    if (!e.SameKey(run)) continue;
    if (e.owners == run.owners && pool_.IsSubset(e.guard, run.guard)) {
      ++stats_.runs_deduped;
      return;  // dominated (or duplicated) by an existing run
    }
    if (share == cur.runs.size() && CanShare(e, run)) share = i;
  }
  if (share < cur.runs.size()) {
    ShareRun(cur, share, run, attrs);
    return;
  }
  cur.runs.push_back(run);
  alloc_bytes_ += sizeof(Run);
}

void HypeEngine::SeedRunIndex(Frame& cur) {
  // Grow the table until the frame's runs load it at most half full, then
  // stamp the current frame's runs into it. Growth wipes epochs (cheap and
  // rare); entries of other frames were stale anyway.
  size_t want = dedup_epoch_.empty() ? 256 : dedup_epoch_.size();
  while (want < 2 * (cur.runs.size() + kRunIndexThreshold)) want *= 2;
  if (want != dedup_epoch_.size()) {
    dedup_epoch_.assign(want, 0);
    dedup_head_.resize(want);
  }
  size_t mask = want - 1;
  cur.run_next.assign(cur.runs.size(), -1);
  for (size_t i = 0; i < cur.runs.size(); ++i) {
    const Run& e = cur.runs[i];
    uint32_t h = RunKeyHash(e.is_selection, e.ob, e.leaf, e.state);
    size_t slot = h & mask;
    while (dedup_epoch_[slot] == frame_epoch_) {
      if (cur.runs[static_cast<size_t>(dedup_head_[slot])].SameKey(e)) {
        cur.run_next[i] = dedup_head_[slot];
        break;
      }
      slot = (slot + 1) & mask;
    }
    dedup_epoch_[slot] = frame_epoch_;
    dedup_head_[slot] = static_cast<int32_t>(i);
  }
}

void HypeEngine::AddRunHashed(Frame& cur, const Run& run,
                              const AttrProvider& attrs) {
  // First insert past the linear threshold (run_next lagging runs) or a
  // table nearing half load reseeds; otherwise the table is current.
  if (cur.run_next.size() != cur.runs.size() ||
      dedup_epoch_.size() < 2 * (cur.runs.size() + 1)) {
    SeedRunIndex(cur);
  }
  size_t mask = dedup_epoch_.size() - 1;
  uint32_t h = RunKeyHash(run.is_selection, run.ob, run.leaf, run.state);
  size_t slot = h & mask;
  ++stats_.run_dedup_probes;
  while (dedup_epoch_[slot] == frame_epoch_) {
    if (cur.runs[static_cast<size_t>(dedup_head_[slot])].SameKey(run)) {
      // Key chain found: only same-key runs are checked for dominance.
      int32_t share = -1;
      for (int32_t i = dedup_head_[slot]; i >= 0; i = cur.run_next[i]) {
        const Run& e = cur.runs[static_cast<size_t>(i)];
        if (e.owners == run.owners && pool_.IsSubset(e.guard, run.guard)) {
          ++stats_.runs_deduped;
          return;
        }
        if (share < 0 && CanShare(e, run)) share = i;
      }
      if (share >= 0) {
        ShareRun(cur, static_cast<size_t>(share), run, attrs);
        return;
      }
      cur.run_next.push_back(dedup_head_[slot]);
      dedup_head_[slot] = static_cast<int32_t>(cur.runs.size());
      cur.runs.push_back(run);
      alloc_bytes_ += sizeof(Run);
      return;
    }
    slot = (slot + 1) & mask;
    ++stats_.run_dedup_probes;
  }
  dedup_epoch_[slot] = frame_epoch_;
  dedup_head_[slot] = static_cast<int32_t>(cur.runs.size());
  cur.run_next.push_back(-1);
  cur.runs.push_back(run);
  alloc_bytes_ += sizeof(Run);
}

GuardRef HypeEngine::InstantiateSet(const PredSet& preds,
                                    const AttrProvider& attrs) {
  GuardRef g = GuardPool::kEmpty;
  for (PredId p : preds) g = pool_.Merge(g, Instantiate(p, attrs));
  return g;
}

InstId HypeEngine::Instantiate(PredId pred, const AttrProvider& attrs) {
  Frame& cur = CurFrame();
  InstId existing = cur.FindInst(pred);
  if (existing >= 0) return existing;

  InstId id = static_cast<InstId>(instances_.size());
  const Pred& p = mfa_.pred(pred);
  PredInstance inst;
  inst.pred = pred;
  inst.anchor = cur.id;
  inst.witness_base = static_cast<int32_t>(witness_heads_.size());
  witness_heads_.resize(witness_heads_.size() + p.leaf_obligations.size(), -1);
  instances_.push_back(inst);
  alloc_bytes_ += sizeof(PredInstance);
  cur.inst_map.emplace_back(pred, id);
  cur.anchored.push_back(id);
  ++stats_.pred_instances;

  // Launch the predicate's obligation runs, anchored here.
  for (size_t leaf = 0; leaf < p.leaf_obligations.size(); ++leaf) {
    automata::ObligationId ob_id = p.leaf_obligations[leaf];
    const Obligation& ob = mfa_.obligation(ob_id);
    for (const auto& [state, guard_preds] : ob.nfa.initial) {
      if (!ob.nfa.states[state].live) continue;
      Run r;
      r.is_selection = false;
      r.ob = ob_id;
      r.leaf = static_cast<int>(leaf);
      r.state = state;
      r.guard = InstantiateSet(guard_preds, attrs);
      r.owners = id;
      ++stats_.obligations;
      AddRun(r, attrs);
    }
    // ε acceptance: the path can match the anchor itself.
    for (const PredSet& accept : ob.nfa.initial_accept_guards) {
      GuardRef g = InstantiateSet(accept, attrs);
      switch (ob.test.kind) {
        case AcceptTest::Kind::kExists:
          Witness(id, static_cast<int>(leaf), g);
          break;
        case AcceptTest::Kind::kAttrExists:
        case AcceptTest::Kind::kAttrEq: {
          const std::optional<std::string_view> v = attrs.Find(ob.test.attr);
          if (v && (ob.test.kind == AcceptTest::Kind::kAttrExists ||
                    ob.test.value == *v)) {
            Witness(id, static_cast<int>(leaf), g);
          }
          break;
        }
        case AcceptTest::Kind::kTextEq: {
          Frame& frame = CurFrame();
          frame.pending_text.push_back(
              PendingText{id, static_cast<int>(leaf), g, &ob.test.value});
          frame.needs_text = true;
          break;
        }
      }
    }
  }
  return id;
}

void HypeEngine::EagerInstantiate(const Run& run, const AttrProvider& attrs) {
  const FlatNfa::State& st = NfaOf(run).states[run.state];
  // A pred shared by several transitions / accepts is instantiated once:
  // Instantiate dedups per frame.
  for (const FlatNfa::Transition& t : st.trans) {
    for (PredId p : t.src_preds) Instantiate(p, attrs);
  }
  for (const PredSet& accept : st.accept_guards) {
    for (PredId p : accept) Instantiate(p, attrs);
  }
}

void HypeEngine::HandleAccepts(const Run& run, const AttrProvider& attrs) {
  Frame& cur = CurFrame();
  const FlatNfa::State& st = NfaOf(run).states[run.state];
  for (const PredSet& accept : st.accept_guards) {
    GuardRef g = run.guard;
    for (PredId p : accept) {
      InstId inst = cur.FindInst(p);
      assert(inst >= 0);  // EagerInstantiate created it
      g = pool_.Merge(g, inst);
    }
    if (run.is_selection) {
      if (cur.id >= 0) {
        cans_.Add(cur.id, pool_.data(g), pool_.size(g));
        ++stats_.cans_entries;
      }
    } else {
      const Obligation& ob = mfa_.obligation(run.ob);
      switch (ob.test.kind) {
        case AcceptTest::Kind::kExists:
          WitnessAll(run.owners, run.leaf, g);
          break;
        case AcceptTest::Kind::kAttrExists:
        case AcceptTest::Kind::kAttrEq: {
          const std::optional<std::string_view> v = attrs.Find(ob.test.attr);
          if (v && (ob.test.kind == AcceptTest::Kind::kAttrExists ||
                    ob.test.value == *v)) {
            WitnessAll(run.owners, run.leaf, g);
          }
          break;
        }
        case AcceptTest::Kind::kTextEq:
          cur.pending_text.push_back(
              PendingText{run.owners, run.leaf, g, &ob.test.value});
          cur.needs_text = true;
          break;
      }
    }
  }
}

void HypeEngine::Witness(InstId owner, int leaf, GuardRef guard) {
  const size_t list =
      static_cast<size_t>(instances_[owner].witness_base + leaf);
  for (int32_t w = witness_heads_[list]; w >= 0; w = witness_nodes_[w].next) {
    if (pool_.IsSubset(witness_nodes_[w].guard, guard)) return;
  }
  for (int32_t* link = &witness_heads_[list]; *link >= 0;) {
    WitnessNode& n = witness_nodes_[*link];
    if (pool_.IsSubset(guard, n.guard)) {
      *link = n.next;
    } else {
      link = &n.next;
    }
  }
  witness_nodes_.push_back(WitnessNode{guard, witness_heads_[list]});
  witness_heads_[list] = static_cast<int32_t>(witness_nodes_.size() - 1);
}

void HypeEngine::WitnessAll(OwnerList owners, int leaf, GuardRef guard) {
  for (; owners < 0; owners = owner_nodes_[~owners].next) {
    Witness(owner_nodes_[~owners].inst, leaf, guard);
  }
  Witness(owners, leaf, guard);
}

void HypeEngine::RunWorklist(const AttrProvider& attrs) {
  // Phase 2: eager instantiation + acceptance; instantiation may append
  // further obligation runs, which are processed in turn, or share owners
  // into runs already here (ShareRun).
  // A run whose state charges nothing has nothing to instantiate or
  // accept here.
  Frame& cur = CurFrame();
  for (size_t i = 0; i < cur.runs.size(); ++i) {
    if (NfaOf(cur.runs[i]).states[cur.runs[i].state].charges) {
      EagerInstantiate(Run(cur.runs[i]), attrs);  // copy: runs may grow
      // Re-read: instantiation may have shared owners into this run.
      HandleAccepts(Run(cur.runs[i]), attrs);
    }
    accepted_ = i + 1;
  }
}

void HypeEngine::AdvanceRun(const Frame& parent, const Run& r,
                            const FlatNfa::Transition& t,
                            const AttrProvider& attrs) {
  // The advanced run shares the parent's guard handle until a charge
  // extends it (guard sets are immutable).
  GuardRef g = r.guard;
  for (PredId p : t.src_preds) {
    InstId inst = parent.FindInst(p);
    assert(inst >= 0);
    g = pool_.Merge(g, inst);
  }
  // dst predicates anchor at this node.
  for (PredId p : t.dst_preds) g = pool_.Merge(g, Instantiate(p, attrs));
  Run nr = r;
  nr.state = t.target;
  nr.guard = g;
  AddRun(nr, attrs);
}

HypeEngine::EnterResult HypeEngine::Enter(xml::NameId label,
                                          const AttrProvider& attrs,
                                          const DynamicBitset* subtree_types) {
  assert(!finished_ && depth_ > 0);
  ++stats_.nodes_visited;
  Frame& cur = PushFrame(next_id_++);
  Frame& parent = stack_[depth_ - 2];

  // Phase 1: advance runs from the parent frame across this label. A
  // state has few transitions, so a scan with one LabelTest each is as
  // fast as a label-indexed table (docs/DESIGN.md §3.3).
  for (const Run& r : parent.runs) {
    for (const FlatNfa::Transition& t : NfaOf(r).states[r.state].trans) {
      if (t.test.Matches(label)) AdvanceRun(parent, r, t, attrs);
    }
  }

  RunWorklist(attrs);

  stats_.max_active_pairs =
      std::max<uint64_t>(stats_.max_active_pairs, cur.runs.size());

  EnterResult res;
  res.needs_direct_text = cur.needs_text;
  if (cur.runs.empty()) {
    res.can_skip_subtree = true;
  } else if (subtree_types != nullptr) {
    // TAX prune test: a run can still accept inside this subtree only if
    // every label its accepting continuations must consume occurs below.
    bool alive = false;
    for (const Run& r : cur.runs) {
      const FlatNfa::State& st = NfaOf(r).states[r.state];
      if (!st.live) continue;
      bool all_present = true;
      for (xml::NameId l : st.necessary_labels) {
        if (static_cast<size_t>(l) >= subtree_types->size() ||
            !subtree_types->Test(static_cast<size_t>(l))) {
          all_present = false;
          break;
        }
      }
      if (all_present) {
        alive = true;
        break;
      }
    }
    if (!alive) res.can_skip_subtree = true;
  }
  if (res.can_skip_subtree) ++stats_.subtrees_pruned;
  return res;
}

void HypeEngine::ResolveFrame(Frame* frame) {
  // Reverse creation order: nested instances (created later, same anchor)
  // resolve before the instances that reference them.
  for (auto it = frame->anchored.rbegin(); it != frame->anchored.rend();
       ++it) {
    PredInstance& inst = instances_[*it];
    const Pred& p = mfa_.pred(inst.pred);
    leaf_values_.assign(p.leaf_obligations.size(), false);
    for (size_t leaf = 0; leaf < leaf_values_.size(); ++leaf) {
      int32_t& head = witness_heads_[inst.witness_base + leaf];
      for (int32_t w = head; w >= 0; w = witness_nodes_[w].next) {
        const GuardRef g = witness_nodes_[w].guard;
        const InstId* deps = pool_.data(g);
        const size_t n = pool_.size(g);
        bool all = true;
        for (size_t i = 0; i < n; ++i) {
          assert(instances_[deps[i]].resolved);
          if (!instances_[deps[i]].value) {
            all = false;
            break;
          }
        }
        if (all) {
          leaf_values_[leaf] = true;
          break;
        }
      }
      head = -1;  // the list is spent
    }
    inst.value = p.Evaluate(leaf_values_);
    inst.resolved = true;
  }
}

uint64_t HypeEngine::ArenaBytes() const {
  return (witness_heads_.capacity() * sizeof(int32_t)) +
         (witness_nodes_.capacity() * sizeof(WitnessNode)) +
         cans_.capacity_bytes() + pool_.capacity_bytes();
}

uint64_t HypeEngine::TakeAllocBytes() {
  // The arenas only grow, so their growth since the last drain is a
  // difference of two totals — nothing is counted per append.
  const uint64_t arenas = ArenaBytes();
  const uint64_t bytes = alloc_bytes_ + (arenas - arena_bytes_charged_);
  arena_bytes_charged_ = arenas;
  alloc_bytes_ = 0;
  return bytes;
}

void HypeEngine::Leave() {
  assert(depth_ > 1);
  Frame& cur = CurFrame();
  // Text checks resolve now that the element's direct text is complete.
  for (PendingText& pt : cur.pending_text) {
    if (cur.direct_text == *pt.value) {
      WitnessAll(pt.owners, pt.leaf, pt.guard);
    }
  }
  cur.pending_text.clear();
  ResolveFrame(&cur);
  PopFrame();
}

const std::vector<int32_t>& HypeEngine::FinishDocument() {
  if (finished_) return answers_;
  assert(depth_ == 1);  // only the virtual document frame remains
  // The virtual document node has no text; pending checks fail naturally.
  ResolveFrame(&CurFrame());
  PopFrame();
  answers_ = cans_.Select(instances_);
  stats_.answers = answers_.size();
  stats_.tree_passes = 1;
  stats_.aux_passes = 1;
  stats_.guard_pool_entries = pool_.entry_count();
  stats_.guard_pool_hits = pool_.hits();
  finished_ = true;
  return answers_;
}

}  // namespace smoqe::eval
