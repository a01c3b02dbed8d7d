/// \file
/// \brief The HyPE engine: per-open-element frames of (state, guard)
/// runs advanced over one pre-order traversal. One hot path: a transition
/// scan per run, guards in an append-only arena, obligation runs shared by
/// every predicate instance that reaches the same (state, guard), and
/// hashed run dedup once a frame is wide (docs/DESIGN.md §3.2–§3.5).
/// Drivers: hype_dom.h (DOM), hype_stax.h / batch.h (streaming).

#ifndef SMOQE_EVAL_ENGINE_H_
#define SMOQE_EVAL_ENGINE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/automata/mfa.h"
#include "src/common/bitset.h"
#include "src/common/counters.h"
#include "src/eval/cans.h"
#include "src/eval/guard_pool.h"

namespace smoqe::eval {

/// Attribute access abstraction so the engine is agnostic to DOM vs StAX
/// attribute storage (one virtual call per attribute test).
class AttrProvider {
 public:
  virtual ~AttrProvider() = default;
  /// Value of the attribute, or nullopt if the element has none of that
  /// name. `name` is an interned id of the engine's shared name table; the
  /// view is valid while the event that supplied the provider is.
  virtual std::optional<std::string_view> Find(xml::NameId name) const = 0;

  /// A provider with no attributes.
  static const AttrProvider& None();
};

/// \brief HyPE — hybrid pass evaluation (paper §3, Evaluator).
///
/// The engine consumes one pre-order traversal of an element tree —
/// `Enter` / `Text` / `Leave` events from either a DOM walk or a StAX
/// scan — and maintains, per open element, the set of active
/// (automaton state, guard) pairs:
///
///  * selection runs advance the MFA's selection NFA; reaching an accept
///    state stages the node in **Cans** under the run's guard;
///  * predicate instantiation anchors a `PredInstance` at the node and
///    launches obligation runs that advance the predicate's path NFAs;
///    their acceptances record (conditional) witnesses;
///  * when an element closes, the instances anchored at it resolve —
///    every obligation witness lies in its subtree, so resolution is
///    definite (this is what makes negation safe in a single pass);
///  * after the traversal, one pass over Cans picks the nodes with a
///    fully-true guard alternative (`FinishDocument`).
///
/// Pruning: `Enter` reports whether the subtree can be skipped — always
/// when every run died (dead-run pruning); under TAX (pass
/// `subtree_types`) also when no active automaton can consume any element
/// type occurring below the node (experiment E6). The caller must still
/// deliver direct text when `needs_direct_text` is set (pending text()=…
/// checks), then call `Leave`.
class HypeEngine {
 public:
  explicit HypeEngine(const automata::Mfa& mfa);
  ~HypeEngine();

  struct EnterResult {
    bool can_skip_subtree = false;
    bool needs_direct_text = false;
  };

  /// Enters the next element (pre-order). `subtree_types` is the TAX
  /// descendant-type set of this node, or nullptr when no index is in use.
  EnterResult Enter(xml::NameId label, const AttrProvider& attrs,
                    const DynamicBitset* subtree_types = nullptr);

  /// Delivers text content directly under the current element. Inline:
  /// drivers call this once per text event per plan, and almost always
  /// no run is waiting on text (the needs_text test is the whole call).
  void Text(std::string_view text) {
    Frame& cur = CurFrame();
    if (cur.needs_text) cur.direct_text.append(text);
  }

  /// Closes the current element.
  void Leave();

  /// Ends the traversal and runs the Cans selection pass. Returns the
  /// engine ids (element pre-order numbers, document order) of answers.
  const std::vector<int32_t>& FinishDocument();

  /// Answers (valid after FinishDocument).
  const std::vector<int32_t>& answers() const { return answers_; }

  const EvalStats& stats() const { return stats_; }
  /// Drivers add counts they alone can know (e.g. nodes inside skipped
  /// subtrees).
  EvalStats* mutable_stats() { return &stats_; }
  const Cans& cans() const { return cans_; }
  const std::vector<PredInstance>& instances() const { return instances_; }

  /// Engine id that will be assigned to the next entered element.
  int32_t next_id() const { return next_id_; }

  /// True iff every run of the current frame is a selection run with the
  /// empty guard and no text check is pending here. Then nothing below
  /// the current element reaches outside its own child subtree: every
  /// instance a child creates is anchored inside it, and every instance
  /// anchored here or above is settled already. So its children's
  /// subtrees can be walked by separate engines (docs/DESIGN.md §3.7).
  bool FrameIsClosed() const;

  /// Approximate bytes of run/instance/frame state allocated since the
  /// last call, plus the growth of the engine's arenas (witness lists,
  /// Cans, guard sets) since then; drivers drain this into the request's
  /// MemoryBudget at their guard ticks (the engine itself stays
  /// guard-free — plain counters, no atomics, so the hot path pays at
  /// most one add and the arenas nothing).
  uint64_t TakeAllocBytes();

 private:
  /// The instances an obligation run reports to: an InstId (>= 0) for the
  /// common one-owner run — no storage — or ~i for node i of `owner_nodes_`,
  /// a persistent cons list whose last tail is again an inline InstId.
  /// Lists are shared, never mutated: a frame extends a run's list by
  /// consing a new head, and the parent frame's runs keep the old one.
  using OwnerList = int32_t;
  struct OwnerNode {
    InstId inst;
    OwnerList next;
  };

  /// Dedup key: (is_selection, ob, leaf, state). The owners are not part
  /// of it — one obligation run serves every instance on its list.
  struct Run {
    bool is_selection;
    automata::ObligationId ob = -1;  // obligation runs
    int leaf = -1;                   // leaf position in the owners' pred
    int state = 0;
    GuardRef guard = GuardPool::kEmpty;
    OwnerList owners = -1;  // obligation runs only: the instances reported to

    bool SameKey(const Run& o) const {
      return is_selection == o.is_selection && ob == o.ob && leaf == o.leaf &&
             state == o.state;
    }
  };

  struct PendingText {
    OwnerList owners;
    int leaf;
    GuardRef guard;
    const std::string* value;  // expected text (owned by the Mfa)
  };

  struct Frame {
    int32_t id = -1;
    std::vector<Run> runs;
    std::vector<InstId> anchored;
    std::vector<PendingText> pending_text;
    std::string direct_text;
    bool needs_text = false;
    /// (pred, instance) dedup pairs; linear scan — typically ≤ 4 entries.
    std::vector<std::pair<automata::PredId, InstId>> inst_map;
    /// Same-key chain links, parallel to `runs` while the engine-level
    /// run-dedup table (see `dedup_*_` below) indexes this frame. Only the
    /// chain of runs sharing a key is walked for the dominance check.
    std::vector<int32_t> run_next;

    /// Clears for reuse, keeping vector capacities (frames are pooled —
    /// one allocation-free Enter/Leave per node on the hot path).
    void Reset(int32_t new_id) {
      id = new_id;
      runs.clear();
      anchored.clear();
      pending_text.clear();
      direct_text.clear();
      needs_text = false;
      inst_map.clear();
      run_next.clear();
    }

    InstId FindInst(automata::PredId pred) const {
      for (const auto& [p, inst] : inst_map) {
        if (p == pred) return inst;
      }
      return -1;
    }
  };

  const automata::FlatNfa& NfaOf(const Run& r) const;

  /// Instantiates `pred` at the current frame (dedup), launching its
  /// obligation runs; returns the instance id. `attrs` is the attribute
  /// provider of the node being entered — threaded explicitly through the
  /// whole Enter call path (never stashed in a global), so every piece of
  /// engine state is confined to this object and a HypeEngine can run on
  /// any thread of a parallel batch (docs/DESIGN.md §7).
  InstId Instantiate(automata::PredId pred, const AttrProvider& attrs);

  GuardRef InstantiateSet(const automata::PredSet& preds,
                          const AttrProvider& attrs);

  /// Pushes a run into the current frame unless a same-key run with the
  /// same owner list and a guard ⊆ its guard exists (guard dominance), or
  /// a same-key obligation run with an equal guard can take its owners
  /// (ShareRun). Past kRunIndexThreshold runs the same-key runs are found
  /// through the hashed dedup table instead of a linear scan.
  void AddRun(const Run& run, const AttrProvider& attrs);
  void AddRunHashed(Frame& cur, const Run& run, const AttrProvider& attrs);
  /// True iff `run`'s owners can join same-key run `e` in O(1): both are
  /// obligation runs with equal guards, and one list is a single owner.
  bool CanShare(const Run& e, const Run& run) const;
  /// Joins `run`'s owners to cur.runs[index] (CanShare holds). If the
  /// worklist already handled that run's accepts at this node, the
  /// joining owners get them now.
  void ShareRun(Frame& cur, size_t index, const Run& run,
                const AttrProvider& attrs);
  /// (Re)seeds the dedup table with `cur`'s runs — on first use past the
  /// linear threshold and on growth.
  void SeedRunIndex(Frame& cur);

  /// Advances `r` (active at `parent`) across `t` into the current frame.
  void AdvanceRun(const Frame& parent, const Run& r,
                  const automata::FlatNfa::Transition& t,
                  const AttrProvider& attrs);

  /// Phase 2 of Enter (and of the constructor's document frame): the
  /// worklist over the current frame's runs.
  void RunWorklist(const AttrProvider& attrs);

  /// Handles acceptance of `run` at the current frame.
  void HandleAccepts(const Run& run, const AttrProvider& attrs);

  /// Eagerly instantiates predicates the run may charge at this node
  /// (transition src_preds and accept guards).
  void EagerInstantiate(const Run& run, const AttrProvider& attrs);

  /// Adds `guard` to the witness list of `leaf` of instance `owner`,
  /// keeping the list dominance-pruned: a guard some listed witness is a
  /// subset of is dropped, and listed supersets of it are unlinked.
  void Witness(InstId owner, int leaf, GuardRef guard);
  /// Witnesses `leaf` of every instance on `owners`.
  void WitnessAll(OwnerList owners, int leaf, GuardRef guard);
  OwnerList Cons(InstId inst, OwnerList tail);
  void ResolveFrame(Frame* frame);
  /// Bytes reserved by the witness, Cans and guard-set arenas.
  uint64_t ArenaBytes() const;

  /// Pooled frame stack: entries [0, depth_) are active; popped frames
  /// keep their buffers for reuse.
  Frame& CurFrame() { return stack_[depth_ - 1]; }
  Frame& PushFrame(int32_t id);
  void PopFrame() { --depth_; }

  const automata::Mfa& mfa_;
  GuardPool pool_;
  std::vector<Frame> stack_;
  size_t depth_ = 0;
  /// Engine-level run-dedup table (hashed run dedup). Runs are only ever
  /// added to the top frame while its Enter executes, so one open-
  /// addressing table serves every frame: slots are stamped with the
  /// owning frame's epoch and slots from finished frames simply go stale —
  /// no per-frame clearing, no per-frame allocation. A slot holds the
  /// newest run index of one key; Frame::run_next chains the rest.
  std::vector<uint64_t> dedup_epoch_;
  std::vector<int32_t> dedup_head_;
  uint64_t frame_epoch_ = 0;
  std::vector<PredInstance> instances_;
  std::vector<OwnerNode> owner_nodes_;  // per-traversal owner-list arena
  /// One conditional witness of a predicate leaf: a node of a singly
  /// linked list threaded through `witness_nodes_`.
  struct WitnessNode {
    GuardRef guard;
    int32_t next;  ///< next node of the same list, or -1
  };
  /// Witness-list heads, PredInstance::witness_base + leaf; -1 = empty.
  /// A resolved instance's lists are emptied; their nodes stay in the
  /// arena until the traversal ends.
  std::vector<int32_t> witness_heads_;
  std::vector<WitnessNode> witness_nodes_;
  /// ResolveFrame's per-instance leaf outcomes, reused across instances.
  std::vector<bool> leaf_values_;
  Cans cans_;
  EvalStats stats_;
  std::vector<int32_t> answers_;
  int32_t next_id_ = 0;
  uint64_t alloc_bytes_ = 0;  // drained by TakeAllocBytes()
  /// Arena bytes (ArenaBytes()) already reported by TakeAllocBytes.
  uint64_t arena_bytes_charged_ = 0;
  bool finished_ = false;
  /// Runs at the front of the current frame whose accepts the worklist
  /// has handled (ShareRun's delta rule).
  size_t accepted_ = 0;
};

}  // namespace smoqe::eval

#endif  // SMOQE_EVAL_ENGINE_H_
