#include "src/eval/batch.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "src/common/strings.h"
#include "src/eval/engine.h"
#include "src/xml/stax.h"

namespace smoqe::eval {

namespace {

class StaxAttrs : public AttrProvider {
 public:
  StaxAttrs(const std::vector<xml::StaxAttr>& attrs,
            const xml::NameTable& names)
      : attrs_(attrs), names_(names) {}

  const char* Find(xml::NameId name) const override {
    const std::string& want = names_.NameOf(name);
    for (const xml::StaxAttr& a : attrs_) {
      if (a.name == want) return a.value.c_str();
    }
    return nullptr;
  }

 private:
  const std::vector<xml::StaxAttr>& attrs_;
  const xml::NameTable& names_;
};

/// Attribute view over a slice of a chunk's decoded attributes (the
/// parallel driver's analogue of StaxAttrs).
class SliceAttrs : public AttrProvider {
 public:
  SliceAttrs(const xml::StaxAttr* begin, const xml::StaxAttr* end,
             const xml::NameTable& names)
      : begin_(begin), end_(end), names_(names) {}

  const char* Find(xml::NameId name) const override {
    const std::string& want = names_.NameOf(name);
    for (const xml::StaxAttr* a = begin_; a != end_; ++a) {
      if (a->name == want) return a->value.c_str();
    }
    return nullptr;
  }

 private:
  const xml::StaxAttr* begin_;
  const xml::StaxAttr* end_;
  const xml::NameTable& names_;
};

/// \brief The shared answer-capture state machine, factored out so the
/// serial scan (Run) and the parallel merge (RunParallel) produce
/// byte-identical captures by construction.
///
/// One capture per staged element regardless of how many plans staged
/// it, keyed by the driver's document pre-order node id. Each outermost
/// capture opens a block, and every event inside it is appended to that
/// block once; a nested capture is a [begin, end) span of its outermost
/// block, so bytes stay O(captured subtree), not O(Σ nested subtrees).
/// Answers are copied out of the blocks at AssembleResults.
///
/// Start tags are held open ("<name a=\"v\"" without the '>') and closed
/// lazily, so empty elements serialize as "<name/>" exactly like the DOM
/// serializer (captures and SerializeNode must agree byte-for-byte).
class CaptureStream {
 public:
  /// A finished capture: `len` bytes at `begin` of blocks()[block].
  struct Span {
    uint32_t block;
    size_t begin;
    size_t len;
  };

  /// `staged` says some plan put this element in its Cans at Enter.
  void StartElement(const std::string& name,
                    const xml::StaxAttr* attrs_begin,
                    const xml::StaxAttr* attrs_end, int depth,
                    int32_t node_id, bool staged) {
    if (open_.empty()) {
      if (!staged) return;
      blocks_.emplace_back();
    }
    std::string& buf = blocks_.back();
    const size_t before = buf.size();
    CloseStartTag(buf);
    if (staged) open_.push_back(Open{node_id, buf.size(), depth});
    buf += '<';
    buf += name;
    for (const xml::StaxAttr* a = attrs_begin; a != attrs_end; ++a) {
      buf += ' ';
      buf += a->name;
      buf += "=\"";
      AppendXmlEscaped(a->value, &buf);
      buf += '"';
    }
    tag_open_ = true;
    appended_ += buf.size() - before;
  }

  void Text(std::string_view raw) {
    if (open_.empty()) return;
    std::string& buf = blocks_.back();
    const size_t before = buf.size();
    CloseStartTag(buf);
    AppendXmlEscaped(raw, &buf);
    appended_ += buf.size() - before;
  }

  void EndElement(const std::string& name, int depth) {
    if (open_.empty()) return;
    std::string& buf = blocks_.back();
    const size_t before = buf.size();
    if (tag_open_) {
      // The closing element is empty: finish it as a self-closing tag.
      buf += "/>";
      tag_open_ = false;
    } else {
      buf += "</";
      buf += name;
      buf += '>';
    }
    appended_ += buf.size() - before;
    peak_buffered_ = std::max(peak_buffered_, buf.size());
    if (open_.back().open_depth == depth + 1) {
      const Open& c = open_.back();
      finished_.emplace(c.node_id,
                        Span{static_cast<uint32_t>(blocks_.size() - 1),
                             c.begin, buf.size() - c.begin});
      open_.pop_back();
    }
  }

  const std::map<int32_t, Span>& finished() const { return finished_; }
  const std::vector<std::string>& blocks() const { return blocks_; }
  /// Largest outermost capture block: the most capture bytes open at once.
  size_t peak_buffered() const { return peak_buffered_; }
  /// Monotone total of capture bytes written; drivers charge the delta
  /// since their last guard tick into the request MemoryBudget.
  uint64_t appended() const { return appended_; }

 private:
  /// An in-flight capture: its node, where its bytes begin in the
  /// current block, and the reader depth at which it started.
  struct Open {
    int32_t node_id;
    size_t begin;
    int open_depth;
  };

  void CloseStartTag(std::string& buf) {
    if (tag_open_) {
      buf += '>';
      tag_open_ = false;
    }
  }

  std::vector<Open> open_;          // innermost last
  std::vector<std::string> blocks_;  // one per outermost capture
  std::map<int32_t, Span> finished_;
  size_t peak_buffered_ = 0;
  uint64_t appended_ = 0;
  bool tag_open_ = false;  // the current block has an unclosed start tag
};

/// Per-plan evaluation state: the plan's own engine (runs, guards,
/// frames) plus the skip window and the engine-id → document-node map
/// used to demultiplex shared captures back into per-plan answers.
/// Confinement (DESIGN.md §7): under RunParallel each PlanState is
/// advanced by exactly one worker per chunk; the driver thread reads
/// `staged_events` only after the chunk's join.
struct PlanState {
  explicit PlanState(const automata::Mfa& mfa) : engine(mfa) {}

  HypeEngine engine;
  /// Reader depth of the element whose subtree this plan is skipping
  /// (dead-run / TAX pruning), or -1 when the plan is live. While
  /// skipping, the plan receives no events except direct text of the
  /// skipped element itself when `skip_needs_text` is set.
  int skip_depth = -1;
  bool skip_needs_text = false;
  /// (engine id, driver node id) of each element this plan staged as a
  /// candidate, in ascending order (candidates are discovered at Enter).
  /// Plans skip independently, so the two numberings drift apart per
  /// plan; only candidates are recorded, keeping streaming memory
  /// O(candidates) — not O(document) — like the captures themselves.
  std::vector<std::pair<int32_t, int32_t>> candidate_nodes;
  /// Chunk-local indexes of start events this plan staged (parallel
  /// driver only; cleared per chunk, read by the driver after the join).
  std::vector<uint32_t> staged_events;
};

/// One decoded event of a tokenizer chunk.
struct TokEvent {
  xml::StaxEvent kind;
  int depth;
  xml::NameId label = xml::kNoName;  ///< start elements
  int32_t node_id = -1;              ///< start elements
  uint32_t attr_begin = 0;           ///< start elements: [begin, end) into
  uint32_t attr_end = 0;             ///<   TokChunk::attrs
  uint32_t str = 0;  ///< start/end: element name; text: raw text
};

/// A chunk of decoded, interned events — the unit of fork/join work the
/// parallel driver hands to plan groups. Buffers are reused across
/// refills.
struct TokChunk {
  std::vector<TokEvent> events;
  std::vector<xml::StaxAttr> attrs;
  std::vector<std::string> strings;

  void Clear() {
    events.clear();
    attrs.clear();
    strings.clear();
  }
};

/// Decodes up to `max_events` events into `out` (cleared first). Start
/// labels are interned here, on the driver thread — workers only ever
/// read the name table. `ticker` polls the request guard per event.
/// Returns true once kEndDocument was consumed.
Result<bool> FillChunk(xml::StaxReader& reader, xml::NameTable* names,
                       int32_t* next_node_id, size_t max_events,
                       GuardTicker& ticker, TokChunk* out) {
  out->Clear();
  while (out->events.size() < max_events) {
    if (ticker.Due()) SMOQE_RETURN_IF_ERROR(ticker.Now());
    SMOQE_ASSIGN_OR_RETURN(xml::StaxEvent ev, reader.Next());
    switch (ev) {
      case xml::StaxEvent::kStartDocument:
        continue;
      case xml::StaxEvent::kEndDocument:
        return true;
      case xml::StaxEvent::kStartElement: {
        TokEvent e;
        e.kind = ev;
        e.depth = reader.depth();
        e.label = names->Intern(reader.name());
        e.node_id = (*next_node_id)++;
        e.attr_begin = static_cast<uint32_t>(out->attrs.size());
        for (const xml::StaxAttr& a : reader.attrs()) out->attrs.push_back(a);
        e.attr_end = static_cast<uint32_t>(out->attrs.size());
        e.str = static_cast<uint32_t>(out->strings.size());
        out->strings.push_back(reader.name());
        out->events.push_back(e);
        break;
      }
      case xml::StaxEvent::kEndElement: {
        TokEvent e;
        e.kind = ev;
        e.depth = reader.depth();
        e.str = static_cast<uint32_t>(out->strings.size());
        out->strings.push_back(reader.name());
        out->events.push_back(e);
        break;
      }
      case xml::StaxEvent::kCharacters: {
        TokEvent e;
        e.kind = ev;
        e.depth = reader.depth();
        e.str = static_cast<uint32_t>(out->strings.size());
        out->strings.push_back(reader.text());
        out->events.push_back(e);
        break;
      }
    }
  }
  return false;
}

/// Advances one plan through a whole chunk — the same per-plan logic the
/// serial scan applies per event, so the engine sees an identical
/// Enter/Text/Leave sequence. `ticker` polls the request guard per event;
/// a trip stops the plan mid-chunk and is returned (the plan is then
/// unusable and the caller fails the call).
Status AdvancePlanOverChunk(PlanState& ps, const TokChunk& chunk,
                            const xml::NameTable& names,
                            GuardTicker& ticker) {
  ps.staged_events.clear();
  for (uint32_t i = 0; i < chunk.events.size(); ++i) {
    if (ticker.Due()) SMOQE_RETURN_IF_ERROR(ticker.Now());
    const TokEvent& ev = chunk.events[i];
    switch (ev.kind) {
      case xml::StaxEvent::kStartElement: {
        if (ps.skip_depth >= 0) {
          ps.engine.mutable_stats()->nodes_pruned += 1;
          break;
        }
        SliceAttrs attrs(chunk.attrs.data() + ev.attr_begin,
                         chunk.attrs.data() + ev.attr_end, names);
        size_t candidates_before = ps.engine.cans().node_count();
        int32_t engine_id = ps.engine.next_id();
        HypeEngine::EnterResult r = ps.engine.Enter(ev.label, attrs);
        if (ps.engine.cans().node_count() > candidates_before) {
          ps.staged_events.push_back(i);
          ps.candidate_nodes.emplace_back(engine_id, ev.node_id);
        }
        if (r.can_skip_subtree) {
          ps.skip_depth = ev.depth;
          ps.skip_needs_text = r.needs_direct_text;
        }
        break;
      }
      case xml::StaxEvent::kCharacters: {
        if (ps.skip_depth >= 0) {
          if (ps.skip_needs_text && ev.depth == ps.skip_depth) {
            ps.engine.Text(chunk.strings[ev.str]);
          }
        } else {
          ps.engine.Text(chunk.strings[ev.str]);
        }
        break;
      }
      case xml::StaxEvent::kEndElement: {
        if (ps.skip_depth >= 0) {
          if (ev.depth == ps.skip_depth - 1) {
            ps.engine.Leave();  // the Leave matching the skip root's Enter
            ps.skip_depth = -1;
          }
        } else {
          ps.engine.Leave();
        }
        break;
      }
      case xml::StaxEvent::kStartDocument:
      case xml::StaxEvent::kEndDocument:
        break;  // never stored in chunks
    }
  }
  return Status::OK();
}

/// Demultiplexes each plan's answer ids into serialized answers via its
/// candidate map and the shared finished-capture table: only candidates
/// that became answers are copied out of their capture block. The copies
/// are charged to `guard` (nullptr = ungoverned) before they are made.
Result<std::vector<StaxEvalResult>> AssembleResults(
    std::vector<std::unique_ptr<PlanState>>& states,
    const CaptureStream& cap, const Guardrail* guard) {
  std::vector<StaxEvalResult> results(states.size());
  for (size_t k = 0; k < states.size(); ++k) {
    PlanState& ps = *states[k];
    const std::vector<int32_t>& ids = ps.engine.FinishDocument();
    StaxEvalResult& out = results[k];
    std::vector<CaptureStream::Span> spans;
    spans.reserve(ids.size());
    uint64_t copied = 0;
    for (int32_t id : ids) {
      // Answers are candidates, so the binary search always lands.
      auto cand = std::lower_bound(ps.candidate_nodes.begin(),
                                   ps.candidate_nodes.end(),
                                   std::make_pair(id, INT32_MIN));
      auto it = cand == ps.candidate_nodes.end() || cand->first != id
                    ? cap.finished().end()
                    : cap.finished().find(cand->second);
      if (it == cap.finished().end()) {
        return Status::Internal("plan " + std::to_string(k) + " answer " +
                                std::to_string(id) + " was never captured");
      }
      spans.push_back(it->second);
      copied += it->second.len;
    }
    if (guard != nullptr) {
      guard->ChargeBytes(copied);
      SMOQE_RETURN_IF_ERROR(guard->Check());
    }
    out.answers.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const CaptureStream::Span& sp = spans[i];
      out.answers.push_back(StaxAnswer{
          ids[i], cap.blocks()[sp.block].substr(sp.begin, sp.len)});
    }
    out.stats = ps.engine.stats();
    // The capture footprint is shared by the whole batch; every plan
    // reports the pass-wide peak.
    out.stats.buffered_bytes = cap.peak_buffered();
    out.stats.batch_plans = states.size();
  }
  return results;
}

/// One fresh engine per plan, once every plan is checked to share the
/// first plan's name table.
Result<std::vector<std::unique_ptr<PlanState>>> MakePlanStates(
    const std::vector<const automata::Mfa*>& plans) {
  std::vector<std::unique_ptr<PlanState>> states;
  states.reserve(plans.size());
  for (const automata::Mfa* mfa : plans) {
    if (mfa->names() != plans[0]->names()) {
      return Status::InvalidArgument(
          "batch plans must share one name table (compile every query "
          "against the same corpus)");
    }
    states.push_back(std::make_unique<PlanState>(*mfa));
  }
  return states;
}

}  // namespace

BatchEvaluator::BatchEvaluator(BatchStaxOptions options)
    : options_(options) {}

int BatchEvaluator::AddPlan(const automata::Mfa* mfa) {
  plans_.push_back(mfa);
  return static_cast<int>(plans_.size()) - 1;
}

Result<std::vector<StaxEvalResult>> BatchEvaluator::Run(
    std::string_view xml) const {
  if (plans_.empty()) return std::vector<StaxEvalResult>{};
  SMOQE_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<PlanState>> states,
                         MakePlanStates(plans_));
  xml::NameTable* names = plans_[0]->names().get();

  xml::StaxOptions stax_options;
  stax_options.skip_whitespace_text = options_.skip_whitespace_text;
  xml::StaxReader reader(xml, stax_options);

  size_t live_plans = states.size();  // plans not currently skipping

  CaptureStream cap;
  int32_t next_node_id = 0;
  GuardTicker ticker(options_.guard);
  uint64_t charged_capture = 0;

  while (true) {
    if (ticker.Due()) {
      uint64_t bytes = cap.appended() - charged_capture;
      charged_capture = cap.appended();
      for (auto& ps : states) bytes += ps->engine.TakeAllocBytes();
      options_.guard->ChargeBytes(bytes);
      SMOQE_RETURN_IF_ERROR(ticker.Now());
    }
    SMOQE_ASSIGN_OR_RETURN(xml::StaxEvent ev, reader.Next());
    const int depth = reader.depth();

    switch (ev) {
      case xml::StaxEvent::kStartDocument:
        continue;
      case xml::StaxEvent::kStartElement: {
        const int32_t node_id = next_node_id++;
        bool stage_capture = false;
        if (live_plans > 0) {
          // Shared per-event work: one intern, one attribute view.
          xml::NameId label = names->Intern(reader.name());
          StaxAttrs attrs(reader.attrs(), *names);
          for (auto& ps : states) {
            if (ps->skip_depth >= 0) {
              ps->engine.mutable_stats()->nodes_pruned += 1;
              continue;
            }
            size_t candidates_before = ps->engine.cans().node_count();
            int32_t engine_id = ps->engine.next_id();
            HypeEngine::EnterResult r = ps->engine.Enter(label, attrs);
            if (ps->engine.cans().node_count() > candidates_before) {
              stage_capture = true;
              ps->candidate_nodes.emplace_back(engine_id, node_id);
            }
            if (r.can_skip_subtree) {
              ps->skip_depth = depth;
              ps->skip_needs_text = r.needs_direct_text;
              --live_plans;
            }
          }
        } else {
          for (auto& ps : states) {
            ps->engine.mutable_stats()->nodes_pruned += 1;
          }
        }
        cap.StartElement(reader.name(), reader.attrs().data(),
                         reader.attrs().data() + reader.attrs().size(), depth,
                         node_id, stage_capture);
        break;
      }
      case xml::StaxEvent::kCharacters: {
        for (auto& ps : states) {
          if (ps->skip_depth >= 0) {
            if (ps->skip_needs_text && depth == ps->skip_depth) {
              ps->engine.Text(reader.text());
            }
          } else {
            ps->engine.Text(reader.text());
          }
        }
        cap.Text(reader.text());
        break;
      }
      case xml::StaxEvent::kEndElement: {
        cap.EndElement(reader.name(), depth);
        for (auto& ps : states) {
          if (ps->skip_depth >= 0) {
            if (depth == ps->skip_depth - 1) {
              ps->engine.Leave();  // the Leave matching the skip root's Enter
              ps->skip_depth = -1;
              ++live_plans;
            }
          } else {
            ps->engine.Leave();
          }
        }
        break;
      }
      case xml::StaxEvent::kEndDocument:
        SMOQE_RETURN_IF_ERROR(ticker.Now());
        return AssembleResults(states, cap, options_.guard);
    }
  }
}

Result<std::vector<StaxEvalResult>> BatchEvaluator::RunParallel(
    std::string_view xml, const BatchParallelOptions& par) const {
  // Workers advance plans while the caller tokenizes, so parallelism
  // needs a pool with at least one worker and two plans to group.
  if (par.pool == nullptr || par.pool->thread_count() < 2 ||
      plans_.size() < 2) {
    return Run(xml);
  }
  ThreadPool& pool = *par.pool;
  const size_t workers = static_cast<size_t>(pool.thread_count()) - 1;
  SMOQE_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<PlanState>> states,
                         MakePlanStates(plans_));
  xml::NameTable* names = plans_[0]->names().get();

  // Contiguous plan stripes, one per worker task.
  const size_t groups = std::min(workers, states.size());
  auto group_range = [&](size_t g) {
    const size_t per = states.size() / groups;
    const size_t extra = states.size() % groups;
    const size_t begin = g * per + std::min(g, extra);
    return std::make_pair(begin, begin + per + (g < extra ? 1 : 0));
  };

  xml::StaxOptions stax_options;
  stax_options.skip_whitespace_text = options_.skip_whitespace_text;
  xml::StaxReader reader(xml, stax_options);

  const size_t chunk_events = par.chunk_events == 0 ? 4096 : par.chunk_events;
  TokChunk cur, next;
  int32_t next_node_id = 0;
  // The driver polls while tokenizing too: a chunk's decode can outlast
  // the plans' advance through the previous one.
  GuardTicker tok_ticker(options_.guard);
  SMOQE_ASSIGN_OR_RETURN(
      bool eof, FillChunk(reader, names, &next_node_id, chunk_events,
                          tok_ticker, &cur));

  CaptureStream cap;
  std::vector<uint8_t> staged;
  uint64_t charged_capture = 0;
  std::vector<Status> group_status(groups, Status::OK());
  // A tripped guard returns at once: the plan states of a wide batch are
  // thousands of small allocations per plan, so they are freed on the
  // pool rather than on the caller's deadline.
  auto trip = [&](Status st) {
    auto doomed = std::make_shared<decltype(states)>(std::move(states));
    pool.Submit([doomed] { doomed->clear(); });
    return st;
  };
  // One group's share of a chunk: advance its plans through `cur`.
  const std::function<void(size_t)> advance_group = [&](size_t g) {
    auto [begin, end] = group_range(g);
    // Poll inside the chunk: its wall time grows with the batch width, so
    // the per-chunk check below alone would let deadline detection lag by
    // a whole chunk of a wide batch. A tripped group stops; the caller
    // fails the call after the join.
    GuardTicker ticker(options_.guard);
    for (size_t k = begin; k < end && group_status[g].ok(); ++k) {
      group_status[g] = AdvancePlanOverChunk(*states[k], cur, *names, ticker);
    }
  };
  while (!cur.events.empty()) {
    const auto chunk_t0 = par.chunk_ns != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point();
    // Fork: the groups advance their plans through `cur`…
    ThreadPool::Forked chunk = pool.Fork(groups, advance_group);
    // …while the caller tokenizes the next chunk behind the same reader.
    Status tok_status = Status::OK();
    if (!eof) {
      auto r = FillChunk(reader, names, &next_node_id, chunk_events,
                         tok_ticker, &next);
      if (r.ok()) {
        eof = *r;
      } else {
        tok_status = r.status();
      }
    } else {
      next.Clear();
    }
    // On a saturated pool (nested batches via QueryBatchMulti, or
    // smoqed's requests) this thread advances the groups no worker has
    // claimed yet itself, so it never waits on a queued task — and it
    // never runs a task that is not this chunk's.
    chunk.Join();
    if (!tok_status.ok()) return trip(std::move(tok_status));
    // A group that stopped early left its plans mid-chunk: fail closed.
    for (Status& st : group_status) {
      if (!st.ok()) return trip(std::move(st));
    }

    // Join: merge the groups' staging reports, then replay the shared
    // capture stream for this chunk on the driver thread.
    staged.assign(cur.events.size(), 0);
    for (auto& ps : states) {
      for (uint32_t i : ps->staged_events) staged[i] = 1;
    }
    for (uint32_t i = 0; i < cur.events.size(); ++i) {
      const TokEvent& ev = cur.events[i];
      switch (ev.kind) {
        case xml::StaxEvent::kStartElement:
          cap.StartElement(cur.strings[ev.str],
                           cur.attrs.data() + ev.attr_begin,
                           cur.attrs.data() + ev.attr_end, ev.depth,
                           ev.node_id, staged[i] != 0);
          break;
        case xml::StaxEvent::kCharacters:
          cap.Text(cur.strings[ev.str]);
          break;
        case xml::StaxEvent::kEndElement:
          cap.EndElement(cur.strings[ev.str], ev.depth);
          break;
        case xml::StaxEvent::kStartDocument:
        case xml::StaxEvent::kEndDocument:
          break;
      }
    }
    if (par.chunk_ns != nullptr) {
      par.chunk_ns->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - chunk_t0)
              .count()));
    }
    // Per-chunk guard tick on the driver thread — the workers have
    // joined, so the engines' allocation counters are safe to drain. A
    // chunk bounds deadline-detection latency to a few thousand events.
    if (options_.guard != nullptr) {
      uint64_t bytes = cap.appended() - charged_capture;
      charged_capture = cap.appended();
      for (auto& ps : states) bytes += ps->engine.TakeAllocBytes();
      options_.guard->ChargeBytes(bytes);
      Status st = options_.guard->Check();
      if (!st.ok()) return trip(std::move(st));
    }
    std::swap(cur, next);
  }

  // Final Cans selection per plan is independent — fan it out too.
  pool.ParallelFor(states.size(),
                   [&](size_t k) { states[k]->engine.FinishDocument(); });
  return AssembleResults(states, cap, options_.guard);
}

EvalStats BatchEvaluator::AggregateStats(
    const std::vector<StaxEvalResult>& results) {
  EvalStats total;
  for (const StaxEvalResult& r : results) total.MergeFrom(r.stats);
  return total;
}

Result<std::vector<StaxEvalResult>> EvalHypeStaxBatch(
    const std::vector<const automata::Mfa*>& plans, std::string_view xml,
    const BatchStaxOptions& options) {
  BatchEvaluator batch(options);
  for (const automata::Mfa* mfa : plans) batch.AddPlan(mfa);
  return batch.Run(xml);
}

}  // namespace smoqe::eval
