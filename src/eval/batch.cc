#include "src/eval/batch.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/strings.h"
#include "src/eval/engine.h"
#include "src/xml/stax.h"

namespace smoqe::eval {

namespace {

/// One decoded event as both drivers hand it to the plans and to the
/// capture stream. `str` is the element name (start/end) or the raw text
/// (characters): `str_len` bytes, a view of the document text or of
/// bytes the driver keeps alive for the event's lifetime. The other
/// fields are set on start elements only. A pointer and a 32-bit length
/// (documents are capped at 4 GiB, see CheckSize) keep the event at 40
/// bytes; every plan reads every event.
struct ScanEvent {
  xml::StaxEvent kind;
  int depth;
  const char* str;
  uint32_t str_len;
  /// Interned label; kNoName while every plan skips (a skipping plan
  /// never reads it).
  xml::NameId label = xml::kNoName;
  int32_t node_id = -1;  ///< the driver's document pre-order id
  uint32_t num_attrs = 0;
  const xml::StaxAttr* attrs = nullptr;

  std::string_view view() const { return std::string_view(str, str_len); }
};

/// The 32-bit string lengths of ScanEvent (and the chunks' decoded-byte
/// offsets) cover every name, text run and attribute value of a document
/// under 4 GiB: a decoded string is never longer than its source bytes.
Status CheckSize(std::string_view xml) {
  if (xml.size() > UINT32_MAX) {
    return Status::InvalidArgument(
        "StAX evaluation takes documents under 4 GiB");
  }
  return Status::OK();
}

void SetStr(ScanEvent* ev, std::string_view s) {
  ev->str = s.data();
  ev->str_len = static_cast<uint32_t>(s.size());
}

/// Attribute view over the `n` decoded attributes at `attrs`.
class AttrRange : public AttrProvider {
 public:
  AttrRange(const xml::StaxAttr* attrs, uint32_t n,
            const xml::NameTable& names)
      : attrs_(attrs), n_(n), names_(names) {}

  std::optional<std::string_view> Find(xml::NameId name) const override {
    const std::string& want = names_.NameOf(name);
    for (uint32_t i = 0; i < n_; ++i) {
      if (attrs_[i].name == want) return attrs_[i].value;
    }
    return std::nullopt;
  }

 private:
  const xml::StaxAttr* attrs_;
  uint32_t n_;
  const xml::NameTable& names_;
};

/// \brief The shared answer-capture state machine, factored out so the
/// serial scan (Run) and the parallel merge (RunParallel) produce
/// byte-identical captures by construction.
///
/// One capture per staged element regardless of how many plans staged
/// it, keyed by the driver's document pre-order node id. All captures
/// share one growing byte buffer: every event inside an outermost capture
/// is appended once, and each capture (nested or outermost) is a
/// [begin, begin + len) span of it, so bytes stay O(captured subtrees),
/// not O(Σ nested subtrees), and a capture costs no allocation of its
/// own. Finished spans are collected in close order and sorted by node
/// id once the scan is over (Seal); answers are copied out at
/// AssembleOne.
///
/// Start tags are held open ("<name a=\"v\"" without the '>') and closed
/// lazily, so empty elements serialize as "<name/>" exactly like the DOM
/// serializer (captures and SerializeNode must agree byte-for-byte).
class CaptureStream {
 public:
  /// A finished capture: `len` bytes at `begin` of bytes().
  struct Span {
    int32_t node_id;
    size_t begin;
    size_t len;
  };

  /// Appends one scan event; `staged` (start elements) says some plan
  /// put the element in its Cans at Enter.
  void Append(const ScanEvent& ev, bool staged) {
    switch (ev.kind) {
      case xml::StaxEvent::kStartElement:
        StartElement(ev, staged);
        break;
      case xml::StaxEvent::kCharacters:
        Text(ev.view());
        break;
      case xml::StaxEvent::kEndElement:
        EndElement(ev.view(), ev.depth);
        break;
      case xml::StaxEvent::kStartDocument:
      case xml::StaxEvent::kEndDocument:
        break;
    }
  }

  /// Sorts the finished captures by node id; call once, after the last
  /// Append and before Find.
  void Seal() {
    std::sort(finished_.begin(), finished_.end(),
              [](const Span& a, const Span& b) {
                return a.node_id < b.node_id;
              });
  }
  /// The finished capture of `node_id`, or nullptr (after Seal).
  const Span* Find(int32_t node_id) const {
    auto it = std::lower_bound(
        finished_.begin(), finished_.end(), node_id,
        [](const Span& s, int32_t id) { return s.node_id < id; });
    return it == finished_.end() || it->node_id != node_id ? nullptr : &*it;
  }
  std::string_view bytes() const { return buf_; }
  /// Largest outermost capture: the most capture bytes open at once.
  size_t peak_buffered() const { return peak_buffered_; }
  /// Capture bytes written since the last call (charged into the request
  /// MemoryBudget by ChargeAndCheck).
  uint64_t TakeAppended() { return std::exchange(appended_, 0); }

 private:
  /// An in-flight capture: its node, where its bytes begin in the
  /// buffer, and the reader depth at which it started.
  struct Open {
    int32_t node_id;
    size_t begin;
    int open_depth;
  };

  void StartElement(const ScanEvent& ev, bool staged) {
    if (open_.empty()) {
      if (!staged) return;
      outer_begin_ = buf_.size();
    }
    const size_t before = buf_.size();
    CloseStartTag();
    if (staged) open_.push_back(Open{ev.node_id, buf_.size(), ev.depth});
    buf_ += '<';
    buf_ += ev.view();
    for (uint32_t i = 0; i < ev.num_attrs; ++i) {
      buf_ += ' ';
      buf_ += ev.attrs[i].name;
      buf_ += "=\"";
      AppendXmlEscaped(ev.attrs[i].value, &buf_);
      buf_ += '"';
    }
    tag_open_ = true;
    appended_ += buf_.size() - before;
  }

  void Text(std::string_view raw) {
    if (open_.empty()) return;
    const size_t before = buf_.size();
    CloseStartTag();
    AppendXmlEscaped(raw, &buf_);
    appended_ += buf_.size() - before;
  }

  void EndElement(std::string_view name, int depth) {
    if (open_.empty()) return;
    const size_t before = buf_.size();
    if (tag_open_) {
      // The closing element is empty: finish it as a self-closing tag.
      buf_ += "/>";
      tag_open_ = false;
    } else {
      buf_ += "</";
      buf_ += name;
      buf_ += '>';
    }
    appended_ += buf_.size() - before;
    peak_buffered_ = std::max(peak_buffered_, buf_.size() - outer_begin_);
    if (open_.back().open_depth == depth + 1) {
      const Open& c = open_.back();
      finished_.push_back(Span{c.node_id, c.begin, buf_.size() - c.begin});
      open_.pop_back();
    }
  }

  void CloseStartTag() {
    if (tag_open_) {
      buf_ += '>';
      tag_open_ = false;
    }
  }

  std::vector<Open> open_;  // innermost last
  std::string buf_;         // every capture's bytes
  size_t outer_begin_ = 0;  // where the current outermost capture begins
  std::vector<Span> finished_;  // close order until Seal, then by node id
  size_t peak_buffered_ = 0;
  uint64_t appended_ = 0;  // since the last TakeAppended
  bool tag_open_ = false;  // buf_ ends in an unclosed start tag
};

/// Per-plan evaluation state: the plan's own engine (runs, guards,
/// frames) plus the skip window and the engine-id → document-node map
/// used to demultiplex shared captures back into per-plan answers.
/// Confinement (DESIGN.md §7): under RunParallel each PlanState is
/// advanced by exactly one thread per chunk; the driver thread reads
/// `staged_events` only after the chunk's join.
struct PlanState {
  explicit PlanState(const automata::Mfa& mfa) : engine(mfa) {}

  bool skipping() const { return skip_depth >= 0; }

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

/// The per-plan event step both drivers run, so every engine sees the
/// same Enter/Text/Leave sequence whichever driver feeds it. A skipping
/// plan counts skipped elements as pruned and receives nothing but the
/// skip root's direct text (when its guards need it) and the Leave that
/// matches the skip root's Enter. Returns true when the plan staged a
/// start element as a candidate.
bool StepPlan(PlanState& ps, const ScanEvent& ev,
              const xml::NameTable& names) {
  switch (ev.kind) {
    case xml::StaxEvent::kStartElement: {
      if (ps.skipping()) {
        ps.engine.mutable_stats()->nodes_pruned += 1;
        return false;
      }
      AttrRange attrs(ev.attrs, ev.num_attrs, names);
      const size_t candidates_before = ps.engine.cans().node_count();
      const int32_t engine_id = ps.engine.next_id();
      HypeEngine::EnterResult r = ps.engine.Enter(ev.label, attrs);
      if (r.can_skip_subtree) {
        ps.skip_depth = ev.depth;
        ps.skip_needs_text = r.needs_direct_text;
      }
      if (ps.engine.cans().node_count() == candidates_before) return false;
      ps.candidate_nodes.emplace_back(engine_id, ev.node_id);
      return true;
    }
    case xml::StaxEvent::kCharacters:
      if (!ps.skipping() ||
          (ps.skip_needs_text && ev.depth == ps.skip_depth)) {
        ps.engine.Text(ev.view());
      }
      return false;
    case xml::StaxEvent::kEndElement:
      if (!ps.skipping()) {
        ps.engine.Leave();
      } else if (ev.depth == ps.skip_depth - 1) {
        ps.engine.Leave();  // the Leave matching the skip root's Enter
        ps.skip_depth = -1;
      }
      return false;
    case xml::StaxEvent::kStartDocument:
    case xml::StaxEvent::kEndDocument:
      break;
  }
  return false;
}

/// A string of a chunk event: a view of the document text, or (when
/// `data` is null) `len` bytes at `off` of the chunk's `decoded` buffer,
/// which may still grow until the chunk is resolved.
struct TokStr {
  const char* data;
  uint32_t len;
  uint32_t off;
};

/// One decoded event of a tokenizer chunk.
struct TokEvent {
  xml::StaxEvent kind;
  int depth;
  xml::NameId label = xml::kNoName;  ///< start elements
  int32_t node_id = -1;              ///< start elements
  uint32_t attr_begin = 0;           ///< start elements: [begin, end) into
  uint32_t attr_end = 0;             ///<   TokChunk::attrs
  TokStr str;  ///< start/end: element name; text: raw text
};

/// An attribute of a chunk event; names are always views of the text.
struct TokAttr {
  std::string_view name;
  TokStr value;
};

/// A chunk of decoded, interned events — the unit of fork/join work the
/// parallel driver hands to the plans. Names, text and attribute values
/// are views of the document text; only the bytes the reader decoded
/// (which it keeps only until its next event) are copied, into the
/// chunk's one `decoded` buffer. Buffers are reused across refills.
struct TokChunk {
  std::vector<TokEvent> events;
  std::vector<TokAttr> attrs;
  std::string decoded;
  /// `events` and `attrs` with their strings resolved, built once the
  /// buffers stop growing: every plan reads these, so a plan skipping a
  /// subtree touches only an event's kind and depth.
  std::vector<ScanEvent> scan;
  std::vector<xml::StaxAttr> scan_attrs;
  /// Per event: some plan staged it (start elements). Filled after the
  /// plans' join, read by the capture replay one chunk later.
  std::vector<uint8_t> staged;

  void Clear() {
    events.clear();
    attrs.clear();
    decoded.clear();
    scan.clear();
    scan_attrs.clear();
    staged.clear();
  }

  /// Keeps `s`, an event string of `reader`'s current event.
  TokStr Keep(const xml::StaxReader& reader, std::string_view s) {
    const auto len = static_cast<uint32_t>(s.size());
    if (reader.IsInputView(s)) return TokStr{s.data(), len, 0};
    const TokStr kept{nullptr, len, static_cast<uint32_t>(decoded.size())};
    decoded.append(s);
    return kept;
  }

  const char* Data(const TokStr& s) const {
    return s.data != nullptr ? s.data : decoded.data() + s.off;
  }

  void Resolve() {
    for (const TokAttr& a : attrs) {
      scan_attrs.push_back(
          xml::StaxAttr{a.name, std::string_view(Data(a.value), a.value.len)});
    }
    for (const TokEvent& e : events) {
      scan.push_back(ScanEvent{e.kind, e.depth, Data(e.str), e.str.len,
                               e.label, e.node_id, e.attr_end - e.attr_begin,
                               scan_attrs.data() + e.attr_begin});
    }
  }
};

/// Decodes up to `max_events` events into `out` (cleared first) and
/// resolves them. Start labels are interned here, on the driver thread —
/// workers only ever read the name table. `ticker` polls the request
/// guard per event. Returns true once kEndDocument was consumed.
Result<bool> FillChunk(xml::StaxReader& reader, xml::NameTable* names,
                       int32_t* next_node_id, size_t max_events,
                       GuardTicker& ticker, TokChunk* out) {
  out->Clear();
  bool eof = false;
  while (!eof && out->events.size() < max_events) {
    if (ticker.Due()) SMOQE_RETURN_IF_ERROR(ticker.Now());
    SMOQE_ASSIGN_OR_RETURN(xml::StaxEvent ev, reader.Next());
    eof = ev == xml::StaxEvent::kEndDocument;
    if (eof || ev == xml::StaxEvent::kStartDocument) continue;
    TokEvent e;
    e.kind = ev;
    e.depth = reader.depth();
    e.str = out->Keep(reader, ev == xml::StaxEvent::kCharacters
                                  ? reader.text()
                                  : reader.name());
    if (ev == xml::StaxEvent::kStartElement) {
      e.label = names->Intern(reader.name());
      e.node_id = (*next_node_id)++;
      e.attr_begin = static_cast<uint32_t>(out->attrs.size());
      for (const xml::StaxAttr& a : reader.attrs()) {
        out->attrs.push_back(TokAttr{a.name, out->Keep(reader, a.value)});
      }
      e.attr_end = static_cast<uint32_t>(out->attrs.size());
    }
    out->events.push_back(e);
  }
  out->Resolve();
  return eof;
}

/// Advances one plan through a whole chunk with StepPlan, recording the
/// start events it staged. `ticker` polls the request guard per event; a
/// trip stops the plan mid-chunk and is returned (the plan is then
/// unusable and the caller fails the call).
Status AdvancePlanOverChunk(PlanState& ps, const TokChunk& chunk,
                            const xml::NameTable& names,
                            GuardTicker& ticker) {
  ps.staged_events.clear();
  for (uint32_t i = 0; i < chunk.events.size(); ++i) {
    if (ticker.Due()) SMOQE_RETURN_IF_ERROR(ticker.Now());
    if (StepPlan(ps, chunk.scan[i], names)) ps.staged_events.push_back(i);
  }
  return Status::OK();
}

/// The pass's budget charge: the capture bytes and every engine's
/// allocations since the last charge go into `guard`'s MemoryBudget, then
/// the guard is checked. It drains the engines' counters, so drivers call
/// it only while no worker is advancing a plan.
Status ChargeAndCheck(const Guardrail& guard, CaptureStream& cap,
                      const std::vector<std::unique_ptr<PlanState>>& states) {
  uint64_t bytes = cap.TakeAppended();
  for (const auto& ps : states) bytes += ps->engine.TakeAllocBytes();
  guard.ChargeBytes(bytes);
  return guard.Check();
}

/// Demultiplexes plan `k`'s answer ids into serialized answers via its
/// candidate map and the shared (sealed) finished-capture table: only
/// candidates that became answers are copied out of the capture buffer.
/// The copies are charged to `guard` (nullptr = ungoverned) before they
/// are made.
/// Plans are independent here, so the parallel driver runs one call per
/// plan on the pool.
Status AssembleOne(PlanState& ps, size_t k, size_t plan_count,
                   const CaptureStream& cap, const Guardrail* guard,
                   StaxEvalResult* out) {
  const std::vector<int32_t>& ids = ps.engine.FinishDocument();
  std::vector<CaptureStream::Span> spans;
  spans.reserve(ids.size());
  uint64_t copied = 0;
  for (int32_t id : ids) {
    // Answers are candidates, so the binary search always lands.
    auto cand = std::lower_bound(ps.candidate_nodes.begin(),
                                 ps.candidate_nodes.end(),
                                 std::make_pair(id, INT32_MIN));
    const CaptureStream::Span* span =
        cand == ps.candidate_nodes.end() || cand->first != id
            ? nullptr
            : cap.Find(cand->second);
    if (span == nullptr) {
      return Status::Internal("plan " + std::to_string(k) + " answer " +
                              std::to_string(id) + " was never captured");
    }
    spans.push_back(*span);
    copied += span->len;
  }
  if (guard != nullptr) {
    guard->ChargeBytes(copied);
    SMOQE_RETURN_IF_ERROR(guard->Check());
  }
  out->answers.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const CaptureStream::Span& sp = spans[i];
    out->answers.push_back(
        StaxAnswer{ids[i], std::string(cap.bytes().substr(sp.begin, sp.len))});
  }
  out->stats = ps.engine.stats();
  // The capture footprint is shared by the whole batch; every plan
  // reports the pass-wide peak.
  out->stats.buffered_bytes = cap.peak_buffered();
  out->stats.batch_plans = plan_count;
  return Status::OK();
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

BatchEvaluator::BatchEvaluator(const Guardrail* guard) : guard_(guard) {}

int BatchEvaluator::AddPlan(const automata::Mfa* mfa) {
  plans_.push_back(mfa);
  return static_cast<int>(plans_.size()) - 1;
}

Result<std::vector<StaxEvalResult>> BatchEvaluator::Run(
    std::string_view xml) const {
  if (plans_.empty()) return std::vector<StaxEvalResult>{};
  SMOQE_RETURN_IF_ERROR(CheckSize(xml));
  SMOQE_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<PlanState>> states,
                         MakePlanStates(plans_));
  xml::NameTable* names = plans_[0]->names().get();
  xml::StaxReader reader(xml);
  // Plans not currently skipping: while none is live, start tags are not
  // even interned.
  int live_plans = static_cast<int>(states.size());
  CaptureStream cap;
  int32_t next_node_id = 0;
  GuardTicker ticker(guard_);

  while (true) {
    if (ticker.Due()) {
      SMOQE_RETURN_IF_ERROR(ChargeAndCheck(*guard_, cap, states));
    }
    SMOQE_ASSIGN_OR_RETURN(xml::StaxEvent kind, reader.Next());
    ScanEvent ev{kind, reader.depth(), nullptr, 0};
    switch (kind) {
      case xml::StaxEvent::kStartDocument:
        continue;
      case xml::StaxEvent::kEndDocument: {
        // The tail since the last tick (all of a document under one tick
        // period) is charged before the answers are copied out.
        if (guard_ != nullptr) {
          SMOQE_RETURN_IF_ERROR(ChargeAndCheck(*guard_, cap, states));
        }
        cap.Seal();
        std::vector<StaxEvalResult> results(states.size());
        for (size_t k = 0; k < states.size(); ++k) {
          SMOQE_RETURN_IF_ERROR(AssembleOne(*states[k], k, states.size(),
                                            cap, guard_, &results[k]));
        }
        return results;
      }
      case xml::StaxEvent::kStartElement:
        SetStr(&ev, reader.name());
        if (live_plans > 0) ev.label = names->Intern(reader.name());
        ev.node_id = next_node_id++;
        ev.num_attrs = static_cast<uint32_t>(reader.attrs().size());
        ev.attrs = reader.attrs().data();
        break;
      case xml::StaxEvent::kEndElement:
        SetStr(&ev, reader.name());
        break;
      case xml::StaxEvent::kCharacters:
        SetStr(&ev, reader.text());
        break;
    }
    bool staged = false;
    for (auto& ps : states) {
      const bool was_skipping = ps->skipping();
      staged |= StepPlan(*ps, ev, *names);
      live_plans += static_cast<int>(was_skipping) -
                    static_cast<int>(ps->skipping());
    }
    cap.Append(ev, staged);
  }
}

Result<std::vector<StaxEvalResult>> BatchEvaluator::RunParallel(
    std::string_view xml, const BatchParallelOptions& par) const {
  // Workers advance plans while the caller tokenizes, so parallelism
  // needs a pool with at least one worker and two plans to share out.
  if (par.pool == nullptr || par.pool->thread_count() < 2 ||
      plans_.size() < 2) {
    return Run(xml);
  }
  ThreadPool& pool = *par.pool;
  SMOQE_RETURN_IF_ERROR(CheckSize(xml));
  SMOQE_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<PlanState>> states,
                         MakePlanStates(plans_));
  xml::NameTable* names = plans_[0]->names().get();

  xml::StaxReader reader(xml);
  const size_t chunk_events = par.chunk_events == 0 ? 4096 : par.chunk_events;
  // Three rotating chunks: the plans advance `cur` while the driver fills
  // `next` and replays the captures of `prev`, whose staged flags the
  // previous join settled.
  TokChunk chunks[3];
  TokChunk* prev = &chunks[0];
  TokChunk* cur = &chunks[1];
  TokChunk* next = &chunks[2];
  int32_t next_node_id = 0;
  // The driver polls while tokenizing too: a chunk's decode can outlast
  // the plans' advance through the previous one.
  GuardTicker tok_ticker(guard_);
  SMOQE_ASSIGN_OR_RETURN(
      bool eof, FillChunk(reader, names, &next_node_id, chunk_events,
                          tok_ticker, cur));

  CaptureStream cap;
  auto replay = [&cap](TokChunk& chunk) {
    for (size_t i = 0; i < chunk.scan.size(); ++i) {
      cap.Append(chunk.scan[i], chunk.staged[i] != 0);
    }
  };
  std::vector<Status> plan_status(states.size(), Status::OK());
  // A tripped guard returns at once: the plan states of a wide batch are
  // many allocations per plan, so they are freed on the pool rather than
  // on the caller's deadline.
  auto trip = [&](Status st) {
    auto doomed = std::make_shared<decltype(states)>(std::move(states));
    pool.Submit([doomed] { doomed->clear(); });
    return st;
  };
  // One plan's share of a chunk. Pool tasks claim plans one at a time, so
  // a costly plan holds up only the thread that runs it.
  const std::function<void(size_t)> advance_plan = [&](size_t k) {
    // Poll inside the chunk: its wall time grows with the plan's cost, so
    // the per-chunk check below alone would let deadline detection lag by
    // a whole chunk. A tripped plan stops; the caller fails the call
    // after the join.
    GuardTicker ticker(guard_);
    plan_status[k] = AdvancePlanOverChunk(*states[k], *cur, *names, ticker);
  };
  while (!cur->events.empty()) {
    const auto chunk_t0 = par.chunk_ns != nullptr
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point();
    // Fork: the pool advances the plans through `cur`…
    ThreadPool::Forked chunk = pool.Fork(states.size(), advance_plan);
    // …while the caller tokenizes the next chunk behind the same reader
    // and replays the previous chunk's captures.
    Status tok_status = Status::OK();
    if (!eof) {
      auto r = FillChunk(reader, names, &next_node_id, chunk_events,
                         tok_ticker, next);
      if (r.ok()) {
        eof = *r;
      } else {
        tok_status = r.status();
      }
    } else {
      next->Clear();
    }
    replay(*prev);
    // Then this thread advances the plans no worker has claimed yet, so
    // on a saturated pool (nested batches via QueryBatchMulti, or
    // smoqed's requests) it never waits on a queued task — and it never
    // runs a task that is not this chunk's.
    chunk.Join();
    if (!tok_status.ok()) return trip(std::move(tok_status));
    // A plan that stopped early is left mid-chunk: fail closed.
    for (Status& st : plan_status) {
      if (!st.ok()) return trip(std::move(st));
    }
    // Settle `cur`'s staged flags for its replay one round later.
    cur->staged.assign(cur->events.size(), 0);
    for (auto& ps : states) {
      for (uint32_t i : ps->staged_events) cur->staged[i] = 1;
    }
    if (par.chunk_ns != nullptr) {
      par.chunk_ns->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - chunk_t0)
              .count()));
    }
    // Per-chunk budget charge on the driver thread — the plans have
    // joined, so the engines' allocation counters are safe to drain.
    if (guard_ != nullptr) {
      Status st = ChargeAndCheck(*guard_, cap, states);
      if (!st.ok()) return trip(std::move(st));
    }
    TokChunk* done = prev;
    prev = cur;
    cur = next;
    next = done;
  }
  // The last chunk's captures, charged before any answer is copied.
  replay(*prev);
  if (guard_ != nullptr) {
    Status st = ChargeAndCheck(*guard_, cap, states);
    if (!st.ok()) return trip(std::move(st));
  }
  cap.Seal();

  // Per plan: the Cans selection pass, the answer copies and the plan
  // state's teardown — independent across plans, so on the pool too.
  std::vector<StaxEvalResult> results(states.size());
  pool.ParallelFor(states.size(), [&](size_t k) {
    plan_status[k] =
        AssembleOne(*states[k], k, states.size(), cap, guard_, &results[k]);
    states[k].reset();
  });
  for (Status& st : plan_status) {
    if (!st.ok()) return std::move(st);
  }
  return results;
}

EvalStats BatchEvaluator::AggregateStats(
    const std::vector<StaxEvalResult>& results) {
  EvalStats total;
  for (const StaxEvalResult& r : results) total.MergeFrom(r.stats);
  return total;
}

}  // namespace smoqe::eval
