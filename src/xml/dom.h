#ifndef SMOQE_XML_DOM_H_
#define SMOQE_XML_DOM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/arena.h"
#include "src/common/status.h"
#include "src/xml/name_table.h"

namespace smoqe::xml {

struct Node;

/// Attribute of an element node; `value` points into the document arena
/// (NUL-terminated, `size` bytes before the NUL).
struct Attr {
  NameId name = kNoName;
  size_t size = 0;
  const char* value = nullptr;

  std::string_view view() const { return std::string_view(value, size); }
};

/// \brief One node of the in-memory document tree (DOM mode).
///
/// Nodes are arena-allocated, trivially destructible, and linked in
/// first-child / next-sibling form. Two numbering schemes coexist:
///
///  * `node_id` is the node's *stable identity*: assigned once, never
///    renumbered, and usable as an array index for the node's whole
///    lifetime (TAX sets, provenance maps, answer ids). Ids of nodes
///    removed by an update are never reused.
///  * `order` is the node's *document-order rank*: a pre-order index over
///    the live tree, recomputed by Document::RefreshOrder after every
///    structural update. `subtree_end` is one past the largest order in
///    the node's subtree, so
///    `u` is an ancestor-or-self of `v` ⇔ `u->order <= v->order < u->subtree_end`.
///
/// For a freshly built document the two coincide (`order == node_id`).
struct Node {
  enum class Kind : uint8_t { kElement, kText };

  Kind kind = Kind::kElement;
  NameId label = kNoName;        ///< element name id; kNoName for text nodes
  const char* text = nullptr;    ///< text content; nullptr for elements
  Node* parent = nullptr;
  Node* first_child = nullptr;
  Node* next_sibling = nullptr;
  const Attr* attrs = nullptr;   ///< arena array of `num_attrs` attributes
  uint32_t num_attrs = 0;
  int32_t node_id = 0;           ///< stable identity (see above)
  int32_t order = 0;             ///< document-order rank (see above)
  int32_t subtree_end = 0;       ///< one past the subtree's largest order

  bool is_element() const { return kind == Kind::kElement; }
  bool is_text() const { return kind == Kind::kText; }

  /// Value of the named attribute, or nullptr if absent (elements only).
  const char* FindAttr(NameId name) const {
    for (uint32_t i = 0; i < num_attrs; ++i) {
      if (attrs[i].name == name) return attrs[i].value;
    }
    return nullptr;
  }

  /// True iff `this` is an ancestor of or equal to `v` (both must be live
  /// nodes of a document whose order ranks are current).
  bool ContainsOrIs(const Node* v) const {
    return order <= v->order && v->order < subtree_end;
  }
};

/// \brief A parsed XML document (DOM mode).
///
/// Owns the node arena and (shares) the name table. Move-only; node
/// pointers remain stable across moves.
///
/// Documents are mutable through the structural-update API below (the
/// secure-update subsystem, docs/DESIGN.md §6). Every successful update
/// bumps `epoch()`; consumers that cache anything derived from the tree
/// (serialized text, TAX indexes) compare epochs to detect staleness.
/// Node ids are stable across updates — removed ids are retired, never
/// reused — while `order`/`subtree_end` are recomputed by RefreshOrder.
class Document {
 public:
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  const Node* root() const { return root_; }
  const std::shared_ptr<NameTable>& names() const { return names_; }
  NameTable* mutable_names() const { return names_.get(); }

  /// One past the largest node id ever assigned (elements + text). The
  /// valid index range of id-keyed side structures; after updates some
  /// slots in it may be retired (node(id) == nullptr).
  int32_t num_nodes() const { return static_cast<int32_t>(nodes_.size()); }
  /// Number of live element nodes.
  int32_t num_elements() const { return num_elements_; }

  /// Node with the given id, or nullptr if the id was retired by an
  /// update (never null on a freshly built document).
  const Node* node(int32_t id) const { return nodes_[id]; }

  /// Approximate heap footprint of the tree (arena bytes).
  size_t memory_bytes() const { return arena_->bytes_reserved(); }

  /// Charges future node/string allocations of this document against
  /// `budget` (nullptr detaches). Used by the update path: the engine
  /// attaches the request budget to the pre-publish clone so fragment
  /// grafts are charged, and detaches before publishing.
  void set_memory_budget(MemoryBudget* budget) { arena_->set_budget(budget); }

  /// Deep copy into a fresh arena, preserving *everything* observable:
  /// node ids (including retired slots), order/subtree_end ranks, the
  /// epoch, attributes and text, and the shared name table. This is the
  /// copy-on-write primitive of the snapshot layer (docs/DESIGN.md §7):
  /// `Smoqe::Update` clones the published snapshot, mutates the clone, and
  /// publishes it, so readers pinned to the old tree never observe a
  /// half-applied edit. O(document).
  Document Clone() const;

  /// Concatenation of the *direct* text children of `e` (XPath string value
  /// restricted to depth one, which is the semantics SMOQE predicates use).
  static std::string DirectText(const Node* e);

  // -------------------------------------------------------------------
  // Structural-update API (src/update/ applies authorized edit scripts
  // through these; they maintain ids/links but NOT order ranks — callers
  // finish a batch of mutations with one RefreshOrder()).
  // -------------------------------------------------------------------

  /// Update epoch: 0 for a freshly built document, +1 per RefreshOrder.
  uint64_t epoch() const { return epoch_; }

  /// Mutable access to a live node (nullptr if retired).
  Node* mutable_node(int32_t id) { return nodes_[id]; }

  /// Deep-copies the subtree rooted at `src` (from `src_doc`, which may be
  /// another document or this one) into this document's arena, interning
  /// names into this document's table and assigning fresh node ids. The
  /// copy is detached (no parent/sibling links); attach it with
  /// AttachChild. Returns the copy's root.
  Node* ImportSubtree(const Node* src, const Document& src_doc);

  /// Links detached subtree `child` under `parent` so that it becomes the
  /// element child at element-position `elem_pos` (0 = before the first
  /// element child; >= number of element children = after the last child
  /// of any kind). Text children keep their positions relative to the
  /// preceding element.
  void AttachChild(Node* parent, Node* child, size_t elem_pos);

  /// Unlinks the subtree rooted at `target` and retires every id in it.
  /// `target` must not be the root.
  void RemoveSubtree(Node* target);

  /// Replaces the subtree rooted at `old_node` with detached subtree
  /// `new_node` (same list position); retires the old subtree's ids.
  /// Replacing the root is allowed.
  void ReplaceSubtree(Node* old_node, Node* new_node);

  /// Recomputes order/subtree_end over the live tree and bumps the epoch.
  /// Call once after a batch of structural mutations.
  void RefreshOrder();

 private:
  friend class DocumentBuilder;
  Document() = default;

  void Unlink(Node* n);
  void RetireIds(Node* subtree);

  std::shared_ptr<NameTable> names_;
  std::unique_ptr<Arena> arena_;
  Node* root_ = nullptr;
  std::vector<Node*> nodes_;  // by node_id; nullptr = retired
  int32_t num_elements_ = 0;
  uint64_t epoch_ = 0;
};

/// \brief Incremental builder used by the parser, the generator and the view
/// materializer.
///
/// Events must form a single well-nested element tree:
///   StartElement (AddAttribute)* (StartElement…EndElement | AddText)* EndElement
class DocumentBuilder {
 public:
  /// If `names` is null a fresh table is created.
  explicit DocumentBuilder(std::shared_ptr<NameTable> names = nullptr);
  ~DocumentBuilder();

  DocumentBuilder(const DocumentBuilder&) = delete;
  DocumentBuilder& operator=(const DocumentBuilder&) = delete;

  /// Opens a child element of the current element (or the root).
  void StartElement(std::string_view name);

  /// Attaches an attribute to the most recently opened element. Must be
  /// called before any child content of that element is added.
  void AddAttribute(std::string_view name, std::string_view value);

  /// Appends a text node under the current element.
  void AddText(std::string_view text);

  /// Closes the current element.
  Status EndElement();

  /// Current nesting depth (0 = before/after root).
  int depth() const { return static_cast<int>(stack_.size()); }

  /// Validates completeness (exactly one closed root) and yields the tree.
  Result<Document> Finish();

 private:
  void FlushAttrs();

  std::shared_ptr<NameTable> names_;
  std::unique_ptr<Arena> arena_;
  std::vector<Node*> nodes_;
  std::vector<Node*> stack_;     // open elements
  std::vector<Node*> last_child_;  // parallel to stack_: last child appended
  Node* root_ = nullptr;
  Node* pending_attr_owner_ = nullptr;
  std::vector<Attr> pending_attrs_;
  int32_t next_id_ = 0;
  int32_t num_elements_ = 0;
  bool finished_ = false;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_DOM_H_
