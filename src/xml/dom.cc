#include "src/xml/dom.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace smoqe::xml {

std::string Document::DirectText(const Node* e) {
  std::string out;
  for (const Node* c = e->first_child; c != nullptr; c = c->next_sibling) {
    if (c->is_text()) out += c->text;
  }
  return out;
}

Node* Document::ImportSubtree(const Node* src, const Document& src_doc) {
  const bool same_names = src_doc.names_ == names_;
  // (source node, copied parent) pairs; children are pushed in reverse so
  // sibling order is preserved under the copied parent. `tail` remembers
  // each copied parent's last-appended child so linking is O(1).
  std::vector<std::pair<const Node*, Node*>> stack = {{src, nullptr}};
  std::unordered_map<Node*, Node*> tail;
  Node* copy_root = nullptr;
  while (!stack.empty()) {
    auto [s, parent] = stack.back();
    stack.pop_back();
    Node* n = arena_->New<Node>();
    n->kind = s->kind;
    if (s->is_element()) {
      n->label = same_names ? s->label
                            : names_->Intern(src_doc.names_->NameOf(s->label));
      ++num_elements_;
    } else if (s->text != nullptr) {
      n->text = arena_->CopyString(s->text, std::strlen(s->text));
    }
    if (s->num_attrs > 0) {
      Attr* arr = static_cast<Attr*>(
          arena_->Allocate(sizeof(Attr) * s->num_attrs, alignof(Attr)));
      for (uint32_t i = 0; i < s->num_attrs; ++i) {
        arr[i].name = same_names
                          ? s->attrs[i].name
                          : names_->Intern(src_doc.names_->NameOf(s->attrs[i].name));
        arr[i].size = s->attrs[i].size;
        arr[i].value = arena_->CopyString(s->attrs[i].value, s->attrs[i].size);
      }
      n->attrs = arr;
      n->num_attrs = s->num_attrs;
    }
    n->node_id = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(n);
    if (parent == nullptr) {
      copy_root = n;
    } else {
      n->parent = parent;
      auto [it, first_child] = tail.emplace(parent, n);
      if (first_child) {
        parent->first_child = n;
      } else {
        it->second->next_sibling = n;
        it->second = n;
      }
    }
    // Push children reversed: siblings of one parent then pop left to
    // right, and each links to its parent's tail in document order.
    size_t mark = stack.size();
    for (const Node* c = s->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back({c, n});
    }
    std::reverse(stack.begin() + static_cast<ptrdiff_t>(mark), stack.end());
  }
  return copy_root;
}

Document Document::Clone() const {
  Document out;
  out.names_ = names_;
  out.arena_ = std::make_unique<Arena>();
  out.num_elements_ = num_elements_;
  out.epoch_ = epoch_;
  out.nodes_.assign(nodes_.size(), nullptr);
  // Pass 1: allocate every live node's copy so pointer fix-up can go
  // through the id map regardless of tree order.
  for (size_t id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id] != nullptr) out.nodes_[id] = out.arena_->New<Node>();
  }
  // Pass 2: copy fields, rewrite links via ids, copy text/attrs into the
  // new arena. Ids, orders and the epoch carry over verbatim — id-keyed
  // side structures (TAX sets, provenance, edit plans) built against the
  // original remain valid against the clone.
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const Node* s = nodes_[id];
    if (s == nullptr) continue;
    Node* n = out.nodes_[id];
    n->kind = s->kind;
    n->label = s->label;
    n->node_id = s->node_id;
    n->order = s->order;
    n->subtree_end = s->subtree_end;
    n->parent = s->parent ? out.nodes_[s->parent->node_id] : nullptr;
    n->first_child =
        s->first_child ? out.nodes_[s->first_child->node_id] : nullptr;
    n->next_sibling =
        s->next_sibling ? out.nodes_[s->next_sibling->node_id] : nullptr;
    if (s->text != nullptr) {
      n->text = out.arena_->CopyString(s->text, std::strlen(s->text));
    }
    if (s->num_attrs > 0) {
      Attr* arr = static_cast<Attr*>(
          out.arena_->Allocate(sizeof(Attr) * s->num_attrs, alignof(Attr)));
      for (uint32_t i = 0; i < s->num_attrs; ++i) {
        arr[i].name = s->attrs[i].name;
        arr[i].size = s->attrs[i].size;
        arr[i].value =
            out.arena_->CopyString(s->attrs[i].value, s->attrs[i].size);
      }
      n->attrs = arr;
      n->num_attrs = s->num_attrs;
    }
  }
  out.root_ = root_ ? out.nodes_[root_->node_id] : nullptr;
  return out;
}

void Document::AttachChild(Node* parent, Node* child, size_t elem_pos) {
  child->parent = parent;
  child->next_sibling = nullptr;
  // Find the element child at element-position `elem_pos` (insertion goes
  // right before it); past the end means append after every child.
  Node* prev = nullptr;
  Node* cur = parent->first_child;
  size_t elems_seen = 0;
  while (cur != nullptr) {
    if (cur->is_element()) {
      if (elems_seen == elem_pos) break;
      ++elems_seen;
    }
    prev = cur;
    cur = cur->next_sibling;
  }
  child->next_sibling = cur;
  if (prev == nullptr) {
    parent->first_child = child;
  } else {
    prev->next_sibling = child;
  }
}

void Document::Unlink(Node* n) {
  Node* parent = n->parent;
  if (parent == nullptr) return;
  if (parent->first_child == n) {
    parent->first_child = n->next_sibling;
  } else {
    Node* prev = parent->first_child;
    while (prev->next_sibling != n) prev = prev->next_sibling;
    prev->next_sibling = n->next_sibling;
  }
  n->parent = nullptr;
  n->next_sibling = nullptr;
}

void Document::RetireIds(Node* subtree) {
  std::vector<Node*> stack = {subtree};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    nodes_[n->node_id] = nullptr;
    if (n->is_element()) --num_elements_;
    for (Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back(c);
    }
  }
}

void Document::RemoveSubtree(Node* target) {
  Unlink(target);
  RetireIds(target);
}

void Document::ReplaceSubtree(Node* old_node, Node* new_node) {
  if (old_node == root_) {
    root_ = new_node;
    new_node->parent = nullptr;
    new_node->next_sibling = nullptr;
    RetireIds(old_node);
    return;
  }
  Node* parent = old_node->parent;
  new_node->parent = parent;
  new_node->next_sibling = old_node->next_sibling;
  if (parent->first_child == old_node) {
    parent->first_child = new_node;
  } else {
    Node* prev = parent->first_child;
    while (prev->next_sibling != old_node) prev = prev->next_sibling;
    prev->next_sibling = new_node;
  }
  old_node->parent = nullptr;
  old_node->next_sibling = nullptr;
  RetireIds(old_node);
}

void Document::RefreshOrder() {
  // Iterative pre-order with explicit exit markers (nullptr), so deep
  // genealogy documents cannot overflow the call stack.
  int32_t counter = 0;
  std::vector<Node*> stack = {root_};
  std::vector<Node*> open;
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n == nullptr) {
      open.back()->subtree_end = counter;
      open.pop_back();
      continue;
    }
    n->order = counter++;
    if (n->first_child == nullptr) {
      n->subtree_end = counter;
      continue;
    }
    open.push_back(n);
    stack.push_back(nullptr);
    size_t mark = stack.size();
    for (Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back(c);
    }
    std::reverse(stack.begin() + static_cast<ptrdiff_t>(mark), stack.end());
  }
  ++epoch_;
}

DocumentBuilder::DocumentBuilder(std::shared_ptr<NameTable> names)
    : names_(names ? std::move(names) : NameTable::Create()),
      arena_(std::make_unique<Arena>()) {}

DocumentBuilder::~DocumentBuilder() = default;

void DocumentBuilder::FlushAttrs() {
  if (pending_attr_owner_ == nullptr) return;
  if (!pending_attrs_.empty()) {
    Attr* arr = static_cast<Attr*>(
        arena_->Allocate(sizeof(Attr) * pending_attrs_.size(), alignof(Attr)));
    for (size_t i = 0; i < pending_attrs_.size(); ++i) arr[i] = pending_attrs_[i];
    pending_attr_owner_->attrs = arr;
    pending_attr_owner_->num_attrs = static_cast<uint32_t>(pending_attrs_.size());
    pending_attrs_.clear();
  }
  pending_attr_owner_ = nullptr;
}

void DocumentBuilder::StartElement(std::string_view name) {
  FlushAttrs();
  Node* n = arena_->New<Node>();
  n->kind = Node::Kind::kElement;
  n->label = names_->Intern(name);
  n->node_id = next_id_++;
  n->order = n->node_id;
  ++num_elements_;
  if (!stack_.empty()) {
    Node* parent = stack_.back();
    n->parent = parent;
    if (last_child_.back() == nullptr) {
      parent->first_child = n;
    } else {
      last_child_.back()->next_sibling = n;
    }
    last_child_.back() = n;
  } else if (root_ == nullptr) {
    root_ = n;
  }
  nodes_.push_back(n);
  stack_.push_back(n);
  last_child_.push_back(nullptr);
  pending_attr_owner_ = n;
}

void DocumentBuilder::AddAttribute(std::string_view name,
                                   std::string_view value) {
  if (pending_attr_owner_ == nullptr) return;  // misuse tolerated; dropped
  Attr a;
  a.name = names_->Intern(name);
  a.size = value.size();
  a.value = arena_->CopyString(value.data(), value.size());
  pending_attrs_.push_back(a);
}

void DocumentBuilder::AddText(std::string_view text) {
  if (stack_.empty()) return;  // text outside root is ignored
  FlushAttrs();
  Node* n = arena_->New<Node>();
  n->kind = Node::Kind::kText;
  n->text = arena_->CopyString(text.data(), text.size());
  n->node_id = next_id_++;
  n->order = n->node_id;
  n->subtree_end = n->order + 1;
  Node* parent = stack_.back();
  n->parent = parent;
  if (last_child_.back() == nullptr) {
    parent->first_child = n;
  } else {
    last_child_.back()->next_sibling = n;
  }
  last_child_.back() = n;
  nodes_.push_back(n);
}

Status DocumentBuilder::EndElement() {
  if (stack_.empty()) {
    return Status::FailedPrecondition("EndElement with no open element");
  }
  FlushAttrs();
  Node* n = stack_.back();
  n->subtree_end = next_id_;
  stack_.pop_back();
  last_child_.pop_back();
  return Status::OK();
}

Result<Document> DocumentBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  if (!stack_.empty()) {
    return Status::FailedPrecondition("Finish with unclosed elements");
  }
  if (root_ == nullptr) {
    return Status::FailedPrecondition("document has no root element");
  }
  finished_ = true;
  Document doc;
  doc.names_ = std::move(names_);
  doc.arena_ = std::move(arena_);
  doc.root_ = root_;
  doc.nodes_ = std::move(nodes_);
  doc.num_elements_ = num_elements_;
  return doc;
}

}  // namespace smoqe::xml
