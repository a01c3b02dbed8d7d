#include "src/view/annotation.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/rxpath/parser.h"
#include "src/rxpath/printer.h"

namespace smoqe::view {

Annotation Annotation::Clone() const {
  Annotation a;
  a.kind = kind;
  if (condition != nullptr) a.condition = condition->Clone();
  return a;
}

namespace {

Status ValidateEdge(const xml::Dtd& dtd, std::string_view parent,
                    std::string_view child) {
  if (dtd.Find(parent) == nullptr) {
    return Status::InvalidArgument("policy references undeclared element '" +
                                   std::string(parent) + "'");
  }
  std::vector<std::string> kids = dtd.ChildTypes(parent);
  if (std::find(kids.begin(), kids.end(), std::string(child)) == kids.end()) {
    return Status::InvalidArgument("DTD has no edge " + std::string(parent) +
                                   "/" + std::string(child));
  }
  return Status::OK();
}

}  // namespace

Status Policy::Annotate(std::string_view parent, std::string_view child,
                        Annotation ann) {
  SMOQE_RETURN_IF_ERROR(ValidateEdge(*dtd_, parent, child));
  anns_[{std::string(parent), std::string(child)}] = std::move(ann);
  return Status::OK();
}

Status Policy::Allow(std::string_view parent, std::string_view child) {
  Annotation a;
  a.kind = AnnKind::kAllow;
  return Annotate(parent, child, std::move(a));
}

Status Policy::Deny(std::string_view parent, std::string_view child) {
  Annotation a;
  a.kind = AnnKind::kDeny;
  return Annotate(parent, child, std::move(a));
}

Status Policy::AllowIf(std::string_view parent, std::string_view child,
                       std::string_view condition) {
  SMOQE_ASSIGN_OR_RETURN(std::unique_ptr<rxpath::Qualifier> q,
                         rxpath::ParseQualifierExpr(condition));
  Annotation a;
  a.kind = AnnKind::kCondition;
  a.condition = std::move(q);
  return Annotate(parent, child, std::move(a));
}

const Annotation* Policy::Find(std::string_view parent,
                               std::string_view child) const {
  auto it = anns_.find({std::string(parent), std::string(child)});
  return it == anns_.end() ? nullptr : &it->second;
}

Result<Policy> Policy::Parse(const xml::Dtd& dtd, std::string_view text) {
  Policy policy(&dtd);
  int line_no = 0;
  // Annotations are ';'-terminated statements; '#' starts a comment until
  // end of line.
  std::string cleaned;
  for (std::string_view line : Split(text, '\n')) {
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    cleaned += std::string(line) + "\n";
  }
  for (std::string_view stmt : Split(cleaned, ';')) {
    ++line_no;
    stmt = Trim(stmt);
    if (stmt.empty()) continue;
    size_t colon = stmt.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("policy statement " + std::to_string(line_no) +
                                " has no ':': '" + std::string(stmt) + "'");
    }
    std::string_view edge = Trim(stmt.substr(0, colon));
    std::string_view value = Trim(stmt.substr(colon + 1));
    size_t slash = edge.find('/');
    if (slash == std::string_view::npos) {
      return Status::ParseError("policy edge must be parent/child, got '" +
                                std::string(edge) + "'");
    }
    std::string_view parent = Trim(edge.substr(0, slash));
    std::string_view child = Trim(edge.substr(slash + 1));
    Status st;
    if (value == "Y" || value == "y") {
      st = policy.Allow(parent, child);
    } else if (value == "N" || value == "n") {
      st = policy.Deny(parent, child);
    } else if (!value.empty() && value.front() == '[' && value.back() == ']') {
      st = policy.AllowIf(parent, child, value.substr(1, value.size() - 2));
    } else {
      return Status::ParseError("annotation must be Y, N or [qualifier]: '" +
                                std::string(value) + "'");
    }
    if (!st.ok()) return st;
  }
  return policy;
}

std::string Policy::ToString() const {
  std::string out;
  for (const auto& [edge, ann] : anns_) {
    out += edge.first + "/" + edge.second + " : ";
    switch (ann.kind) {
      case AnnKind::kAllow:
        out += "Y";
        break;
      case AnnKind::kDeny:
        out += "N";
        break;
      case AnnKind::kCondition:
        out += "[" + rxpath::ToString(*ann.condition) + "]";
        break;
    }
    out += ";\n";
  }
  return out;
}

}  // namespace smoqe::view
