#ifndef SMOQE_VIEW_ANNOTATION_H_
#define SMOQE_VIEW_ANNOTATION_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/rxpath/ast.h"
#include "src/xml/dtd.h"

namespace smoqe::view {

/// Kind of an access-control annotation on a DTD edge (A,B) — the values
/// of `ann(A,B)` in the paper's Fig. 3(b) (the security-view model of
/// Fan, Chan, Garofalakis, SIGMOD'04, the paper's reference [3]).
enum class AnnKind {
  kAllow,      ///< Y — B children of A are accessible
  kDeny,       ///< N — B children of A are hidden (descendants may
               ///<     still surface through them)
  kCondition,  ///< [q] — accessible iff qualifier q holds at the B node
};

/// One edge annotation.
struct Annotation {
  AnnKind kind = AnnKind::kAllow;
  std::unique_ptr<rxpath::Qualifier> condition;  ///< kCondition only

  Annotation Clone() const;
};

/// \brief An access-control policy: a DTD plus edge annotations.
///
/// Unannotated edges inherit the status of the parent node top-down (a
/// child of a hidden node is hidden unless explicitly re-allowed), which
/// is how Fig. 3(b)'s five annotations hide pname/visit/date/test while
/// keeping treatment/medication/parent chains accessible.
///
/// Text format (parsed by `Parse`, one annotation per line):
///
///     # only expose patients treated for autism
///     hospital/patient : [visit/treatment/medication = 'autism'];
///     patient/pname    : N;
///     patient/visit    : N;
///     visit/treatment  : [medication];
///     treatment/test   : N;
class Policy {
 public:
  explicit Policy(const xml::Dtd* dtd) : dtd_(dtd) {}
  Policy(Policy&&) = default;
  Policy& operator=(Policy&&) = default;

  const xml::Dtd& dtd() const { return *dtd_; }

  /// Sets ann(parent, child). Fails if the edge does not exist in the DTD.
  Status Annotate(std::string_view parent, std::string_view child,
                  Annotation ann);

  /// Convenience wrappers.
  Status Allow(std::string_view parent, std::string_view child);
  Status Deny(std::string_view parent, std::string_view child);
  /// `condition` is a Regular XPath qualifier evaluated at the child node.
  Status AllowIf(std::string_view parent, std::string_view child,
                 std::string_view condition);

  /// The explicit annotation on an edge, or nullptr (inherit).
  const Annotation* Find(std::string_view parent,
                         std::string_view child) const;

  /// Parses the text format. All named edges are validated against `dtd`.
  static Result<Policy> Parse(const xml::Dtd& dtd, std::string_view text);

  /// Renders in the text format (round-trips through Parse).
  std::string ToString() const;

  size_t size() const { return anns_.size(); }

 private:
  const xml::Dtd* dtd_;
  std::map<std::pair<std::string, std::string>, Annotation> anns_;
};

}  // namespace smoqe::view

#endif  // SMOQE_VIEW_ANNOTATION_H_
