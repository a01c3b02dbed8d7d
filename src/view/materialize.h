#ifndef SMOQE_VIEW_MATERIALIZE_H_
#define SMOQE_VIEW_MATERIALIZE_H_

#include <vector>

#include "src/common/status.h"
#include "src/view/view_def.h"
#include "src/xml/dom.h"

namespace smoqe::view {

/// A materialized view with provenance back to the source document.
struct MaterializedView {
  xml::Document document;
  /// For every view node id: the source-document node id it was extracted
  /// from (-1 for text nodes copied into the view).
  std::vector<int32_t> source_node_id;
};

/// \brief Materializes V(T): builds the view document an A-node at a time
/// by evaluating σ(A,B) on the underlying document (paper §2: this is what
/// SMOQE deliberately *avoids* doing online; the engine only materializes
/// views for inspection (Smoqe::MaterializeView), in tests and in the E8
/// baseline benchmark).
///
/// Children are emitted grouped by view-DTD edge order; element attributes
/// and direct text of extracted nodes are copied. The provenance map makes
/// rewriting testable: Q(V(T)) mapped through it must equal Q′(T).
Result<MaterializedView> Materialize(const ViewDefinition& view,
                                     const xml::Document& doc);

}  // namespace smoqe::view

#endif  // SMOQE_VIEW_MATERIALIZE_H_
