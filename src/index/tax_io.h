#ifndef SMOQE_INDEX_TAX_IO_H_
#define SMOQE_INDEX_TAX_IO_H_

#include <string>

#include "src/common/status.h"
#include "src/index/tax.h"

namespace smoqe::index {

/// \brief Compressed persistence for TAX (paper §3: "the SMOQE indexer
/// constructs the TAX index, compresses it before it is stored in disk,
/// and uploads it from disk when needed" — experiment E7).
///
/// Format (all varint-coded):
///   magic "TAX1" | width | num_sets |
///   per set: word_count, then words RLE-coded as (zero_run, literal)
///   pairs — descendant type sets of sibling subtrees are sparse, so
///   zero-run elimination compresses well; identical consecutive sets
///   (common for list-like data) are delta-flagged.
class TaxIo {
 public:
  /// Serializes the index to its compressed byte form.
  static std::string Encode(const TaxIndex& index);

  /// Reconstructs an index from bytes produced by Encode, interning the
  /// sets it reads (equal sets share one table entry, as after Build).
  /// The bytes are untrusted: a width above `max_width` (the name-table
  /// size of the document it is for) is a ParseError, not an allocation.
  static Result<TaxIndex> Decode(std::string_view bytes, size_t max_width);

  /// Convenience file wrappers.
  static Status Save(const TaxIndex& index, const std::string& path);
  static Result<TaxIndex> Load(const std::string& path, size_t max_width);
};

}  // namespace smoqe::index

#endif  // SMOQE_INDEX_TAX_IO_H_
