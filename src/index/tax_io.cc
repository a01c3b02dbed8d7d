#include "src/index/tax_io.h"

#include <fstream>
#include <sstream>

#include "src/common/varint.h"

namespace smoqe::index {

namespace {
constexpr char kMagic[] = "TAX1";
}  // namespace

std::string TaxIo::Encode(const TaxIndex& index) {
  std::string out(kMagic, 4);
  PutVarint64(&out, index.width_);
  PutVarint64(&out, index.refs_.size());
  PutVarint64(&out, index.elements_);

  // Sets repaired after a name-table growth are wider than sets built
  // before it (tax.h RepairAfterEdit); the on-disk form normalizes every
  // set to the index width by zero-extension — bit positions are NameIds,
  // so padding is lossless, and Decode's fixed words-per-set framing
  // stays valid.
  // Interning makes equal bits equal references, so "identical to the
  // previous element's set" is a reference compare.
  const size_t words_per_set = (index.width_ + 63) / 64;
  uint32_t prev = 0;
  for (uint32_t ref : index.refs_) {
    if (ref == 0) {
      out.push_back(2);  // text node placeholder
      continue;
    }
    if (ref == prev) {
      out.push_back(1);  // identical to previous element's set
      continue;
    }
    prev = ref;
    out.push_back(0);
    const std::vector<uint64_t>& words = index.sets_[ref].words();
    auto word_at = [&](size_t i) -> uint64_t {
      return i < words.size() ? words[i] : 0;
    };
    size_t i = 0;
    while (i < words_per_set) {
      size_t zeros = 0;
      while (i + zeros < words_per_set && word_at(i + zeros) == 0) ++zeros;
      PutVarint64(&out, zeros);
      i += zeros;
      size_t lits = 0;
      while (i + lits < words_per_set && word_at(i + lits) != 0) ++lits;
      PutVarint64(&out, lits);
      for (size_t k = 0; k < lits; ++k) PutVarint64(&out, words[i + k]);
      i += lits;
    }
  }
  return out;
}

Result<TaxIndex> TaxIo::Decode(std::string_view bytes,
                               size_t max_width) {
  if (bytes.size() < 4 || bytes.substr(0, 4) != kMagic) {
    return Status::ParseError("not a TAX index (bad magic)");
  }
  std::string_view in = bytes.substr(4);
  SMOQE_ASSIGN_OR_RETURN(uint64_t width, GetVarint64(&in));
  SMOQE_ASSIGN_OR_RETURN(uint64_t num_sets, GetVarint64(&in));
  SMOQE_ASSIGN_OR_RETURN(uint64_t elements, GetVarint64(&in));
  if (width > max_width) {
    return Status::ParseError("TAX width " + std::to_string(width) +
                              " exceeds the name table (" +
                              std::to_string(max_width) + ")");
  }
  if (num_sets > (1ull << 40)) {
    return Status::ParseError("implausible TAX set count");
  }
  // Every set takes at least its flag byte.
  if (num_sets > in.size()) return Status::ParseError("truncated TAX index");

  TaxIndex idx;
  idx.width_ = width;
  idx.elements_ = elements;
  idx.refs_.resize(num_sets);
  const size_t words_per_set = (width + 63) / 64;

  uint32_t prev = 0;
  DynamicBitset set;  // decode buffer, sized at the first literal set
  for (uint64_t s = 0; s < num_sets; ++s) {
    if (in.empty()) return Status::ParseError("truncated TAX index");
    uint8_t flag = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
    if (flag == 2) continue;  // text node: empty set
    if (flag == 1) {
      if (prev == 0) return Status::ParseError("TAX copy flag with no prior set");
      idx.refs_[s] = prev;
      continue;
    }
    if (flag != 0) return Status::ParseError("bad TAX set flag");
    if (set.size() != width) {
      set = DynamicBitset(width);
    } else {
      set.Clear();
    }
    std::vector<uint64_t>& words = set.mutable_words();
    size_t i = 0;
    while (i < words_per_set) {
      SMOQE_ASSIGN_OR_RETURN(uint64_t zeros, GetVarint64(&in));
      if (zeros > words_per_set - i) {
        return Status::ParseError("TAX zero run overflows set");
      }
      i += zeros;
      SMOQE_ASSIGN_OR_RETURN(uint64_t lits, GetVarint64(&in));
      if (lits > words_per_set - i) {
        return Status::ParseError("TAX literal run overflows set");
      }
      for (uint64_t k = 0; k < lits; ++k) {
        SMOQE_ASSIGN_OR_RETURN(words[i + k], GetVarint64(&in));
      }
      i += lits;
    }
    prev = idx.refs_[s] = idx.Intern(set);
  }
  if (!in.empty()) {
    return Status::ParseError("trailing bytes after TAX index");
  }
  return idx;
}

Status TaxIo::Save(const TaxIndex& index, const std::string& path) {
  std::string bytes = Encode(index);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("short write to '" + path + "'");
  return Status::OK();
}

Result<TaxIndex> TaxIo::Load(const std::string& path, size_t max_width) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  return Decode(bytes, max_width);
}

}  // namespace smoqe::index
