// In-place CSR row offsets, built with no scratch arrays.
//
// Fill `offset` (size rows + 1) with offset[r + 1] = row r's entry count,
// call csr_begins_from_counts() so offset[r] is row r's begin, scatter each
// entry to position offset[row]++ (which leaves offset[r] at row r's end),
// then call csr_begins_from_ends() to restore the begins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dflp {

inline void csr_begins_from_counts(std::vector<std::int32_t>& offset) {
  for (std::size_t r = 1; r < offset.size(); ++r) offset[r] += offset[r - 1];
}

inline void csr_begins_from_ends(std::vector<std::int32_t>& offset) {
  for (std::size_t r = offset.size() - 1; r > 0; --r)
    offset[r] = offset[r - 1];
  offset[0] = 0;
}

}  // namespace dflp
