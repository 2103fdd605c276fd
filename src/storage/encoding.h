// Column encodings (paper Section 3.4.1).
//
// Every column in every projection carries an encoding; the same column may
// be encoded differently in different projections. Encodings operate on
// fixed-row-count blocks; each encoded block is self-describing (its first
// byte names the encoding actually used, so kAuto resolves per block).
//
// Implemented encoding types, mirroring the paper's list:
//   1. Auto                    — picks the smallest candidate per block.
//   2. RLE                     — (value, count) pairs; best for sorted,
//                                low-cardinality columns.
//   3. Delta Value             — frame-of-reference: offsets from the block
//                                minimum, bit-packed; unsorted many-valued ints.
//   4. Block Dictionary        — per-block dictionary + packed indexes;
//                                few-valued unsorted columns.
//   5. Compressed Delta Range  — delta from the previous value, zigzag
//                                varint; sorted/range-confined numerics
//                                (doubles delta their monotone bit patterns).
//   6. Compressed Common Delta — dictionary of the block's distinct deltas,
//                                Huffman-coded indexes; periodic sequences
//                                (timestamps, primary keys).
// Plus kPlain, the uncompressed fallback every type supports.
#ifndef STRATICA_STORAGE_ENCODING_H_
#define STRATICA_STORAGE_ENCODING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/row_block.h"
#include "common/status.h"

namespace stratica {

enum class EncodingId : uint8_t {
  kAuto = 0,
  kPlain = 1,
  kRle = 2,
  kDeltaValue = 3,
  kBlockDict = 4,
  kCompressedDeltaRange = 5,
  kCompressedCommonDelta = 6,
};

const char* EncodingName(EncodingId id);
Result<EncodingId> EncodingFromName(const std::string& name);

/// True if `enc` can encode columns of storage class `sc`.
bool EncodingSupports(EncodingId enc, StorageClass sc);

/// Encode `count` physical entries of `col` starting at `start` into `out`.
/// `col` must be flat (no RLE runs, no dictionary codes): Internal otherwise.
/// `enc == kAuto` tries all supported encodings and keeps the smallest.
/// Layout: [actual EncodingId u8][count varint][null section][payload].
Status EncodeBlock(EncodingId enc, const ColumnVector& col, size_t start, size_t count,
                   std::string* out);

/// Decode one block (produced by EncodeBlock) into a flat column, appending
/// to `out`; `*offset` advances past the whole block. Each encoding has one
/// decoder. A null `sel` appends every row. A non-null `sel` must have
/// exactly one entry per row of the block, and only the rows with
/// sel[i] != 0 are materialized — late materialization (§6.1, DESIGN.md §7):
/// RLE skips dead runs wholesale, DeltaValue and BlockDict bit-unpack only
/// selected slots, the varint delta encodings stop decoding after the last
/// selected position, and string payloads never copy unselected bytes.
/// A block that is cut short, or whose runs or codes do not fit its row
/// count and dictionary, is Corruption under every selection.
Status DecodeBlock(const std::string& data, size_t* offset, TypeId type,
                   ColumnVector* out, const std::vector<uint8_t>* sel = nullptr);

/// Read the encoding id actually used by an encoded block.
Result<EncodingId> PeekBlockEncoding(const std::string& data, size_t offset);

/// \brief One block decoded to its cheapest loss-free in-memory form — the
/// unit of compressed execution (paper Section 6.1: "never decode what you
/// can process encoded").
///
/// `column` preserves the block's encoded structure when operators can
/// exploit it: RLE blocks keep run lengths, BlockDict blocks keep per-row
/// codes plus a shared immutable dictionary (re-sorted at view construction
/// so code order == value order, enabling code-range predicates and
/// code-based sort keys); every other encoding decodes flat. The view owns
/// its data — values and codes are copied out of the block buffer and the
/// dictionary is an immutable shared_ptr — so it may outlive the block
/// snapshot and travel through the operator tree. Any consumer that cannot
/// handle an encoded column falls back via ColumnVector::Decoded().
struct EncodedBlockView {
  EncodingId encoding = EncodingId::kPlain;  ///< physical encoding of the block
  ColumnVector column;
};

/// Decode one block (produced by EncodeBlock) into an EncodedBlockView.
/// `out->column` is freshly assigned (unlike DecodeBlock, which appends);
/// `*offset` advances past the block. The block frame is parsed as in
/// DecodeBlock, and every block that keeps no encoded form — RLE blocks
/// carrying NULLs (their null section is row-parallel, not run-parallel)
/// and every encoding other than RLE and BlockDict — decodes flat through
/// DecodeBlock's per-encoding decoder.
Status DecodeBlockView(const std::string& data, size_t* offset, TypeId type,
                       EncodedBlockView* out);

/// Serialize / parse a Value (used by position indexes and container stats).
void EncodeValue(std::string* out, const Value& v);
Status DecodeValue(const std::string& data, size_t* offset, TypeId type, Value* out);

}  // namespace stratica

#endif  // STRATICA_STORAGE_ENCODING_H_
