#ifndef PRISMA_COMMON_COLUMN_BATCH_H_
#define PRISMA_COMMON_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "common/value.h"

namespace prisma {

/// A fixed-size run of tuples stored column-wise: per-column typed arrays
/// plus a row-aligned null vector (DESIGN.md §12). This is the unit of the
/// vectorized execution path: batch scans, per-batch compiled expression
/// kernels and every row set on the wire (DESIGN.md §12.2) move
/// ColumnBatches instead of boxed per-row Values.
///
/// Column typing is inferred from the data. A column whose non-null values
/// all share one DataType is *typed*: its values live in one contiguous
/// array (`bools`/`ints`/`doubles`/`strings`, row-aligned; null slots hold
/// zero/empty placeholders). A column that mixes types — legal in
/// intermediate results, e.g. SUM() yields INT or DOUBLE per group — falls
/// back to *boxed* storage (`values`, one Value per row), preserving exact
/// per-row types so a round trip through a batch changes no value.
class ColumnBatch {
 public:
  /// Default number of rows per batch on the local execution path (the
  /// exchange layer uses its own configured batch_rows for wire frames).
  static constexpr size_t kDefaultBatchRows = 1024;

  /// One column of the batch. `type` is the shared type of all non-null
  /// values when `boxed` is false; kNull means the column is entirely NULL
  /// (or empty). Exactly one payload vector is populated per column.
  struct Column {
    DataType type = DataType::kNull;
    bool boxed = false;
    std::vector<uint8_t> nulls;  // Row-aligned; 1 = NULL. Empty when boxed.
    std::vector<uint8_t> bools;  // Row-aligned when type == kBool.
    std::vector<int64_t> ints;   // Row-aligned when type == kInt64.
    std::vector<double> doubles; // Row-aligned when type == kDouble.
    std::vector<std::string> strings;  // Row-aligned when type == kString.
    std::vector<Value> values;   // Row-aligned when boxed.

    bool IsNull(size_t row) const {
      return boxed ? values[row].is_null() : nulls[row] != 0;
    }
    /// Boxes the value at `row` (copies; use the typed arrays in kernels).
    Value ValueAt(size_t row) const;
  };

  ColumnBatch() = default;
  /// An empty batch with `num_columns` all-NULL typed columns.
  explicit ColumnBatch(size_t num_columns) : columns_(num_columns) {}

  /// Builds a batch from `count` tuples of equal arity starting at
  /// `tuples`; column types are inferred as described above.
  static ColumnBatch FromTuples(const Tuple* tuples, size_t count);
  static ColumnBatch FromTuples(const std::vector<Tuple>& tuples);

  /// Splits `tuples` into batches of at most `batch_rows` rows each.
  /// Empty input yields no batches.
  static std::vector<ColumnBatch> Chunk(const std::vector<Tuple>& tuples,
                                        size_t batch_rows);

  /// Assembles a batch from ready-made columns (wire decoding). Every
  /// column must already be row-aligned to `num_rows`.
  static ColumnBatch FromColumns(std::vector<Column> columns,
                                 size_t num_rows);

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t c) const { return columns_[c]; }

  /// Appends one row; `tuple` arity must equal num_columns(). A typed
  /// column seeing a second non-null type degrades to boxed storage.
  void AppendTuple(const Tuple& tuple);

  /// A new batch holding the given rows of this batch, in the given order
  /// (vectorized filter/gather primitive).
  ColumnBatch TakeRows(const std::vector<uint32_t>& rows) const;

  Value GetValue(size_t row, size_t col) const {
    return columns_[col].ValueAt(row);
  }
  Tuple RowAt(size_t row) const;
  std::vector<Tuple> ToTuples() const;

  /// Approximate in-memory footprint, mirroring Tuple::ByteSize for the
  /// memory tracker and profile byte counts.
  size_t ByteSize() const;

 private:
  void AppendValue(Column& col, const Value& v);
  void BoxColumn(Column& col);

  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace prisma

#endif  // PRISMA_COMMON_COLUMN_BATCH_H_
