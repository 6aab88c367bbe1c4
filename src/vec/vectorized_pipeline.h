#ifndef MINIHIVE_VEC_VECTORIZED_PIPELINE_H_
#define MINIHIVE_VEC_VECTORIZED_PIPELINE_H_

#include "common/status.h"
#include "common/types.h"
#include "exec/operators.h"
#include "formats/format.h"

namespace minihive::vec {

/// Runs one map task's pipeline in vectorized mode (paper §6): the ORC
/// reader produces VectorizedRowBatches, every Filter, Select, inner
/// MapJoin and hash GroupBy below the scan runs as a batch stage of
/// tight-loop kernels over column vectors, and a ReduceSink right after
/// them writes its shuffle records straight from the column vectors. Only
/// a hash GroupBy's partials and a FileSink's rows cross back into the row
/// world. `ctx->mapjoin_tables` supplies the map joins' tables.
///
/// Returns NotImplemented, naming the reason, when the pipeline is not
/// vectorizable (wrong format, unsupported operator or expression, complex
/// types, a LEFT OUTER or duplicate-key map-join side) before it reads or
/// emits anything; the caller then falls back to the row-mode pipeline —
/// mirroring the validation step of Hive's vectorization optimizer (§6.4).
///
/// `read` is the map task's one read request for the split of `path` (the
/// same one the row-mode pipeline would open its reader with).
Status RunVectorizedMapPipeline(const exec::OpDesc* scan_root,
                                const TypePtr& schema,
                                formats::FormatKind format,
                                const std::string& path,
                                const formats::ReadOptions& read,
                                exec::TaskContext* ctx);

}  // namespace minihive::vec

#endif  // MINIHIVE_VEC_VECTORIZED_PIPELINE_H_
