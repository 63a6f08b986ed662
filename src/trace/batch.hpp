// RecordBatch: one decoded container chunk, as the engine reads it.
//
// Every TraceSource lends out its records as BatchViews (reader.hpp):
// a pointer into TraceRecords it already holds — a chunk the one chunk
// decoder (container.hpp) wrote into a RecordBatch, the rest of an
// in-memory Trace, or a live generator's staging vector. A record has
// one decoded form, the TraceRecord, so a view is handed over in place
// and nothing is converted between the decoder and the engine.
#ifndef RESIM_TRACE_BATCH_H
#define RESIM_TRACE_BATCH_H

#include <cstddef>
#include <vector>

#include "trace/record.hpp"

namespace resim::trace {

using RecordBatch = std::vector<TraceRecord>;

/// A borrowed run of not-yet-consumed records. Returned by
/// TraceSource::fetch_view(); valid until the next mutating call on the
/// source that produced it. Empty means end of stream.
struct BatchView {
  const TraceRecord* records = nullptr;  ///< the first unconsumed record
  std::size_t count = 0;                 ///< records available from `records`
  [[nodiscard]] bool empty() const { return count == 0; }
};

}  // namespace resim::trace

#endif  // RESIM_TRACE_BATCH_H
