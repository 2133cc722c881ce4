#pragma once
/// \file trace_export.hpp
/// Chrome trace-event JSON export of an obs::Trace (the `dibella --trace=FILE`
/// artifact). The output is the classic `{"traceEvents":[...]}` envelope that
/// both chrome://tracing and https://ui.perfetto.dev load directly:
///
///   * one thread track per rank (pid 0 "dibella", tid = rank), named via
///     "M" metadata events;
///   * span kBegin/kEnd pairs as "B"/"E" duration events (the viewer nests
///     them by timestamp, exactly mirroring the span hierarchy);
///   * kComplete events as "X" events with an explicit dur;
///   * kAsyncBegin/kAsyncEnd as "b"/"e" async events (cat "exchange") — the
///     in-flight window of each nonblocking exchange renders as an arrowed
///     bar above the rank's track, carrying bytes/retries args;
///   * timestamps in microseconds (3 fractional digits) from the trace epoch.
///
/// Every event a lane recorded is exported; a trace whose rings overflowed
/// (Trace::dropped_events() > 0) still exports, the gap is simply visible.

#include <ostream>

#include "obs/span.hpp"

namespace dibella::obs {

/// Write `trace` as Chrome trace-event JSON. Call Trace::finalize() first if
/// spans may still be open (an unmatched "B" renders as running-forever).
void write_chrome_trace(std::ostream& os, const Trace& trace);

}  // namespace dibella::obs
