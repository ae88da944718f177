/**
 * @file
 * Text serialization of event sequences.
 *
 * The artifact ships Python scripts that generate test sequences as
 * source-embedded tables; we use a plain text format instead so traces
 * can be stored, edited and replayed:
 *
 *   # comment
 *   seq <name> <seed>
 *   event_ns <arrival_ns> <app_name> <batch> <priority>
 *   ...
 *
 * Arrivals are written as integer nanoseconds (event_ns) so a
 * write/read round trip reproduces every SimTime exactly. The legacy
 * "event <arrival_ms>" directive (fractional milliseconds, lossy below
 * 1 us) is still accepted on read.
 */

#ifndef NIMBLOCK_WORKLOAD_TRACE_IO_HH
#define NIMBLOCK_WORKLOAD_TRACE_IO_HH

#include <string>

#include "workload/event.hh"

namespace nimblock {

/** Serialize a sequence to trace text. */
std::string traceToString(const EventSequence &seq);

/**
 * Parse trace text.
 *
 * fatal()s on malformed input (unknown directives, missing or trailing
 * fields, negative arrivals or arrivals past the simulated clock's
 * range, unsorted arrivals).
 */
EventSequence traceFromString(const std::string &text);

/** Write a sequence to @p path; @retval true on success. */
bool writeTraceFile(const EventSequence &seq, const std::string &path);

/** Read a sequence from @p path; fatal()s when unreadable/malformed. */
EventSequence readTraceFile(const std::string &path);

} // namespace nimblock

#endif // NIMBLOCK_WORKLOAD_TRACE_IO_HH
