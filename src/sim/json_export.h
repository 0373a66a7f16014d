// Machine-readable export of experiment results (minimal JSON writer, no
// external dependency) so plots/regressions can consume bench output. The
// one encoder of a CellResult: the wire format (sim/wire.h) is this object.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace disco::sim {

/// Append one result to `out` as a JSON object: doubles in the shortest form
/// that round-trips (std::invalid_argument if one is not finite), a gated
/// object (fault, hard_fault, invariants) exactly when its gate is set, and
/// the transport-only trace_text only with `transport`.
void append_json(std::string& out, const CellResult& result, bool transport);

/// Serialize one result as a JSON object.
void write_json(std::ostream& os, const CellResult& result);

/// Serialize a list of results as a JSON array.
void write_json(std::ostream& os, const std::vector<CellResult>& results);

}  // namespace disco::sim
