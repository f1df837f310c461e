// Wire protocol for the distributed explanation service.
//
// Every message is one JSON document inside one frame (net/frame.h).
// Requests: {"scorpion_wire":3,"op":"...","id":N,"body":{...}}. Responses:
// {"scorpion_wire":3,"id":N,"ok":true,"body":{...}} on success, or
// {"scorpion_wire":3,"id":N,"ok":false,"error":{"code":C,"message":"..."}}
// where C is the sender's StatusCode — the caller gets the remote failure
// back as a local Status with the same code.
//
// Ops:
//   ping            {}                            -> {}
//   publish_dataset {table, query, table_fp}      -> {num_blocks}
//   extend_dataset  {table_fp, new_table_fp,
//                    generation, delta}           -> {num_blocks}
//   prepare_problem {table_fp, problem}           -> {session_fp}
//   explain         {session_fp, options}         -> {explanation}
//   shutdown        {}                            -> {}
//
// explain (wire v3) runs one whole explanation on the worker: the worker
// looks up the prepared session and runs the unmodified engine over the
// dataset it holds, so the answer is bit-identical to an in-process run by
// construction (same engine, same bytes). `options` is a ScorpionOptions
// document (ScorpionOptionsToJson) and `explanation` the ranked result
// (ExplanationToJson). The search never crosses the wire: workers take
// whole requests, and the coordinator only places, retries and fails them
// over.
//
// extend_dataset (since v2) is the live-table incremental publish: instead
// of reshipping the whole table after an append burst, the coordinator
// ships only the rows past the previous generation's high-water mark
// (`delta`, a table with the same schema), diff-addressed by the previous
// generation's fingerprint (`table_fp`) and stamped with the new snapshot's
// generation number. The worker appends the delta in row order — dictionary
// interning is append-only, so the extended encoding is byte-identical to
// the coordinator's frozen snapshot, which `new_table_fp` verifies — then
// re-keys the dataset under the new fingerprint, extends its query result
// incrementally, and drops sessions prepared against the old generation
// (the coordinator re-prepares against the new one).
//
// Both sides parse peer payloads under WireParseLimits() so a malicious or
// broken peer cannot OOM them with deep nesting or node amplification; the
// frame-level payload cap (FrameLimits) bounds raw bytes first.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "common/json.h"
#include "common/result.h"
#include "core/options.h"
#include "core/problem.h"
#include "core/scorpion.h"
#include "query/groupby.h"

namespace scorpion {

/// Version stamped on every envelope; peers reject anything else.
/// v2 added extend_dataset (incremental live-table publication); v3
/// replaced the per-predicate shard op with explain.
inline constexpr int64_t kDistributedWireVersion = 3;

inline constexpr char kOpPing[] = "ping";
inline constexpr char kOpPublishDataset[] = "publish_dataset";
inline constexpr char kOpExtendDataset[] = "extend_dataset";
inline constexpr char kOpPrepareProblem[] = "prepare_problem";
inline constexpr char kOpExplain[] = "explain";
inline constexpr char kOpShutdown[] = "shutdown";

/// Parse limits for documents received from a peer. Depth stays at the
/// parser default; the node cap corresponds to roughly a frame-cap-sized
/// table payload of short numbers, far above any legitimate message given
/// FrameLimits, but it bounds heap amplification from pathological inputs.
JsonParseLimits WireParseLimits();

/// \brief One decoded request envelope.
struct WireRequest {
  std::string op;
  uint64_t id = 0;
  JsonValue body;
};

/// Request/response envelope codecs. Encoders produce the full frame
/// payload (the JSON text, not the frame header).
std::string EncodeRequest(const std::string& op, uint64_t id, JsonValue body);
Result<WireRequest> ParseRequest(const std::string& payload,
                                 const JsonParseLimits& limits);

std::string EncodeResponse(uint64_t id, JsonValue body);
std::string EncodeErrorResponse(uint64_t id, const Status& status);

/// Decodes a response envelope. A well-formed error envelope becomes the
/// remote Status (same code, message prefixed with "remote: "); an id other
/// than `expect_id` is an InvalidArgument (the stream lost sync). When
/// `was_remote_error` is non-null it is set true only for well-formed error
/// envelopes — the peer answered in frame sync — letting callers
/// distinguish "the worker reported an error" from "the response itself is
/// garbage" (connection no longer trustworthy).
Result<JsonValue> ParseResponse(const std::string& payload, uint64_t expect_id,
                                const JsonParseLimits& limits,
                                bool* was_remote_error = nullptr);

/// ScorpionOptions <-> JSON, the `options` of an explain request. Covers
/// the algorithm, top_k, every dt/mc/naive/merger knob and the two
/// data-plane switches; num_threads stays off the wire because results are
/// bit-identical at every thread count, so it is the worker's own setting
/// (the decoded value keeps the default). The decoder is strict: every
/// field is required, and unknown keys, wrong types, negative or oversized
/// counts and negative or NaN real values are InvalidArgument.
JsonValue ScorpionOptionsToJson(const ScorpionOptions& options);
Result<ScorpionOptions> ScorpionOptionsFromJson(const JsonValue& value);

/// Explanation <-> JSON, the `explanation` of an explain response: the
/// ranked predicates with their influences (exact bits, WireDoubleToJson),
/// the algorithm, naive_exhausted and the NAIVE checkpoints. Per-run
/// counters, timings and cache flags stay with the process that ran it.
/// The decoder is strict like ScorpionOptionsFromJson's.
JsonValue ExplanationToJson(const Explanation& explanation);
Result<Explanation> ExplanationFromJson(const JsonValue& value);

/// Content identity of one explanation session: table fingerprint, the
/// query, and the problem annotations, hashed over their canonical JSON.
/// Coordinator and worker compute it independently; a mismatch after
/// prepare_problem means the two sides disagree on the data and the
/// coordinator refuses to serve.
Fingerprint SessionFingerprint(const Fingerprint& table_fp,
                               const GroupByQuery& query,
                               const ProblemSpec& problem);

}  // namespace scorpion
