// Client protocol of the esv-serve verification service (docs/SERVE.md).
//
// Frames ride the same transport as the distributed campaign runner: a
// 4-byte little-endian payload length, a 4-byte little-endian CRC-32, then
// one JSON object (dist/wire.hpp). One connection carries any number of
// requests; the server streams responses back on the same connection.
//
// Client -> server:
//   {"type":"submit","v":1,"tenant":"...","seed_lo":N,"seed_hi":N,
//    "workers":N,"config":{...}}                            queue one job
//   {"type":"status"}                                       service snapshot
//   {"type":"cancel","job":N}                               cancel one job
//   {"type":"shutdown"}                                     graceful stop
//
// Server -> client:
//   {"type":"accepted","job":N,"key":"...","cached":B,"queue_depth":N}
//       The job is durably queued (journaled before this frame is sent —
//       an accepted-and-acked job survives a daemon kill). cached:true
//       means the result was already in the cache and the report frame
//       follows immediately.
//   {"type":"rejected","reason":"...","queue_depth":N}
//       Bounded-queue backpressure or a malformed submit. The job was NOT
//       queued; resubmit later. Never silent.
//   {"type":"progress","job":N,"done":N,"total":N}
//       Streamed while the job runs (per completed seed, coalesced).
//   {"type":"report","job":N,"cached":B,"exit":N,"report":"<json text>"}
//       Terminal success frame. `report` is the deterministic
//       (include_timing=false) campaign report rendering, carried as a JSON
//       string so clients recover its exact bytes; `exit` is the esv-verify
//       exit code the run maps to (0 clean, 1 violation/errored seeds,
//       3 deadline). A `"durable":false` member appears when the daemon
//       could not journal the completion before streaming it: the result
//       is correct but was neither cached nor persisted, so a daemon
//       restart will re-run the job instead of replaying these bytes.
//   {"type":"cancelled","job":N}
//       Terminal frame of a cancelled job; also the ack of a cancel request.
//   {"type":"status_reply",...}      (built by the server, schema in
//                                     docs/SERVE.md)
//   {"type":"shutdown_ack"}          the server is stopping
#pragma once

#include <cstdint>
#include <string>

#include "campaign/campaign.hpp"
#include "dist/wire.hpp"

namespace esv::serve {

constexpr std::uint64_t kServeProtocolVersion = 1;

/// Default bound on a single inbound request frame's declared payload
/// length (ServerOptions::max_request_bytes, --max-request-bytes). The wire
/// itself tolerates frames up to dist::kMaxFramePayload (256 MiB); a shared
/// daemon must not let one tenant park a quarter-gigabyte submit in its
/// read buffer, so the service rejects at the frame header — before the
/// payload is buffered — anything past this far smaller ceiling.
constexpr std::uint32_t kDefaultMaxRequestBytes = 8u * 1024u * 1024u;

enum class FrameKind {
  kSubmit,
  kStatus,
  kCancel,
  kShutdown,
  kAccepted,
  kRejected,
  kProgress,
  kReport,
  kCancelled,
  kStatusReply,
  kShutdownAck,
};

/// Maps a parsed frame to its kind. Throws dist::WireError on a missing or
/// unknown "type" — the connection-level handler turns that into a
/// rejected frame rather than a dropped connection.
FrameKind frame_kind(const dist::Json& json);

// --- campaign shape ------------------------------------------------------
// The kInShape fields of campaign/config_fields.hpp, which the worker wire
// omits (it assigns seeds per chunk): serve frames and journal records
// carry them as explicit siblings of "config".

/// Renders `,"seed_lo":N,"seed_hi":N,"workers":N` for embedding next to a
/// "config" member.
std::string campaign_shape_json(const campaign::CampaignConfig& config);

/// Reads the shape fields back into a config parsed with
/// dist::config_from_json (an absent seed_hi means seed_lo). Throws
/// dist::WireError on a bad range.
void apply_campaign_shape(const dist::Json& json,
                          campaign::CampaignConfig& config);

// --- client -> server builders -------------------------------------------

std::string make_submit(const std::string& tenant,
                        const campaign::CampaignConfig& config);
std::string make_status_request();
std::string make_cancel(std::uint64_t job);
std::string make_shutdown_request();

// --- server -> client builders -------------------------------------------

std::string make_accepted(std::uint64_t job, const std::string& key,
                          bool cached, std::uint64_t queue_depth);
std::string make_rejected(const std::string& reason,
                          std::uint64_t queue_depth);
std::string make_progress(std::uint64_t job, std::uint64_t done,
                          std::uint64_t total);
/// `durable` is true when the completion reached the journal (or none is
/// configured); false adds `"durable":false` to warn the client that the
/// report survives neither a cache lookup nor a daemon restart.
std::string make_report_frame(std::uint64_t job, bool cached, int exit_code,
                              const std::string& report_json,
                              bool durable = true);
std::string make_cancelled(std::uint64_t job);
std::string make_shutdown_ack();

}  // namespace esv::serve
