// Versioned KV wire format — what a prefill instance ships to decode.
//
// The paper's disaggregated flow (§2, §6) transfers the *quantized* KV cache
// between workers: the decode side attends homomorphically on the very codes
// that crossed the wire, never dequantizing or requantizing them. This module
// is that wire: it serializes every transformer layer's HACK KV state — the
// packed code planes, the FP16 (min, scale) metadata, the SE partition sums,
// the RQE FP16 tail of V, and each KV head's RNG stream position — into one
// contiguous versioned blob, and rehydrates it into a fresh decode-side state
// that continues generation bit-identically to the single-node engine
// (pinned in tests/test_kv_wire.cpp; contract in docs/disaggregation.md).
//
// Layout (all integers little-endian):
//
//   header   magic "HKVW" u32 · version u32 · layers u32 · kv_heads u32 ·
//            query_heads u32 · d_head u32 · pi u32 ·
//            q_bits u8 · kv_bits u8 · flags u8 (bit0 SE, bit1 RQE,
//            bit2 stochastic rounding) · reserved u8 ·
//            tokens u64 · payload_bytes u64
//   body     layers × kv_heads head records, layer-major. Each record holds
//            the head's entries past the blob's base position (base_tokens
//            below; 0 for a full blob, whose records hold everything):
//     rng    4 × u64                      the head's current xoshiro256**
//                                         state (replaces the base's)
//     K      rows [base, tokens): packed codes (kv_bits × (tokens−base)·
//            d_head) · mins, scales (binary16 × (tokens−base)·(d_head/Π)) ·
//            [SE] sums (u16 × (tokens−base)·(d_head/Π))
//     V      new_v_rows u64 — the whole-Π partitions sealed past the base ·
//            packed codes (kv_bits × new_v_rows·d_head) ·
//            mins, scales (binary16 × d_head·(new_v_rows/Π), column-outer:
//            each column's new groups in turn) · [SE] sums (u16, likewise)
//     tail   kind u8 (0 none · 1 FP16 rows, RQE on · 2 ragged quantized
//            group, RQE off) · rows u64 (tokens mod Π) · payload (binary16 ×
//            rows·d_head, or packed codes + per-column binary16 (min,
//            scale)). The tail mutates in place, so every record ships the
//            whole current tail.
//
// Version 2 (the only full-blob version) wraps that layout in integrity
// framing, so a corrupted or truncated blob is a *typed error* at the
// receiver, never UB:
//
//   header   the fields above, then header_crc u32 — CRC32C over the
//            preceding bytes
//   record   each (layer × KV head) record is preceded by
//            record_bytes u64 · record_crc u32; the CRC covers the record
//            payload, which is only *parsed* after the checksum matches.
//
// Blobs never outlive the process that wrote them, so there is no older
// version to read: a version-1 header (the original CRC-less layout) fails
// with kBadVersion like any other unknown version.
// Deserialization failures throw KvWireError with a precise KvWireErrorCode
// (bad magic / version / geometry / CRC / truncation / malformed section);
// the disagg recovery layer (serving/disagg.h) catches kBadCrc to drive
// full-blob retransmission. The header parse also bounds tokens − base by
// the blob size, so a CRC-valid header with a false token count is
// kBadSection rather than a runaway allocation.
//
// Version 3 is the *delta* format — a mid-decode checkpoint against a base
// sequence position (the blob a prefill worker already shipped). It is v2
// plus base_tokens and the suffix record:
//
//   header   the shared fields (version 3, tokens = total at the checkpoint),
//            then base_tokens u64 · header_crc u32 (CRC32C over all prior
//            bytes)
//   suffix   one CRC-framed record: count u64 · next_token u32 ·
//            count × token u32 — the greedy tokens decoded since the base,
//            plus the already-computed next input token
//   body     layers × kv_heads CRC-framed head records, as above
//
// apply_kv_delta rehydrates a state currently holding exactly base_tokens
// into the checkpointed state, bit-identical to a full-blob restore of the
// same session (pinned in tests/test_kv_wire.cpp) — so a decode replica can
// resume generation from base blob + latest delta without re-prefilling.
//
// With SE off the sums are not transmitted (the decode side recomputes them
// per iteration, exactly like the paper's ablation); rehydration rebuilds the
// bookkeeping caches from the codes, which is bit-identical. The blob rides
// the netsim NCCL-style pipelined transfer in `kv_wire_transfer_chunks`-sized
// chunks (serving/disagg.h drives that end to end).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attention/layer_attention.h"
#include "base/check.h"

namespace hack {

class TinyModelSession;

inline constexpr std::uint32_t kKvWireMagic = 0x57564B48u;  // "HKVW"
inline constexpr std::uint32_t kKvWireVersion = 2u;
// The incremental-checkpoint format: only entries appended since a base
// position. Written by serialize_kv_delta, consumed by apply_kv_delta;
// deserialize_kv_wire rejects it with a typed kBadVersion error.
inline constexpr std::uint32_t kKvWireVersionDelta = 3u;

// Why a wire-blob deserialization failed. Every failure mode a corrupted,
// truncated, or foreign blob can produce maps to exactly one code — the
// corruption sweep in tests/test_kv_wire.cpp pins that no input reaches
// undefined behavior or an untyped assert.
enum class KvWireErrorCode {
  kBadMagic,      // not a HACK KV wire blob
  kBadVersion,    // version field is not v2/v3, or a delta blob reached
                  // the full-restore path (and vice versa)
  kBadGeometry,   // header geometry/config disagrees with the target states
  kBadCrc,        // header or record checksum mismatch
  kTruncated,     // blob shorter than its framing claims
  kTrailingBytes, // blob longer than its framing claims
  kBadSection,    // a section field violates a format invariant
};

const char* kv_wire_error_name(KvWireErrorCode code);

// Typed wire failure. Derives from CheckError so pre-v2 callers that caught
// the generic error keep working; new callers branch on code() — the disagg
// retry policy retransmits on kBadCrc/kTruncated and gives up on the rest.
class KvWireError : public CheckError {
 public:
  KvWireError(KvWireErrorCode code, const std::string& what)
      : CheckError(what), code_(code) {}
  KvWireErrorCode code() const { return code_; }

 private:
  KvWireErrorCode code_;
};

// Byte accounting of one serialized blob, by section kind. `framing` is the
// header plus the per-record length/kind fields — the format's own overhead.
struct KvWireSections {
  std::size_t framing = 0;
  std::size_t rng_streams = 0;
  std::size_t packed_codes = 0;
  std::size_t metadata = 0;   // FP16 (min, scale) pairs
  std::size_t sums = 0;       // SE partition sums
  std::size_t fp16_tail = 0;  // RQE FP16 tail rows of V

  std::size_t total() const {
    return framing + rng_streams + packed_codes + metadata + sums + fp16_tail;
  }
};

// Parsed header of a blob (validated magic/version/length).
struct KvWireInfo {
  std::uint32_t version = 0;
  std::size_t layers = 0;
  std::size_t kv_heads = 0;
  std::size_t query_heads = 0;
  std::size_t d_head = 0;
  std::size_t pi = 0;
  int q_bits = 0;
  int kv_bits = 0;
  bool summation_elimination = false;
  bool requant_elimination = false;
  bool stochastic_rounding = false;
  std::uint64_t tokens = 0;
  std::uint64_t payload_bytes = 0;
  // v3 only: the sequence position the delta applies at (0 for v2).
  std::uint64_t base_tokens = 0;
  std::size_t header_bytes = 0;  // 52 (v2, incl. header_crc) or 60 (v3,
                                 // incl. base_tokens + header_crc)
};

// Serializes the given layers' KV states (one HackLayerKvState per
// transformer layer, all sharing one config and token count) into a wire
// v2 blob. `sections` (optional) receives the byte accounting.
std::vector<std::uint8_t> serialize_kv_wire(
    std::span<HackLayerKvState* const> layers,
    KvWireSections* sections = nullptr);

// Validates and parses the fixed header — including the v2 header CRC.
// Throws KvWireError on a foreign, corrupted, or truncated blob.
KvWireInfo parse_kv_wire_header(std::span<const std::uint8_t> blob);

// Rehydrates `layers` (fresh, zero-token states whose config and geometry
// must match the header) from a blob. Codes, metadata, sums, tails, and RNG
// stream positions land exactly as shipped. Every record's CRC is verified
// before its bytes are interpreted; any corruption or truncation throws
// KvWireError with the matching code.
void deserialize_kv_wire(std::span<const std::uint8_t> blob,
                         std::span<HackLayerKvState* const> layers);

// Walks every CRC frame of a v2/v3 blob — header and records — without
// rehydrating anything. The checkpoint store's admission gate: a delta whose
// bytes were corrupted in flight is rejected here (KvWireError) instead of
// poisoning the store and failing the eventual resume.
void verify_kv_wire(std::span<const std::uint8_t> blob);

// The decoded-token suffix a delta checkpoint carries alongside the KV
// entries: the greedy tokens generated since the base position (exactly
// tokens − base_tokens of them — each decoded token appended one KV row) and
// the already-computed next input token, so a resuming replica continues the
// decode loop mid-stride, bit-identically.
struct KvDeltaSuffix {
  std::vector<int> generated;
  int next_token = -1;
};

// Serializes a wire v3 delta of `layers` (currently at some tokens >
// base_tokens) against the base position — only the KV entries appended past
// `base_tokens`, plus RNG streams, the full current V tail, and `suffix`.
std::vector<std::uint8_t> serialize_kv_delta(
    std::span<HackLayerKvState* const> layers, std::uint64_t base_tokens,
    const KvDeltaSuffix& suffix, KvWireSections* sections = nullptr);

// Applies a v3 delta onto `layers`, which must hold exactly the blob's
// base_tokens (i.e. be a rehydrated copy of the base blob). After the call
// the states are bit-identical to the checkpointed originals — same codes,
// metadata, sums, tails, and RNG words a full-blob restore would produce.
// Returns the decoded-token suffix. Throws KvWireError on any mismatch.
KvDeltaSuffix apply_kv_delta(std::span<const std::uint8_t> blob,
                             std::span<HackLayerKvState* const> layers);

// Session-level wrappers: serialize every layer of a (HACK layer backend)
// session after prefill, or rehydrate a fresh session — including its
// timeline position — so decoding continues where the prefill worker stopped.
// These are also the tiered KV manager's swap entry points
// (kvcache/tier_manager.h): eviction serializes a sequence to the compressed
// far tier and resume rehydrates it, with KvWireSections giving the
// per-section byte accounting the tier's swap counters report.
std::vector<std::uint8_t> serialize_session_kv(
    TinyModelSession& session, KvWireSections* sections = nullptr);
void deserialize_session_kv(std::span<const std::uint8_t> blob,
                            TinyModelSession& session);

// Delta wrappers: serialize a checkpoint of a mid-decode session, or apply
// one onto a session previously rehydrated from the base blob (its position
// advances to the checkpointed token count).
std::vector<std::uint8_t> serialize_session_kv_delta(
    TinyModelSession& session, std::uint64_t base_tokens,
    const KvDeltaSuffix& suffix, KvWireSections* sections = nullptr);
KvDeltaSuffix apply_session_kv_delta(std::span<const std::uint8_t> blob,
                                     TinyModelSession& session);

// How many pipeline chunks a blob of `blob_bytes` rides the netsim NCCL-style
// transfer in: ceil(blob/chunk), clamped to [1, 64] so tiny blobs don't pay
// per-chunk latency and huge ones don't book unbounded events.
int kv_wire_transfer_chunks(std::size_t blob_bytes, std::size_t chunk_bytes);

}  // namespace hack
