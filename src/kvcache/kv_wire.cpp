#include "kvcache/kv_wire.h"

#include <cstring>
#include <sstream>

#include "base/crc32c.h"
#include "model/session.h"
#include "quant/packed.h"
#include "tensor/half.h"

namespace hack {
namespace {

[[noreturn]] void wire_fail(KvWireErrorCode code, const std::string& what) {
  throw KvWireError(code, "KV wire [" + std::string(kv_wire_error_name(code)) +
                              "]: " + what);
}

#define KV_WIRE_CHECK(cond, code, ...)            \
  do {                                            \
    if (!(cond)) {                                \
      ::std::ostringstream kv_wire_os_;           \
      kv_wire_os_ << __VA_ARGS__;                 \
      wire_fail(code, kv_wire_os_.str());         \
    }                                             \
  } while (false)

std::size_t packed_code_section_bytes(int bits, std::size_t count) {
  return (count * static_cast<std::size_t>(bits) + 7) / 8;
}

// Bump-pointer little-endian writer with per-section byte accounting.
struct Writer {
  std::vector<std::uint8_t> buf;
  KvWireSections sections;

  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
  }
  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) {
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void patch_u32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  void patch_u64(std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  // FP16 (min, scale) metadata: the floats are already fp16_round()ed by the
  // quantizer, so binary16 bit patterns round-trip them exactly.
  void halves(std::span<const float> values) {
    for (const float v : values) u16(Half(v).bits());
    sections.metadata += 2 * values.size();
  }
  void fp16_rows(const Matrix& m) {
    for (const float v : m.flat()) u16(Half(v).bits());
    sections.fp16_tail += 2 * m.size();
  }
  void sum_span(const std::int32_t* data, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      HACK_CHECK(data[i] >= 0 && data[i] <= 0xFFFF,
                 "partition sum " << data[i] << " outside the wire's u16");
      u16(static_cast<std::uint16_t>(data[i]));
    }
    sections.sums += 2 * count;
  }
  void sum_entries(const SumCache& s) {
    sum_span(s.data(), s.outer() * s.groups());
  }
  void packed(std::span<const std::uint8_t> codes, int bits) {
    const std::size_t bytes = packed_code_section_bytes(bits, codes.size());
    const std::size_t at = buf.size();
    buf.resize(at + bytes, 0);
    if (!codes.empty()) pack_codes(codes, bits, buf.data() + at);
    sections.packed_codes += bytes;
  }
};

// Bounds-checked little-endian reader. Every take() validates against the
// remaining bytes *before* touching (or allocating for) them, so a malformed
// length field is a typed kTruncated error, never an out-of-bounds read or a
// runaway allocation.
struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;

  std::size_t remaining() const { return buf.size() - pos; }
  std::span<const std::uint8_t> take(std::size_t n) {
    KV_WIRE_CHECK(n <= remaining(), KvWireErrorCode::kTruncated,
                  "need " << n << " bytes at offset " << pos << " of "
                          << buf.size());
    const auto out = buf.subspan(pos, n);
    pos += n;
    return out;
  }
  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  std::vector<float> halves(std::size_t count) {
    const auto b = take(2 * count);  // bounds before allocation
    std::vector<float> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = Half::from_bits(
                   static_cast<std::uint16_t>(b[2 * i] | (b[2 * i + 1] << 8)))
                   .to_float();
    }
    return out;
  }
  std::vector<std::uint8_t> packed(int bits, std::size_t count) {
    const auto bytes = take(packed_code_section_bytes(bits, count));
    return PackedBits::from_bytes(bits, count, bytes).unpack();
  }
  // The packed code section verbatim — what the packed-resident planes adopt
  // directly instead of unpacking to bytes.
  std::vector<std::uint8_t> packed_raw(int bits, std::size_t count) {
    const auto bytes = take(packed_code_section_bytes(bits, count));
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
  }
};

constexpr std::uint8_t kFlagSe = 1u << 0;
constexpr std::uint8_t kFlagRqe = 1u << 1;
constexpr std::uint8_t kFlagStochastic = 1u << 2;

constexpr std::uint8_t kTailNone = 0;
constexpr std::uint8_t kTailFp16 = 1;
constexpr std::uint8_t kTailRaggedQuantized = 2;

// The fixed header fields every version shares: 7 × u32 + 4 × u8 + 2 × u64.
// v2 follows them with header_crc (u32) and frames each record with
// record_bytes (u64) + record_crc (u32). v3 (delta) inserts base_tokens (u64)
// before the CRC and keeps v2's framing.
constexpr std::size_t kHeaderFieldBytes = 7 * 4 + 4 + 2 * 8;
constexpr std::size_t kHeaderBytesV2 = kHeaderFieldBytes + 4;
constexpr std::size_t kHeaderBytesV3 = kHeaderFieldBytes + 8 + 4;
constexpr std::size_t kRecordFramingBytes = 8 + 4;

// Consumes one CRC-framed record (record_bytes u64 · record_crc u32 ·
// payload), verifying the checksum before a single payload byte is parsed.
std::span<const std::uint8_t> take_crc_record(Reader& r) {
  const std::uint64_t record_bytes = r.u64();
  const std::uint32_t stored = r.u32();
  const auto record = r.take(record_bytes);
  const std::uint32_t computed = crc32c(record.data(), record.size());
  KV_WIRE_CHECK(stored == computed, KvWireErrorCode::kBadCrc,
                "record CRC mismatch (stored " << stored << ", computed "
                                               << computed << ")");
  return record;
}

// Writes rows [row_begin, row_begin + row_count) of `q`'s codes as the
// bit-packed wire section. Resident KV planes already hold bit-packed rows;
// because every plane is d_head (a multiple of 16) codes wide, each packed
// row is byte-exact and the section is a straight copy of the resident bytes
// — byte-identical to packing unpacked codes, so the wire format is
// unchanged. Unpacked (byte-storage) matrices take the classic pack path.
void write_packed_rows(Writer& w, const QuantizedMatrix& q,
                       std::size_t row_begin, std::size_t row_count) {
  if (q.packed_storage()) {
    HACK_CHECK(q.storage_bits == q.bits,
               "packed storage width " << q.storage_bits
                                       << " != code width " << q.bits);
    HACK_CHECK((q.cols * static_cast<std::size_t>(q.storage_bits)) % 8 == 0,
               "packed rows must be byte-exact for the wire");
    const std::size_t stride = q.code_row_stride();
    w.raw(q.codes.data() + row_begin * stride, row_count * stride);
    w.sections.packed_codes += row_count * stride;
  } else {
    w.packed(std::span<const std::uint8_t>(q.codes)
                 .subspan(row_begin * q.cols, row_count * q.cols),
             q.bits);
  }
}

void write_quantized(Writer& w, const QuantizedMatrix& q) {
  write_packed_rows(w, q, 0, q.rows);
  w.halves(q.mins);
  w.halves(q.scales);
}

// The V-tail section: FP16 rows (RQE on) or one ragged quantized group (RQE
// off). Shared by the full and delta writers — a delta ships the whole
// current tail.
void write_tail(Writer& w, const HackAttentionConfig& config,
                const HackKvState& st) {
  if (config.requant_elimination && st.v_tail_fp16().rows() > 0) {
    w.u8(kTailFp16);
    w.u64(st.v_tail_fp16().rows());
    w.fp16_rows(st.v_tail_fp16());
  } else if (!config.requant_elimination && st.v_tail_quantized_ready()) {
    w.u8(kTailRaggedQuantized);
    w.u64(st.v_tail_quantized().rows);
    write_quantized(w, st.v_tail_quantized());
  } else {
    w.u8(kTailNone);
    w.u64(0);
  }
}

QuantizedMatrix read_quantized(Reader& r, std::size_t rows, std::size_t cols,
                               int bits, QuantAxis axis, std::size_t pi,
                               std::size_t groups) {
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.bits = bits;
  q.axis = axis;
  q.pi = pi;
  q.groups = groups;
  if (bits != 8 && (cols * static_cast<std::size_t>(bits)) % 8 == 0) {
    // Adopt the wire's packed bytes as the resident representation — the
    // decode-side half of the near-memcpy handoff.
    q.codes = r.packed_raw(bits, rows * cols);
    q.storage_bits = bits;
  } else {
    q.codes = r.packed(bits, rows * cols);
  }
  const std::size_t meta = q.outer() * groups;
  q.mins = r.halves(meta);
  q.scales = r.halves(meta);
  return q;
}

SumCache read_sums(Reader& r, std::size_t outer, std::size_t groups) {
  const std::size_t count = outer * groups;
  const auto b = r.take(2 * count);  // bounds before allocation
  std::vector<std::int32_t> sums(count);
  for (std::size_t i = 0; i < count; ++i) {
    sums[i] = static_cast<std::int32_t>(b[2 * i] | (b[2 * i + 1] << 8));
  }
  return SumCache::from_parts(outer, groups, std::move(sums));
}

const HackAttentionConfig& checked_shared_config(
    std::span<HackLayerKvState* const> layers) {
  HACK_CHECK(!layers.empty(), "KV wire needs at least one layer");
  const HackLayerKvState& first = *layers[0];
  for (const HackLayerKvState* layer : layers) {
    HACK_CHECK(layer != nullptr, "null layer state");
    const HackAttentionConfig& c = layer->config();
    const HackAttentionConfig& f = first.config();
    HACK_CHECK(c.pi == f.pi && c.q_bits == f.q_bits &&
                   c.kv_bits == f.kv_bits && c.rounding == f.rounding &&
                   c.summation_elimination == f.summation_elimination &&
                   c.requant_elimination == f.requant_elimination &&
                   layer->d_head() == first.d_head() &&
                   layer->kv_heads() == first.kv_heads() &&
                   layer->query_heads() == first.query_heads() &&
                   layer->tokens() == first.tokens(),
               "layers disagree on config/geometry/tokens; one wire blob "
               "ships one sequence");
  }
  return first.config();
}

// Parses a record's trailing V-tail section (kind u8 · rows u64 · payload)
// into `tail_fp16`/`tail_q`, returning the kind. Shared by the full-restore
// and delta paths — a delta ships the entire current tail, replacing the
// base's (tails mutate in place as tokens cross Π boundaries).
std::uint8_t read_tail(Reader& r, const KvWireInfo& info, Matrix* tail_fp16,
                       QuantizedMatrix* tail_q) {
  const std::size_t d_head = info.d_head;
  const std::uint8_t tail_kind = r.u8();
  const std::uint64_t tail_rows = r.u64();
  if (tail_kind == kTailFp16) {
    KV_WIRE_CHECK(info.requant_elimination && tail_rows > 0 &&
                      tail_rows < info.pi,
                  KvWireErrorCode::kBadSection,
                  "FP16 tail of " << tail_rows << " rows is invalid");
    const std::vector<float> values = r.halves(tail_rows * d_head);
    *tail_fp16 = Matrix::from_rows(tail_rows, d_head, values);
  } else if (tail_kind == kTailRaggedQuantized) {
    KV_WIRE_CHECK(!info.requant_elimination && tail_rows > 0 &&
                      tail_rows < info.pi,
                  KvWireErrorCode::kBadSection,
                  "ragged tail of " << tail_rows << " rows is invalid");
    *tail_q = read_quantized(r, tail_rows, d_head, info.kv_bits,
                             QuantAxis::kCol, info.pi, 1);
  } else {
    KV_WIRE_CHECK(tail_kind == kTailNone && tail_rows == 0,
                  KvWireErrorCode::kBadSection,
                  "unknown tail kind " << int(tail_kind));
  }
  return tail_kind;
}

// Parses one (layer × KV head) record from `r` into the layer's head `h`.
// The caller hands a sub-reader whose span is exactly the CRC-verified
// record.
void read_head_record(Reader& r, const KvWireInfo& info,
                      HackLayerKvState* layer, std::size_t h) {
  const std::size_t tokens = info.tokens;
  const std::size_t d_head = info.d_head;
  const std::size_t k_groups = d_head / info.pi;

  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  Rng rng(0);
  rng.set_state(rng_state);
  layer->set_head_rng(h, rng);

  QuantizedMatrix k = read_quantized(r, tokens, d_head, info.kv_bits,
                                     QuantAxis::kRow, info.pi, k_groups);
  SumCache k_sums = info.summation_elimination
                        ? read_sums(r, tokens, k_groups)
                        : SumCache::build(k);

  const std::uint64_t v_rows = r.u64();
  KV_WIRE_CHECK(v_rows % info.pi == 0 && v_rows <= tokens,
                KvWireErrorCode::kBadSection,
                "V section rows " << v_rows << " not a whole-Π prefix of "
                                  << tokens << " tokens");
  QuantizedMatrix v_q;
  SumCache v_sums;
  if (v_rows > 0) {
    v_q = read_quantized(r, v_rows, d_head, info.kv_bits, QuantAxis::kCol,
                         info.pi, v_rows / info.pi);
    v_sums = info.summation_elimination
                 ? read_sums(r, d_head, v_rows / info.pi)
                 : SumCache::build(v_q);
  }

  Matrix tail_fp16;
  QuantizedMatrix tail_q;
  const std::uint8_t tail_kind = read_tail(r, info, &tail_fp16, &tail_q);

  layer->head_state_mut(h).restore(
      tokens, std::move(k), std::move(k_sums), std::move(v_q),
      std::move(v_sums), std::move(tail_fp16), std::move(tail_q),
      tail_kind == kTailRaggedQuantized);
}

// Applies one (layer × KV head) v3 delta record onto the head's current
// (base) state and restores the merged result. K rows and whole-Π V
// partitions are append-only — their codes and metadata never change once
// written — so base + delta covers every entry exactly once and the merge is
// bit-identical to a full-blob restore of the checkpointed head. K appends
// are contiguous (rows are the outer axis); V metadata is column-outer, so
// the shipped per-column gathers are re-interleaved here. The tail and the
// RNG stream replace the base's outright.
void apply_head_delta(Reader& r, const KvWireInfo& info,
                      HackLayerKvState* layer, std::size_t h) {
  const std::size_t tokens = info.tokens;
  const std::size_t base = info.base_tokens;
  const std::size_t dt = tokens - base;
  const std::size_t d_head = info.d_head;
  const std::size_t k_groups = d_head / info.pi;

  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  Rng rng(0);
  rng.set_state(rng_state);

  const HackKvState& st = layer->head_state(h);
  KV_WIRE_CHECK(st.tokens() == base, KvWireErrorCode::kBadGeometry,
                "delta applies at base " << base << "; target head holds "
                                         << st.tokens() << " tokens");

  // K: concatenate the appended rows' codes, metadata, and sums.
  QuantizedMatrix k_delta = read_quantized(r, dt, d_head, info.kv_bits,
                                           QuantAxis::kRow, info.pi, k_groups);
  const QuantizedMatrix& k_old = st.k();
  QuantizedMatrix k;
  k.rows = tokens;
  k.cols = d_head;
  k.bits = info.kv_bits;
  k.axis = QuantAxis::kRow;
  k.pi = info.pi;
  k.groups = k_groups;
  // Both sides hold the resident representation (bit-packed rows below 8
  // bits), and rows are byte-exact, so appended rows concatenate byte-wise.
  KV_WIRE_CHECK(k_delta.storage_bits == k_old.storage_bits,
                KvWireErrorCode::kBadSection,
                "delta K storage width " << k_delta.storage_bits
                                         << " != base " << k_old.storage_bits);
  k.storage_bits = k_old.storage_bits;
  k.codes = k_old.codes;
  k.codes.insert(k.codes.end(), k_delta.codes.begin(), k_delta.codes.end());
  k.mins = k_old.mins;
  k.mins.insert(k.mins.end(), k_delta.mins.begin(), k_delta.mins.end());
  k.scales = k_old.scales;
  k.scales.insert(k.scales.end(), k_delta.scales.begin(),
                  k_delta.scales.end());
  SumCache k_sums;
  if (info.summation_elimination) {
    const SumCache delta_sums = read_sums(r, dt, k_groups);
    std::vector<std::int32_t> merged(tokens * k_groups);
    const std::int32_t* old_sums = st.k_sums().data();
    std::copy(old_sums, old_sums + base * k_groups, merged.begin());
    std::copy(delta_sums.data(), delta_sums.data() + dt * k_groups,
              merged.begin() + base * k_groups);
    k_sums = SumCache::from_parts(tokens, k_groups, std::move(merged));
  } else {
    k_sums = SumCache::build(k);
  }

  // V: append the new whole-Π partitions' codes and re-interleave each
  // column's metadata (old groups, then new).
  const std::size_t base_v_rows = base - base % info.pi;
  const std::size_t old_v_rows =
      st.v_quantized_ready() ? st.v_quantized().rows : 0;
  KV_WIRE_CHECK(old_v_rows == base_v_rows, KvWireErrorCode::kBadGeometry,
                "target V store holds " << old_v_rows
                                        << " rows; the delta's base implies "
                                        << base_v_rows);
  const std::uint64_t new_v_rows = r.u64();
  const std::size_t total_v_rows = tokens - tokens % info.pi;
  KV_WIRE_CHECK(new_v_rows % info.pi == 0 &&
                    base_v_rows + new_v_rows == total_v_rows,
                KvWireErrorCode::kBadSection,
                "delta V section carries " << new_v_rows
                                           << " rows; expected "
                                           << total_v_rows - base_v_rows);
  QuantizedMatrix v_q;
  SumCache v_sums;
  if (total_v_rows > 0) {
    const std::size_t g_old = base_v_rows / info.pi;
    const std::size_t g_new = new_v_rows / info.pi;
    const std::size_t g_all = total_v_rows / info.pi;
    const bool packed_resident =
        info.kv_bits != 8 &&
        (d_head * static_cast<std::size_t>(info.kv_bits)) % 8 == 0;
    std::vector<std::uint8_t> new_codes;
    std::vector<float> new_mins, new_scales;
    if (new_v_rows > 0) {
      new_codes = packed_resident
                      ? r.packed_raw(info.kv_bits, new_v_rows * d_head)
                      : r.packed(info.kv_bits, new_v_rows * d_head);
      new_mins = r.halves(d_head * g_new);
      new_scales = r.halves(d_head * g_new);
    }
    const QuantizedMatrix* v_old = g_old > 0 ? &st.v_quantized() : nullptr;
    if (v_old != nullptr) {
      KV_WIRE_CHECK((v_old->storage_bits != 8) == packed_resident,
                    KvWireErrorCode::kBadSection,
                    "delta V storage width does not match the base store");
    }
    v_q.rows = total_v_rows;
    v_q.cols = d_head;
    v_q.bits = info.kv_bits;
    v_q.axis = QuantAxis::kCol;
    v_q.pi = info.pi;
    v_q.groups = g_all;
    if (packed_resident) v_q.storage_bits = info.kv_bits;
    v_q.codes.reserve(total_v_rows * d_head);
    if (v_old != nullptr) {
      v_q.codes.insert(v_q.codes.end(), v_old->codes.begin(),
                       v_old->codes.end());
    }
    v_q.codes.insert(v_q.codes.end(), new_codes.begin(), new_codes.end());
    v_q.mins.resize(d_head * g_all);
    v_q.scales.resize(d_head * g_all);
    for (std::size_t col = 0; col < d_head; ++col) {
      for (std::size_t g = 0; g < g_old; ++g) {
        v_q.mins[col * g_all + g] = v_old->mins[col * g_old + g];
        v_q.scales[col * g_all + g] = v_old->scales[col * g_old + g];
      }
      for (std::size_t g = 0; g < g_new; ++g) {
        v_q.mins[col * g_all + g_old + g] = new_mins[col * g_new + g];
        v_q.scales[col * g_all + g_old + g] = new_scales[col * g_new + g];
      }
    }
    if (info.summation_elimination) {
      SumCache new_sums;
      if (g_new > 0) new_sums = read_sums(r, d_head, g_new);
      std::vector<std::int32_t> merged(d_head * g_all);
      const std::int32_t* old_sums = g_old > 0 ? st.v_sums().data() : nullptr;
      for (std::size_t col = 0; col < d_head; ++col) {
        for (std::size_t g = 0; g < g_old; ++g) {
          merged[col * g_all + g] = old_sums[col * g_old + g];
        }
        for (std::size_t g = 0; g < g_new; ++g) {
          merged[col * g_all + g_old + g] = new_sums.data()[col * g_new + g];
        }
      }
      v_sums = SumCache::from_parts(d_head, g_all, std::move(merged));
    } else {
      v_sums = SumCache::build(v_q);
    }
  }

  Matrix tail_fp16;
  QuantizedMatrix tail_q;
  const std::uint8_t tail_kind = read_tail(r, info, &tail_fp16, &tail_q);

  layer->head_state_mut(h).restore(
      tokens, std::move(k), std::move(k_sums), std::move(v_q),
      std::move(v_sums), std::move(tail_fp16), std::move(tail_q),
      tail_kind == kTailRaggedQuantized);
  layer->set_head_rng(h, rng);
}

// The big header-vs-target compatibility gate shared by the full and delta
// read paths: the handoff contract requires identical HackAttentionConfig
// and geometry on both workers.
void check_wire_geometry(const KvWireInfo& info,
                         std::span<HackLayerKvState* const> layers) {
  KV_WIRE_CHECK(info.layers == layers.size(), KvWireErrorCode::kBadGeometry,
                "blob carries " << info.layers << " layers, target has "
                                << layers.size());
  const HackAttentionConfig& config = checked_shared_config(layers);
  const HackLayerKvState& first = *layers[0];
  KV_WIRE_CHECK(
      info.kv_heads == first.kv_heads() &&
          info.query_heads == first.query_heads() &&
          info.d_head == first.d_head() && info.pi == config.pi &&
          info.q_bits == config.q_bits && info.kv_bits == config.kv_bits &&
          info.summation_elimination == config.summation_elimination &&
          info.requant_elimination == config.requant_elimination &&
          info.stochastic_rounding ==
              (config.rounding == Rounding::kStochastic),
      KvWireErrorCode::kBadGeometry,
      "decode-side config/geometry does not match the wire header; the "
      "handoff contract requires identical HackAttentionConfig on both "
      "workers");
}

// Collects every layer's HACK KV state of a (HACK layer backend) session.
std::vector<HackLayerKvState*> session_layers(TinyModelSession& session,
                                              const char* action) {
  std::vector<HackLayerKvState*> layers;
  layers.reserve(session.layers());
  for (std::size_t l = 0; l < session.layers(); ++l) {
    HackLayerKvState* state = session.backend(l).hack_state();
    HACK_CHECK(state != nullptr,
               "KV wire " << action
                          << " needs batched HACK layer backends "
                             "(make_hack_layer_backend)");
    layers.push_back(state);
  }
  return layers;
}

}  // namespace

const char* kv_wire_error_name(KvWireErrorCode code) {
  switch (code) {
    case KvWireErrorCode::kBadMagic: return "bad-magic";
    case KvWireErrorCode::kBadVersion: return "bad-version";
    case KvWireErrorCode::kBadGeometry: return "bad-geometry";
    case KvWireErrorCode::kBadCrc: return "bad-crc";
    case KvWireErrorCode::kTruncated: return "truncated";
    case KvWireErrorCode::kTrailingBytes: return "trailing-bytes";
    case KvWireErrorCode::kBadSection: return "bad-section";
  }
  return "unknown";
}

std::vector<std::uint8_t> serialize_kv_wire(
    std::span<HackLayerKvState* const> layers, KvWireSections* sections) {
  const HackAttentionConfig& config = checked_shared_config(layers);
  const HackLayerKvState& first = *layers[0];
  const std::uint64_t tokens = first.tokens();
  HACK_CHECK(tokens > 0, "serializing an empty KV cache; run prefill first");

  Writer w;
  w.u32(kKvWireMagic);
  w.u32(kKvWireVersion);
  w.u32(static_cast<std::uint32_t>(layers.size()));
  w.u32(static_cast<std::uint32_t>(first.kv_heads()));
  w.u32(static_cast<std::uint32_t>(first.query_heads()));
  w.u32(static_cast<std::uint32_t>(first.d_head()));
  w.u32(static_cast<std::uint32_t>(config.pi));
  w.u8(static_cast<std::uint8_t>(config.q_bits));
  w.u8(static_cast<std::uint8_t>(config.kv_bits));
  std::uint8_t flags = 0;
  if (config.summation_elimination) flags |= kFlagSe;
  if (config.requant_elimination) flags |= kFlagRqe;
  if (config.rounding == Rounding::kStochastic) flags |= kFlagStochastic;
  w.u8(flags);
  w.u8(0);  // reserved
  w.u64(tokens);
  const std::size_t payload_at = w.buf.size();
  w.u64(0);  // payload_bytes, patched below
  const std::size_t header_crc_at = w.buf.size();
  w.u32(0);  // header_crc, patched below

  for (HackLayerKvState* layer : layers) {
    for (std::size_t h = 0; h < layer->kv_heads(); ++h) {
      const HackKvState& st = layer->head_state(h);
      HACK_CHECK(st.k_ready() && st.tokens() == tokens,
                 "head state out of step with the sequence");

      // Record framing: length + CRC precede the payload so the reader can
      // verify integrity before interpreting a single record byte.
      const std::size_t framing_at = w.buf.size();
      w.u64(0);  // record_bytes, patched below
      w.u32(0);  // record_crc, patched below
      const std::size_t record_at = w.buf.size();

      const auto rng_state = layer->head_rng(h).state();
      for (const std::uint64_t word : rng_state) w.u64(word);
      w.sections.rng_streams += 32;

      // K: row-axis codes over d_head, whole partitions only.
      write_quantized(w, st.k());
      if (config.summation_elimination) w.sum_entries(st.k_sums());

      // V: the full-partition col-axis store.
      const std::size_t v_rows =
          st.v_quantized_ready() ? st.v_quantized().rows : 0;
      w.u64(v_rows);
      if (v_rows > 0) {
        write_quantized(w, st.v_quantized());
        if (config.summation_elimination) w.sum_entries(st.v_sums());
      }

      // V tail: FP16 rows (RQE on) or one ragged quantized group (RQE off).
      write_tail(w, config, st);

      const std::size_t record_bytes = w.buf.size() - record_at;
      w.patch_u64(framing_at, record_bytes);
      w.patch_u32(framing_at + 8,
                  crc32c(w.buf.data() + record_at, record_bytes));
    }
  }

  const std::uint64_t total = w.buf.size();
  w.patch_u64(payload_at, total);
  // The header CRC covers every header byte before it — payload_bytes
  // included, so a truncating edit cannot fix up the length unnoticed.
  w.patch_u32(header_crc_at, crc32c(w.buf.data(), kHeaderFieldBytes));
  w.sections.framing =
      total - w.sections.rng_streams - w.sections.packed_codes -
      w.sections.metadata - w.sections.sums - w.sections.fp16_tail;
  if (sections != nullptr) *sections = w.sections;
  return std::move(w.buf);
}

KvWireInfo parse_kv_wire_header(std::span<const std::uint8_t> blob) {
  KV_WIRE_CHECK(blob.size() >= kHeaderFieldBytes, KvWireErrorCode::kTruncated,
                "blob of " << blob.size() << " bytes is shorter than the "
                           << kHeaderFieldBytes << "-byte wire header");
  Reader r{blob};
  KvWireInfo info;
  KV_WIRE_CHECK(r.u32() == kKvWireMagic, KvWireErrorCode::kBadMagic,
                "not a HACK KV wire blob");
  info.version = r.u32();
  KV_WIRE_CHECK(
      info.version == kKvWireVersion || info.version == kKvWireVersionDelta,
      KvWireErrorCode::kBadVersion,
      "unsupported KV wire version " << info.version);
  info.layers = r.u32();
  info.kv_heads = r.u32();
  info.query_heads = r.u32();
  info.d_head = r.u32();
  info.pi = r.u32();
  info.q_bits = r.u8();
  info.kv_bits = r.u8();
  const std::uint8_t flags = r.u8();
  info.summation_elimination = (flags & kFlagSe) != 0;
  info.requant_elimination = (flags & kFlagRqe) != 0;
  info.stochastic_rounding = (flags & kFlagStochastic) != 0;
  (void)r.u8();  // reserved
  info.tokens = r.u64();
  info.payload_bytes = r.u64();
  // Both versions end the header with a CRC over every preceding byte; v3
  // inserts base_tokens before it.
  const bool delta = info.version == kKvWireVersionDelta;
  info.header_bytes = delta ? kHeaderBytesV3 : kHeaderBytesV2;
  KV_WIRE_CHECK(blob.size() >= info.header_bytes, KvWireErrorCode::kTruncated,
                "blob shorter than its CRC-framed header");
  if (delta) info.base_tokens = r.u64();
  const std::uint32_t stored = r.u32();
  const std::uint32_t computed = crc32c(blob.data(), info.header_bytes - 4);
  KV_WIRE_CHECK(stored == computed, KvWireErrorCode::kBadCrc,
                "header CRC mismatch: stored " << stored << ", computed "
                                               << computed);
  if (delta) {
    KV_WIRE_CHECK(info.base_tokens > 0 && info.base_tokens < info.tokens,
                  KvWireErrorCode::kBadSection,
                  "delta base " << info.base_tokens << " does not precede its "
                                << info.tokens << "-token checkpoint");
  }
  if (blob.size() < info.payload_bytes) {
    wire_fail(KvWireErrorCode::kTruncated,
              "blob holds " + std::to_string(blob.size()) +
                  " bytes, header claims " +
                  std::to_string(info.payload_bytes));
  }
  if (blob.size() > info.payload_bytes) {
    wire_fail(KvWireErrorCode::kTrailingBytes,
              "blob has " + std::to_string(blob.size() - info.payload_bytes) +
                  " trailing bytes past the framed payload");
  }
  return info;
}

void deserialize_kv_wire(std::span<const std::uint8_t> blob,
                         std::span<HackLayerKvState* const> layers) {
  const KvWireInfo info = parse_kv_wire_header(blob);
  KV_WIRE_CHECK(info.version != kKvWireVersionDelta,
                KvWireErrorCode::kBadVersion,
                "blob is a v3 delta checkpoint; rehydrate its base blob "
                "first, then apply_kv_delta");
  check_wire_geometry(info, layers);
  HACK_CHECK(layers[0]->tokens() == 0, "rehydrating into a non-fresh state");
  // Sanity-bound tokens against the blob before any size arithmetic: each of
  // the blob's tokens costs at least one K code (kv_bits × d_head bits) per
  // record, so a malformed header whose CRC still matches (the CRC detects
  // transport damage, not a writer that lies) cannot trigger runaway
  // allocations downstream.
  const std::size_t min_bits_per_token =
      static_cast<std::size_t>(info.kv_bits) * info.d_head;
  KV_WIRE_CHECK(
      info.tokens <= blob.size() * 8 / min_bits_per_token,
      KvWireErrorCode::kBadSection,
      "token count " << info.tokens << " cannot fit a " << blob.size()
                     << "-byte blob");

  Reader r{blob};
  r.pos = info.header_bytes;
  for (HackLayerKvState* layer : layers) {
    for (std::size_t h = 0; h < info.kv_heads; ++h) {
      // Verify the record CRC before parsing a single payload byte; a
      // corrupted length field fails either the bounds check (kTruncated) or,
      // with overwhelming probability, the checksum (kBadCrc).
      const auto record = take_crc_record(r);
      Reader record_reader{record};
      read_head_record(record_reader, info, layer, h);
      KV_WIRE_CHECK(record_reader.pos == record.size(),
                    KvWireErrorCode::kBadSection,
                    "record has " << record.size() - record_reader.pos
                                  << " unparsed bytes");
    }
  }
  KV_WIRE_CHECK(r.pos == blob.size(), KvWireErrorCode::kTrailingBytes,
                "blob has " << blob.size() - r.pos << " trailing bytes");
}

void verify_kv_wire(std::span<const std::uint8_t> blob) {
  const KvWireInfo info = parse_kv_wire_header(blob);
  Reader r{blob};
  r.pos = info.header_bytes;
  std::size_t records = info.layers * info.kv_heads;
  if (info.version == kKvWireVersionDelta) ++records;  // the suffix record
  for (std::size_t i = 0; i < records; ++i) (void)take_crc_record(r);
  KV_WIRE_CHECK(r.pos == blob.size(), KvWireErrorCode::kTrailingBytes,
                "blob has " << blob.size() - r.pos << " trailing bytes");
}

std::vector<std::uint8_t> serialize_kv_delta(
    std::span<HackLayerKvState* const> layers, std::uint64_t base_tokens,
    const KvDeltaSuffix& suffix, KvWireSections* sections) {
  const HackAttentionConfig& config = checked_shared_config(layers);
  const HackLayerKvState& first = *layers[0];
  const std::uint64_t tokens = first.tokens();
  HACK_CHECK(base_tokens > 0 && base_tokens < tokens,
             "delta base " << base_tokens << " must precede the current "
                           << tokens << "-token state");
  HACK_CHECK(suffix.generated.size() == tokens - base_tokens,
             "delta suffix carries " << suffix.generated.size()
                                     << " tokens; the KV delta spans "
                                     << tokens - base_tokens);
  const std::size_t d_head = first.d_head();
  const std::size_t k_groups = d_head / config.pi;
  const std::size_t dt = tokens - base_tokens;
  const std::size_t base_v_rows = base_tokens - base_tokens % config.pi;

  Writer w;
  w.u32(kKvWireMagic);
  w.u32(kKvWireVersionDelta);
  w.u32(static_cast<std::uint32_t>(layers.size()));
  w.u32(static_cast<std::uint32_t>(first.kv_heads()));
  w.u32(static_cast<std::uint32_t>(first.query_heads()));
  w.u32(static_cast<std::uint32_t>(d_head));
  w.u32(static_cast<std::uint32_t>(config.pi));
  w.u8(static_cast<std::uint8_t>(config.q_bits));
  w.u8(static_cast<std::uint8_t>(config.kv_bits));
  std::uint8_t flags = 0;
  if (config.summation_elimination) flags |= kFlagSe;
  if (config.requant_elimination) flags |= kFlagRqe;
  if (config.rounding == Rounding::kStochastic) flags |= kFlagStochastic;
  w.u8(flags);
  w.u8(0);  // reserved
  w.u64(tokens);
  const std::size_t payload_at = w.buf.size();
  w.u64(0);  // payload_bytes, patched below
  w.u64(base_tokens);
  const std::size_t header_crc_at = w.buf.size();
  w.u32(0);  // header_crc, patched below

  // Suffix record: the tokens decoded since the base plus the next input
  // token, CRC-framed like every other record.
  {
    const std::size_t framing_at = w.buf.size();
    w.u64(0);
    w.u32(0);
    const std::size_t record_at = w.buf.size();
    w.u64(suffix.generated.size());
    w.u32(static_cast<std::uint32_t>(suffix.next_token));
    for (const int t : suffix.generated) w.u32(static_cast<std::uint32_t>(t));
    const std::size_t record_bytes = w.buf.size() - record_at;
    w.patch_u64(framing_at, record_bytes);
    w.patch_u32(framing_at + 8, crc32c(w.buf.data() + record_at, record_bytes));
  }

  for (HackLayerKvState* layer : layers) {
    for (std::size_t h = 0; h < layer->kv_heads(); ++h) {
      const HackKvState& st = layer->head_state(h);
      HACK_CHECK(st.k_ready() && st.tokens() == tokens,
                 "head state out of step with the sequence");

      const std::size_t framing_at = w.buf.size();
      w.u64(0);  // record_bytes, patched below
      w.u32(0);  // record_crc, patched below
      const std::size_t record_at = w.buf.size();

      const auto rng_state = layer->head_rng(h).state();
      for (const std::uint64_t word : rng_state) w.u64(word);
      w.sections.rng_streams += 32;

      // K delta: rows are the outer axis, so codes, metadata, and sums for
      // rows [base, tokens) are contiguous slices of the stores.
      const QuantizedMatrix& k = st.k();
      write_packed_rows(w, k, base_tokens, dt);
      w.halves(std::span<const float>(k.mins).subspan(base_tokens * k_groups,
                                                      dt * k_groups));
      w.halves(std::span<const float>(k.scales).subspan(base_tokens * k_groups,
                                                        dt * k_groups));
      if (config.summation_elimination) {
        w.sum_span(st.k_sums().data() + base_tokens * k_groups,
                   dt * k_groups);
      }

      // V delta: only the whole-Π partitions sealed past the base. Codes are
      // row-major (contiguous slice); metadata and sums are column-outer, so
      // gather each column's new groups — apply re-interleaves them.
      const std::size_t v_rows =
          st.v_quantized_ready() ? st.v_quantized().rows : 0;
      HACK_CHECK(v_rows == tokens - tokens % config.pi,
                 "V store out of step: " << v_rows << " rows for " << tokens
                                         << " tokens");
      const std::size_t new_v_rows = v_rows - base_v_rows;
      w.u64(new_v_rows);
      if (new_v_rows > 0) {
        const QuantizedMatrix& v = st.v_quantized();
        const std::size_t g_old = base_v_rows / config.pi;
        const std::size_t g_all = v_rows / config.pi;
        const std::size_t g_new = g_all - g_old;
        write_packed_rows(w, v, base_v_rows, new_v_rows);
        std::vector<float> mins(d_head * g_new);
        std::vector<float> scales(d_head * g_new);
        for (std::size_t col = 0; col < d_head; ++col) {
          for (std::size_t g = 0; g < g_new; ++g) {
            mins[col * g_new + g] = v.mins[col * g_all + g_old + g];
            scales[col * g_new + g] = v.scales[col * g_all + g_old + g];
          }
        }
        w.halves(mins);
        w.halves(scales);
        if (config.summation_elimination) {
          const std::int32_t* sums = st.v_sums().data();
          std::vector<std::int32_t> gathered(d_head * g_new);
          for (std::size_t col = 0; col < d_head; ++col) {
            for (std::size_t g = 0; g < g_new; ++g) {
              gathered[col * g_new + g] = sums[col * g_all + g_old + g];
            }
          }
          w.sum_span(gathered.data(), gathered.size());
        }
      }

      // The tail mutates in place as rows accumulate, so the delta replaces
      // it outright with the full current tail.
      write_tail(w, config, st);

      const std::size_t record_bytes = w.buf.size() - record_at;
      w.patch_u64(framing_at, record_bytes);
      w.patch_u32(framing_at + 8,
                  crc32c(w.buf.data() + record_at, record_bytes));
    }
  }

  const std::uint64_t total = w.buf.size();
  w.patch_u64(payload_at, total);
  w.patch_u32(header_crc_at, crc32c(w.buf.data(), kHeaderFieldBytes + 8));
  w.sections.framing =
      total - w.sections.rng_streams - w.sections.packed_codes -
      w.sections.metadata - w.sections.sums - w.sections.fp16_tail;
  if (sections != nullptr) *sections = w.sections;
  return std::move(w.buf);
}

KvDeltaSuffix apply_kv_delta(std::span<const std::uint8_t> blob,
                             std::span<HackLayerKvState* const> layers) {
  const KvWireInfo info = parse_kv_wire_header(blob);
  KV_WIRE_CHECK(info.version == kKvWireVersionDelta,
                KvWireErrorCode::kBadVersion,
                "not a delta checkpoint (wire version " << info.version
                                                        << ")");
  check_wire_geometry(info, layers);
  KV_WIRE_CHECK(layers[0]->tokens() == info.base_tokens,
                KvWireErrorCode::kBadGeometry,
                "delta applies at base " << info.base_tokens
                                         << "; target holds "
                                         << layers[0]->tokens() << " tokens");

  Reader r{blob};
  r.pos = info.header_bytes;

  KvDeltaSuffix suffix;
  {
    const auto record = take_crc_record(r);
    Reader sr{record};
    const std::uint64_t count = sr.u64();
    KV_WIRE_CHECK(count == info.tokens - info.base_tokens,
                  KvWireErrorCode::kBadSection,
                  "suffix carries " << count << " tokens; the delta spans "
                                    << info.tokens - info.base_tokens);
    suffix.next_token = static_cast<int>(sr.u32());
    suffix.generated.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      suffix.generated.push_back(static_cast<int>(sr.u32()));
    }
    KV_WIRE_CHECK(sr.pos == record.size(), KvWireErrorCode::kBadSection,
                  "suffix record has " << record.size() - sr.pos
                                       << " unparsed bytes");
  }

  for (HackLayerKvState* layer : layers) {
    for (std::size_t h = 0; h < info.kv_heads; ++h) {
      const auto record = take_crc_record(r);
      Reader record_reader{record};
      apply_head_delta(record_reader, info, layer, h);
      KV_WIRE_CHECK(record_reader.pos == record.size(),
                    KvWireErrorCode::kBadSection,
                    "record has " << record.size() - record_reader.pos
                                  << " unparsed bytes");
    }
  }
  KV_WIRE_CHECK(r.pos == blob.size(), KvWireErrorCode::kTrailingBytes,
                "blob has " << blob.size() - r.pos << " trailing bytes");
  return suffix;
}

std::vector<std::uint8_t> serialize_session_kv(TinyModelSession& session,
                                               KvWireSections* sections) {
  std::vector<HackLayerKvState*> layers =
      session_layers(session, "serialization");
  HACK_CHECK(!layers.empty() && layers[0]->tokens() == session.position(),
             "session position out of step with its KV state; commit the "
             "prefill chunk (advance) before serializing");
  return serialize_kv_wire(layers, sections);
}

void deserialize_session_kv(std::span<const std::uint8_t> blob,
                            TinyModelSession& session) {
  HACK_CHECK(session.position() == 0,
             "rehydrating into a used session; construct a fresh one");
  std::vector<HackLayerKvState*> layers =
      session_layers(session, "rehydration");
  deserialize_kv_wire(blob, layers);
  session.restore_position(parse_kv_wire_header(blob).tokens);
}

std::vector<std::uint8_t> serialize_session_kv_delta(
    TinyModelSession& session, std::uint64_t base_tokens,
    const KvDeltaSuffix& suffix, KvWireSections* sections) {
  std::vector<HackLayerKvState*> layers =
      session_layers(session, "delta serialization");
  HACK_CHECK(!layers.empty() && layers[0]->tokens() == session.position(),
             "session position out of step with its KV state; commit the "
             "decode step (advance) before checkpointing");
  return serialize_kv_delta(layers, base_tokens, suffix, sections);
}

KvDeltaSuffix apply_session_kv_delta(std::span<const std::uint8_t> blob,
                                     TinyModelSession& session) {
  std::vector<HackLayerKvState*> layers =
      session_layers(session, "delta rehydration");
  const KvWireInfo info = parse_kv_wire_header(blob);
  HACK_CHECK(session.position() == info.base_tokens,
             "delta applies at position " << info.base_tokens
                                          << "; session is at "
                                          << session.position());
  KvDeltaSuffix suffix = apply_kv_delta(blob, layers);
  session.advance(info.tokens - info.base_tokens);
  return suffix;
}

int kv_wire_transfer_chunks(std::size_t blob_bytes, std::size_t chunk_bytes) {
  HACK_CHECK(chunk_bytes > 0, "transfer chunk size must be positive");
  const std::size_t chunks = (blob_bytes + chunk_bytes - 1) / chunk_bytes;
  if (chunks < 1) return 1;
  if (chunks > 64) return 64;
  return static_cast<int>(chunks);
}

}  // namespace hack
