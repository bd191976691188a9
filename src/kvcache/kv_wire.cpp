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

  // Record framing: record_bytes u64 · record_crc u32 precede the payload so
  // the reader can verify integrity before interpreting a single record
  // byte. begin_record returns the payload offset end_record patches from.
  std::size_t begin_record() {
    u64(0);
    u32(0);
    return buf.size();
  }
  void end_record(std::size_t payload_at) {
    const std::size_t bytes = buf.size() - payload_at;
    patch_u64(payload_at - 12, bytes);
    patch_u32(payload_at - 4, crc32c(buf.data() + payload_at, bytes));
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
// v2 follows them with header_crc (u32); v3 (delta) inserts base_tokens (u64)
// before the CRC. Both frame each record with record_bytes (u64) +
// record_crc (u32).
constexpr std::size_t kHeaderFieldBytes = 7 * 4 + 4 + 2 * 8;
constexpr std::size_t kHeaderBytesV2 = kHeaderFieldBytes + 4;
constexpr std::size_t kHeaderBytesV3 = kHeaderFieldBytes + 8 + 4;

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

// The V-tail section: FP16 rows (RQE on) or one ragged quantized group (RQE
// off). The tail mutates in place as rows accumulate, so every record ships
// the whole current tail.
void write_tail(Writer& w, const HackAttentionConfig& config,
                const HackKvState& st) {
  if (config.requant_elimination && st.v_tail_fp16().rows() > 0) {
    w.u8(kTailFp16);
    w.u64(st.v_tail_fp16().rows());
    w.fp16_rows(st.v_tail_fp16());
  } else if (!config.requant_elimination && st.v_tail_quantized_ready()) {
    const QuantizedMatrix& q = st.v_tail_quantized();
    w.u8(kTailRaggedQuantized);
    w.u64(q.rows);
    write_packed_rows(w, q, 0, q.rows);
    w.halves(q.mins);
    w.halves(q.scales);
  } else {
    w.u8(kTailNone);
    w.u64(0);
  }
}

// Writes one (layer × KV head) record: the entries past `base` tokens. K rows
// are the outer axis, so rows [base, tokens) are contiguous slices of the
// codes, metadata and sums. V codes are row-major (a contiguous slice of the
// partitions sealed past the base), but its metadata and sums are
// column-outer: each column's new groups are written in turn. At base 0 every
// slice is the whole table.
void write_head_record(Writer& w, const HackAttentionConfig& config,
                       const HackLayerKvState& layer, std::size_t h,
                       std::size_t base) {
  const HackKvState& st = layer.head_state(h);
  const std::size_t tokens = st.tokens();
  const std::size_t pi = config.pi;

  for (const std::uint64_t word : layer.head_rng(h).state()) w.u64(word);
  w.sections.rng_streams += 32;

  const QuantizedMatrix& k = st.k();
  const std::size_t k_groups = layer.d_head() / pi;
  const std::size_t k_from = base * k_groups;
  const std::size_t k_count = (tokens - base) * k_groups;
  write_packed_rows(w, k, base, tokens - base);
  w.halves(std::span<const float>(k.mins).subspan(k_from, k_count));
  w.halves(std::span<const float>(k.scales).subspan(k_from, k_count));
  if (config.summation_elimination) {
    w.sum_span(st.k_sums().data() + k_from, k_count);
  }

  const std::size_t v_rows = st.v_quantized_ready() ? st.v_quantized().rows : 0;
  HACK_CHECK(v_rows == tokens - tokens % pi,
             "V store out of step: " << v_rows << " rows for " << tokens
                                     << " tokens");
  const std::size_t base_v_rows = base - base % pi;
  w.u64(v_rows - base_v_rows);
  if (v_rows > base_v_rows) {
    const QuantizedMatrix& v = st.v_quantized();
    const std::size_t g_old = base_v_rows / pi;
    const std::size_t g_all = v_rows / pi;
    write_packed_rows(w, v, base_v_rows, v_rows - base_v_rows);
    for (const std::vector<float>* table : {&v.mins, &v.scales}) {
      for (std::size_t col = 0; col < v.cols; ++col) {
        w.halves(std::span<const float>(*table).subspan(col * g_all + g_old,
                                                        g_all - g_old));
      }
    }
    if (config.summation_elimination) {
      for (std::size_t col = 0; col < v.cols; ++col) {
        w.sum_span(st.v_sums().data() + col * g_all + g_old, g_all - g_old);
      }
    }
  }

  write_tail(w, config, st);
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
// into `tail_fp16`/`tail_q`, returning the kind. The token count fixes both:
// tokens % Π rows, FP16 under RQE, one ragged quantized group without it,
// and no tail at all on a whole-Π context.
std::uint8_t read_tail(Reader& r, const KvWireInfo& info, Matrix* tail_fp16,
                       QuantizedMatrix* tail_q) {
  const std::size_t rows = info.tokens % info.pi;
  const std::uint8_t kind = rows == 0                   ? kTailNone
                            : info.requant_elimination ? kTailFp16
                                                       : kTailRaggedQuantized;
  const std::uint8_t got_kind = r.u8();
  const std::uint64_t got_rows = r.u64();
  KV_WIRE_CHECK(got_kind == kind && got_rows == rows,
                KvWireErrorCode::kBadSection,
                "tail of kind " << int(got_kind) << " with " << got_rows
                                << " rows; a " << info.tokens
                                << "-token state needs kind " << int(kind)
                                << " with " << rows);
  if (kind == kTailFp16) {
    *tail_fp16 = Matrix::from_rows(rows, info.d_head,
                                   r.halves(rows * info.d_head));
  } else if (kind == kTailRaggedQuantized) {
    *tail_q = read_quantized(r, rows, info.d_head, info.kv_bits,
                             QuantAxis::kCol, info.pi, 1);
  }
  return kind;
}

// Splices a record's entries onto the base's. Both tables are outer-major
// with `outer` slices of equal width; each output slice is the base's slice
// followed by the record's. Appending K rows (and any code plane) is one
// slice; V's column-outer metadata and sums have one slice per column.
template <typename T>
std::vector<T> splice(std::span<const T> base, std::span<const T> added,
                      std::size_t outer) {
  const std::size_t a = base.size() / outer;
  const std::size_t b = added.size() / outer;
  std::vector<T> out;
  out.reserve(base.size() + added.size());
  for (std::size_t o = 0; o < outer; ++o) {
    out.insert(out.end(), base.begin() + o * a, base.begin() + (o + 1) * a);
    out.insert(out.end(), added.begin() + o * b, added.begin() + (o + 1) * b);
  }
  return out;
}

// Merges a record read past `base` tokens with the head's resident (base)
// state. K rows and whole-Π V partitions are append-only — their codes and
// metadata never change once written — so base + record covers every entry
// exactly once and the merge is bit-identical to a full restore of the
// checkpointed head. Both sides hold the resident representation (bit-packed
// rows below 8 bits), and rows are byte-exact, so codes concatenate
// byte-wise. SE-off sums are rebuilt by the caller from the merged codes.
void merge_base(const HackKvState& st, const KvWireInfo& info,
                QuantizedMatrix* k, SumCache* k_sums, QuantizedMatrix* v_q,
                SumCache* v_sums) {
  const std::size_t base_v_rows =
      info.base_tokens - info.base_tokens % info.pi;
  const std::size_t old_v_rows =
      st.v_quantized_ready() ? st.v_quantized().rows : 0;
  KV_WIRE_CHECK(old_v_rows == base_v_rows, KvWireErrorCode::kBadGeometry,
                "target V store holds " << old_v_rows
                                        << " rows; the blob's base implies "
                                        << base_v_rows);

  const auto merge = [](const QuantizedMatrix& old, QuantizedMatrix* added) {
    KV_WIRE_CHECK(added->rows == 0 || added->storage_bits == old.storage_bits,
                  KvWireErrorCode::kBadSection,
                  "record storage width " << added->storage_bits
                                          << " != base " << old.storage_bits);
    const bool col = old.axis == QuantAxis::kCol;
    const std::size_t outer = col ? old.cols : 1;
    QuantizedMatrix out;
    out.rows = old.rows + added->rows;
    out.cols = old.cols;
    out.bits = old.bits;
    out.axis = old.axis;
    out.pi = old.pi;
    out.storage_bits = old.storage_bits;
    out.groups = col ? old.group_count() + added->groups : old.group_count();
    out.codes = splice<std::uint8_t>(old.codes, added->codes, 1);
    out.mins = splice<float>(old.mins, added->mins, outer);
    out.scales = splice<float>(old.scales, added->scales, outer);
    *added = std::move(out);
  };
  const auto merge_sums = [](const SumCache& old, SumCache* added,
                             bool col) {
    const std::span<const std::int32_t> a(old.data(),
                                          old.outer() * old.groups());
    const std::span<const std::int32_t> b(added->data(),
                                          added->outer() * added->groups());
    *added = col ? SumCache::from_parts(old.outer(),
                                        old.groups() + added->groups(),
                                        splice(a, b, old.outer()))
                 : SumCache::from_parts(old.outer() + added->outer(),
                                        old.groups(), splice(a, b, 1));
  };

  merge(st.k(), k);
  if (info.summation_elimination) merge_sums(st.k_sums(), k_sums, false);
  if (base_v_rows > 0) {
    merge(st.v_quantized(), v_q);
    if (info.summation_elimination) merge_sums(st.v_sums(), v_sums, true);
  }
}

// Parses one (layer × KV head) record — the entries past the blob's base —
// into the layer's head `h`, merging with the head's current state when the
// base is nonzero. The caller hands a sub-reader whose span is exactly the
// CRC-verified record.
void read_head_record(Reader& r, const KvWireInfo& info,
                      HackLayerKvState* layer, std::size_t h) {
  const std::size_t tokens = info.tokens;
  const std::size_t base = info.base_tokens;
  const std::size_t d_head = info.d_head;
  const std::size_t k_groups = d_head / info.pi;

  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = r.u64();
  Rng rng(0);
  rng.set_state(rng_state);

  QuantizedMatrix k = read_quantized(r, tokens - base, d_head, info.kv_bits,
                                     QuantAxis::kRow, info.pi, k_groups);
  SumCache k_sums;
  if (info.summation_elimination) {
    k_sums = read_sums(r, tokens - base, k_groups);
  }

  const std::size_t base_v_rows = base - base % info.pi;
  const std::size_t v_rows = tokens - tokens % info.pi;
  const std::uint64_t new_v_rows = r.u64();
  KV_WIRE_CHECK(new_v_rows == v_rows - base_v_rows,
                KvWireErrorCode::kBadSection,
                "V section carries " << new_v_rows << " rows; expected "
                                     << v_rows - base_v_rows);
  QuantizedMatrix v_q;
  SumCache v_sums;
  if (new_v_rows > 0) {
    const std::size_t groups = new_v_rows / info.pi;
    v_q = read_quantized(r, new_v_rows, d_head, info.kv_bits, QuantAxis::kCol,
                         info.pi, groups);
    if (info.summation_elimination) v_sums = read_sums(r, d_head, groups);
  }

  Matrix tail_fp16;
  QuantizedMatrix tail_q;
  const std::uint8_t tail_kind = read_tail(r, info, &tail_fp16, &tail_q);

  if (base > 0) {
    merge_base(layer->head_state(h), info, &k, &k_sums, &v_q, &v_sums);
  }
  if (!info.summation_elimination) {
    k_sums = SumCache::build(k);
    if (v_rows > 0) v_sums = SumCache::build(v_q);
  }
  layer->head_state_mut(h).restore(
      tokens, std::move(k), std::move(k_sums), std::move(v_q),
      std::move(v_sums), std::move(tail_fp16), std::move(tail_q),
      tail_kind == kTailRaggedQuantized);
  layer->set_head_rng(h, rng);
}

// The big header-vs-target compatibility gate: the handoff contract requires
// identical HackAttentionConfig and geometry on both workers.
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

// Writes a wire blob of `layers` past `base` tokens. A full (v2) blob is the
// delta of an empty base: no suffix, base 0, and every record carries all of
// the head's entries.
std::vector<std::uint8_t> serialize_blob(
    std::span<HackLayerKvState* const> layers, std::uint64_t base,
    const KvDeltaSuffix* suffix, KvWireSections* sections) {
  const HackAttentionConfig& config = checked_shared_config(layers);
  const HackLayerKvState& first = *layers[0];
  const std::uint64_t tokens = first.tokens();
  HACK_CHECK(tokens > 0, "serializing an empty KV cache; run prefill first");
  HACK_CHECK(base < tokens && (base > 0) == (suffix != nullptr),
             "delta base " << base << " must precede the current " << tokens
                           << "-token state");
  HACK_CHECK(suffix == nullptr || suffix->generated.size() == tokens - base,
             "delta suffix carries " << suffix->generated.size()
                                     << " tokens; the KV delta spans "
                                     << tokens - base);

  Writer w;
  w.u32(kKvWireMagic);
  w.u32(suffix != nullptr ? kKvWireVersionDelta : kKvWireVersion);
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
  if (suffix != nullptr) w.u64(base);
  const std::size_t header_crc_at = w.buf.size();
  w.u32(0);  // header_crc, patched below

  // Suffix record: the tokens decoded since the base plus the next input
  // token, CRC-framed like every other record.
  if (suffix != nullptr) {
    const std::size_t at = w.begin_record();
    w.u64(suffix->generated.size());
    w.u32(static_cast<std::uint32_t>(suffix->next_token));
    for (const int t : suffix->generated) w.u32(static_cast<std::uint32_t>(t));
    w.end_record(at);
  }

  for (const HackLayerKvState* layer : layers) {
    for (std::size_t h = 0; h < layer->kv_heads(); ++h) {
      HACK_CHECK(layer->head_state(h).k_ready() &&
                     layer->head_state(h).tokens() == tokens,
                 "head state out of step with the sequence");
      const std::size_t at = w.begin_record();
      write_head_record(w, config, *layer, h, base);
      w.end_record(at);
    }
  }

  const std::uint64_t total = w.buf.size();
  w.patch_u64(payload_at, total);
  // The header CRC covers every header byte before it — payload_bytes
  // included, so a truncating edit cannot fix up the length unnoticed.
  w.patch_u32(header_crc_at, crc32c(w.buf.data(), header_crc_at));
  w.sections.framing =
      total - w.sections.rng_streams - w.sections.packed_codes -
      w.sections.metadata - w.sections.sums - w.sections.fp16_tail;
  if (sections != nullptr) *sections = w.sections;
  return std::move(w.buf);
}

// Parses the delta's suffix record.
KvDeltaSuffix read_suffix(std::span<const std::uint8_t> record,
                          const KvWireInfo& info) {
  Reader r{record};
  const std::uint64_t count = r.u64();
  KV_WIRE_CHECK(count == info.tokens - info.base_tokens,
                KvWireErrorCode::kBadSection,
                "suffix carries " << count << " tokens; the delta spans "
                                  << info.tokens - info.base_tokens);
  KvDeltaSuffix suffix;
  suffix.next_token = static_cast<int>(r.u32());
  suffix.generated.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    suffix.generated.push_back(static_cast<int>(r.u32()));
  }
  KV_WIRE_CHECK(r.pos == record.size(), KvWireErrorCode::kBadSection,
                "suffix record has " << record.size() - r.pos
                                     << " unparsed bytes");
  return suffix;
}

// Rehydrates `layers` from a full blob (`suffix` null; the layers must be
// fresh) or applies a delta onto layers holding exactly its base (the suffix
// lands in `*suffix`). Returns the parsed header.
KvWireInfo read_blob(std::span<const std::uint8_t> blob,
                     std::span<HackLayerKvState* const> layers,
                     KvDeltaSuffix* suffix) {
  const KvWireInfo info = parse_kv_wire_header(blob);
  const bool delta = info.version == kKvWireVersionDelta;
  KV_WIRE_CHECK(delta == (suffix != nullptr), KvWireErrorCode::kBadVersion,
                "wire version " << info.version
                                << (delta ? " is a delta checkpoint; rehydrate "
                                            "its base blob first, then "
                                            "apply_kv_delta"
                                          : " is not a delta checkpoint"));
  check_wire_geometry(info, layers);
  KV_WIRE_CHECK(layers[0]->tokens() == info.base_tokens,
                KvWireErrorCode::kBadGeometry,
                "blob applies at base " << info.base_tokens << "; target holds "
                                        << layers[0]->tokens() << " tokens");

  Reader r{blob};
  r.pos = info.header_bytes;
  if (suffix != nullptr) *suffix = read_suffix(take_crc_record(r), info);
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
  return info;
}

// Collects every layer's HACK KV state of a (HACK layer backend) session,
// checking that the session's position matches that state.
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
  HACK_CHECK(!layers.empty() && layers[0]->tokens() == session.position(),
             "session position " << session.position()
                                 << " out of step with its KV state; commit "
                                    "the pending step (advance) before the "
                                 << action);
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
  return serialize_blob(layers, 0, nullptr, sections);
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
  // A full blob is the delta of an empty base; a v3 delta has a nonempty one.
  KV_WIRE_CHECK(info.base_tokens < info.tokens &&
                    (info.base_tokens > 0) == delta,
                KvWireErrorCode::kBadSection,
                "base " << info.base_tokens << " does not precede the blob's "
                        << info.tokens << "-token state");
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
  // Sanity-bound the shipped token span against the blob before any size
  // arithmetic: each token past the base costs at least one K code row
  // (kv_bits × d_head bits) per record, so a malformed header whose CRC still
  // matches (the CRC detects transport damage, not a writer that lies)
  // cannot trigger runaway allocations downstream.
  KV_WIRE_CHECK(info.kv_bits >= 1 && info.kv_bits <= 8 && info.d_head > 0,
                KvWireErrorCode::kBadSection,
                "kv_bits " << info.kv_bits << " / d_head " << info.d_head
                           << " cannot describe a code plane");
  const std::size_t min_bits_per_token =
      static_cast<std::size_t>(info.kv_bits) * info.d_head;
  KV_WIRE_CHECK(
      info.tokens - info.base_tokens <= blob.size() * 8 / min_bits_per_token,
      KvWireErrorCode::kBadSection,
      "token span " << info.tokens - info.base_tokens << " cannot fit a "
                    << blob.size() << "-byte blob");
  return info;
}

void deserialize_kv_wire(std::span<const std::uint8_t> blob,
                         std::span<HackLayerKvState* const> layers) {
  (void)read_blob(blob, layers, nullptr);
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
  return serialize_blob(layers, base_tokens, &suffix, sections);
}

KvDeltaSuffix apply_kv_delta(std::span<const std::uint8_t> blob,
                             std::span<HackLayerKvState* const> layers) {
  KvDeltaSuffix suffix;
  (void)read_blob(blob, layers, &suffix);
  return suffix;
}

std::vector<std::uint8_t> serialize_session_kv(TinyModelSession& session,
                                               KvWireSections* sections) {
  return serialize_kv_wire(session_layers(session, "serialization"),
                           sections);
}

void deserialize_session_kv(std::span<const std::uint8_t> blob,
                            TinyModelSession& session) {
  const KvWireInfo info =
      read_blob(blob, session_layers(session, "rehydration"), nullptr);
  session.restore_position(info.tokens);
}

std::vector<std::uint8_t> serialize_session_kv_delta(
    TinyModelSession& session, std::uint64_t base_tokens,
    const KvDeltaSuffix& suffix, KvWireSections* sections) {
  return serialize_kv_delta(session_layers(session, "delta serialization"),
                            base_tokens, suffix, sections);
}

KvDeltaSuffix apply_session_kv_delta(std::span<const std::uint8_t> blob,
                                     TinyModelSession& session) {
  KvDeltaSuffix suffix;
  const KvWireInfo info =
      read_blob(blob, session_layers(session, "delta rehydration"), &suffix);
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
