#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "kvcache/kv_wire.h"
#include "serving/scheduler.h"

namespace hackbench {
namespace {

// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, SpanKind kind)
      : tracer_(tracer), span_(tracer.begin(kind)) {}
  ~Scoped() { tracer_.end(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::size_t span_;
};

// Decorates a layer backend with append/attend spans. hack_state() is
// forwarded, so the kv_wire session calls see the real HACK layer state.
class TimedLayerBackend : public hack::LayerBackend {
 public:
  TimedLayerBackend(std::unique_ptr<hack::LayerBackend> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void append(const hack::Matrix& k_all, const hack::Matrix& v_all) override {
    Scoped span(tracer_, SpanKind::kAppend);
    inner_->append(k_all, v_all);
  }
  hack::Matrix attend(const hack::Matrix& q_all,
                      std::size_t key_offset) override {
    Scoped span(tracer_, SpanKind::kAttend);
    return inner_->attend(q_all, key_offset);
  }
  std::size_t stored_bytes() const override { return inner_->stored_bytes(); }
  hack::HackLayerKvState* hack_state() override {
    return inner_->hack_state();
  }

 private:
  std::unique_ptr<hack::LayerBackend> inner_;
  Tracer& tracer_;
};

hack::LayerBackendFactory timed_factory(Tracer& tracer) {
  hack::LayerBackendFactory inner = backend_factory();
  return [inner, &tracer](std::size_t d_head, std::size_t kv_heads,
                          std::size_t query_heads) {
    return std::make_unique<TimedLayerBackend>(
        inner(d_head, kv_heads, query_heads), tracer);
  };
}

// Runs one chunk of rows at the session's position through every layer and
// commits it; returns the final hidden rows. Counts FLOPs from shapes.
hack::Matrix forward_chunk(hack::TinyModelSession& session,
                           const std::vector<int>& tokens, Tracer& tracer,
                           ReplayResult& out) {
  const hack::TinyConfig& c = session.config();
  const double d = double(c.d_model());
  const double qkv_cols = double((c.heads + 2 * c.kv_heads) * c.d_head);
  const double rows = double(tokens.size());
  const std::size_t pos = session.position();
  // Causal keys seen by the chunk's rows: pos+1, ..., pos+rows.
  const double keys = rows * double(pos) + rows * (rows + 1) / 2;

  hack::Matrix x = session.weights().embed(tokens);
  for (std::size_t layer = 0; layer < session.layers(); ++layer) {
    hack::Matrix q;
    {
      Scoped span(tracer, SpanKind::kQkv);
      q = session.project_and_append(layer, x, pos);
    }
    const hack::Matrix attn = session.backend(layer).attend(q, pos);
    {
      Scoped span(tracer, SpanKind::kFfn);
      x = session.finish_layer(layer, std::move(x), attn);
    }
    out.dense_flops += 2 * rows * d * qkv_cols +               // Wq, Wk, Wv
                       2 * rows * d * d +                      // Wo
                       2 * rows * 3 * d * double(c.d_ff);      // SwiGLU
    out.attend_ops += 2 * 2 * double(c.heads * c.d_head) * keys;  // QKᵀ, PV
  }
  session.advance(tokens.size());
  return x;
}

int lm_head(hack::TinyModelSession& session, const hack::Matrix& hidden,
            Tracer& tracer, ReplayResult& out) {
  Scoped span(tracer, SpanKind::kLmHead);
  const hack::TinyConfig& c = session.config();
  out.dense_flops += 2 * double(c.d_model()) * double(c.vocab);
  return hack::argmax_logits(
      session.logits_for_row(hidden, hidden.rows() - 1));
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPrefillChunk: return "prefill.chunk";
    case SpanKind::kDecodeStep: return "decode.step";
    case SpanKind::kQkv: return "model.qkv";
    case SpanKind::kAppend: return "attention.append";
    case SpanKind::kAttend: return "attention.attend";
    case SpanKind::kFfn: return "model.ffn";
    case SpanKind::kLmHead: return "model.lm_head";
    case SpanKind::kSerialize: return "kvcache.serialize";
    case SpanKind::kDeserialize: return "kvcache.deserialize";
  }
  return "?";
}

std::size_t Tracer::begin(SpanKind kind) {
  const std::int32_t parent =
      open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back({kind, decode_, parent, request_, now_s(), 0.0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  spans_[span].end_s = now_s();
  open_.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().begin_s;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"span\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", span_name(s.kind),
                 s.decode ? "decode" : "prefill", (s.begin_s - origin) * 1e6,
                 (s.end_s - s.begin_s) * 1e6,
                 static_cast<unsigned long long>(s.request), i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::size_t> replay_sample(const std::vector<Served>& served,
                                       std::size_t first) {
  // The longest prompt and output before the round, then the round's own
  // longest (the first of equals), which is sampled when it beats them.
  std::size_t prompt_max = 0, output_max = 0;
  std::size_t longest_prompt = served.size(), longest_output = served.size();
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (!served[i].ok) continue;
    const std::size_t prompt = served[i].request.prompt.size();
    const std::size_t output = served[i].tokens.size();
    if (i >= first) {
      if (i % 4 == 0) sample.push_back(i);
      if (prompt > prompt_max) longest_prompt = i;
      if (output > output_max) longest_output = i;
    }
    prompt_max = std::max(prompt_max, prompt);
    output_max = std::max(output_max, output);
  }
  for (const std::size_t extra : {longest_prompt, longest_output}) {
    if (extra < served.size() &&
        std::find(sample.begin(), sample.end(), extra) == sample.end()) {
      sample.push_back(extra);
    }
  }
  std::sort(sample.begin(), sample.end());
  return sample;
}

void replay(const Workload& workload,
            const std::shared_ptr<const hack::TinyModelWeights>& weights,
            const std::vector<Served>& served,
            const std::vector<std::size_t>& sample, Tracer& tracer,
            ReplayResult& out) {
  const hack::TinyConfig& c = weights->config();
  const bool fleet = workload.engine == EngineKind::kFleet;
  for (const std::size_t idx : sample) {
    const Served& s = served[idx];
    const hack::ServingRequest& req = s.request;
    const std::size_t prompt = req.prompt.size();
    tracer.set_request(req.id);
    tracer.set_decode(false);
    hack::TinyModelSession session(weights, timed_factory(tracer));

    // Prefill on the engine's chunk schedule (Scheduler::chunk_end).
    hack::SchedulerConfig chunk_cfg;
    chunk_cfg.prefill_chunk_tokens =
        workload.prefill_chunk == 0 ? prompt : workload.prefill_chunk;
    const hack::Scheduler chunker(chunk_cfg);
    int token = -1;
    for (std::size_t begin = 0; begin < prompt;) {
      const std::size_t end = chunker.chunk_end(begin, prompt);
      Scoped chunk(tracer, SpanKind::kPrefillChunk);
      const hack::Matrix hidden = forward_chunk(
          session, {req.prompt.begin() + std::ptrdiff_t(begin),
                    req.prompt.begin() + std::ptrdiff_t(end)},
          tracer, out);
      if (end == prompt) token = lm_head(session, hidden, tracer, out);
      begin = end;
    }

    // Wire round trip of the prefill KV: a fresh session must re-serialize
    // to the same bytes.
    std::vector<std::uint8_t> blob;
    {
      Scoped span(tracer, SpanKind::kSerialize);
      blob = hack::serialize_session_kv(session);
    }
    hack::TinyModelSession fresh(weights, backend_factory());
    {
      Scoped span(tracer, SpanKind::kDeserialize);
      hack::deserialize_session_kv(blob, fresh);
    }
    if (hack::serialize_session_kv(fresh) != blob) ++out.wire_mismatches;
    out.wire_bytes += double(blob.size());
    out.fp16_kv_bytes +=
        double(prompt * c.kv_heads * c.d_head * 2 * 2 * c.layers);
    out.prompt_tokens += double(prompt);

    // Decode on the original session with the serving path's loop shape:
    // the fleet's decode worker runs one forward per emitted token (the
    // last one's result unused); the continuous engine emits the first
    // token from prefill and runs one forward per further token.
    tracer.set_decode(true);
    std::vector<int> generated;
    const auto step = [&](int input) {
      Scoped root(tracer, SpanKind::kDecodeStep);
      const hack::Matrix hidden = forward_chunk(session, {input}, tracer, out);
      return lm_head(session, hidden, tracer, out);
    };
    if (fleet) {
      while (generated.size() < req.max_new_tokens && token != req.eos) {
        generated.push_back(token);
        token = step(token);
      }
    } else if (req.max_new_tokens > 0 && token != req.eos) {
      generated.push_back(token);
      while (generated.size() < req.max_new_tokens) {
        token = step(token);
        if (token == req.eos) break;
        generated.push_back(token);
      }
    }
    if (generated != s.tokens) ++out.token_mismatches;
    out.served_compute_s += s.prefill_s + s.decode_s;
    ++out.replayed;
  }
}

}  // namespace hackbench
