#include "trace/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/str.h"
#include "trace/binary.h"
#include "trace/ring.h"

namespace hermes::trace {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTxnBegin:
      return "txn_begin";
    case EventKind::kStepStart:
      return "step_start";
    case EventKind::kStepEnd:
      return "step_end";
    case EventKind::kPrepareSend:
      return "prepare_send";
    case EventKind::kVoteRecv:
      return "vote_recv";
    case EventKind::kDecisionSend:
      return "decision_send";
    case EventKind::kAckRecv:
      return "ack_recv";
    case EventKind::kTxnEnd:
      return "txn_end";
    case EventKind::kPrepareRecv:
      return "prepare_recv";
    case EventKind::kCertReady:
      return "cert_ready";
    case EventKind::kCertRefuse:
      return "cert_refuse";
    case EventKind::kResubmitStart:
      return "resubmit_start";
    case EventKind::kResubmitDone:
      return "resubmit_done";
    case EventKind::kCommitRetry:
      return "commit_retry";
    case EventKind::kLocalCommit:
      return "local_commit";
    case EventKind::kLocalAbort:
      return "local_abort";
    case EventKind::kUnilateralAbort:
      return "unilateral_abort";
    case EventKind::kLocalTxnBegin:
      return "local_txn_begin";
    case EventKind::kLocalTxnEnd:
      return "local_txn_end";
    case EventKind::kSiteCrash:
      return "site_crash";
    case EventKind::kSiteRecover:
      return "site_recover";
    case EventKind::kInquirySend:
      return "inquiry_send";
    case EventKind::kInquiryReply:
      return "inquiry_reply";
    case EventKind::kFaultEvent:
      return "fault_event";
    case EventKind::kMsgSend:
      return "msg_send";
    case EventKind::kMsgDrop:
      return "msg_drop";
    case EventKind::kMsgDup:
      return "msg_dup";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kInjectFailure:
      return "inject_failure";
    case EventKind::kCgmLock:
      return "cgm_lock";
    case EventKind::kCgmAdmission:
      return "cgm_admission";
    case EventKind::kPaxosBegin:
      return "paxos_begin";
    case EventKind::kPaxosVote:
      return "paxos_vote";
    case EventKind::kPaxosAccept:
      return "paxos_accept";
    case EventKind::kPaxosDecided:
      return "paxos_decided";
    case EventKind::kPaxosPrepare:
      return "paxos_prepare";
    case EventKind::kPaxosPromise:
      return "paxos_promise";
    case EventKind::kPaxosElect:
      return "paxos_elect";
    case EventKind::kShortCommit:
      return "short_commit";
    case EventKind::kCsnAssign:
      return "csn_assign";
    case EventKind::kReconfigBegin:
      return "reconfig_begin";
    case EventKind::kReconfigHandoff:
      return "reconfig_handoff";
    case EventKind::kReconfigDone:
      return "reconfig_done";
    case EventKind::kEpochRefused:
      return "epoch_refused";
  }
  return "?";
}

const char* RefuseKindName(RefuseKind kind) {
  switch (kind) {
    case RefuseKind::kNone:
      return "none";
    case RefuseKind::kInterval:
      return "interval";
    case RefuseKind::kExtension:
      return "extension";
    case RefuseKind::kDead:
      return "dead";
    case RefuseKind::kUnknownTxn:
      return "unknown_txn";
    case RefuseKind::kSnapshot:
      return "snapshot";
  }
  return "?";
}

const char* TraceFormatName(TraceFormat format) {
  switch (format) {
    case TraceFormat::kJsonl:
      return "jsonl";
    case TraceFormat::kBinary:
      return "binary";
  }
  return "?";
}

std::string EncodeTxnId(const TxnId& id) {
  if (!id.valid()) return "-";
  return StrCat(id.global() ? "G" : "L", id.site, ".", id.seq);
}

Result<TxnId> DecodeTxnId(std::string_view text) {
  if (text == "-") return TxnId{};
  const size_t dot = text.find('.');
  SiteId site = kInvalidSite;
  int64_t seq = 0;
  if (text.size() < 4 || (text[0] != 'G' && text[0] != 'L') ||
      dot == std::string_view::npos ||
      !ParseDecimal(text.substr(1, dot - 1), site) ||
      !ParseDecimal(text.substr(dot + 1), seq)) {
    return Status::InvalidArgument(StrCat("bad txn id: ", text));
  }
  return text[0] == 'G' ? TxnId::MakeGlobal(site, seq)
                        : TxnId::MakeLocal(site, seq);
}

std::string EncodeSerialNumber(const core::SerialNumber& sn) {
  if (!sn.valid()) return "-";
  return StrCat(sn.clock, "/", sn.coordinator, "/", sn.seq);
}

Result<core::SerialNumber> DecodeSerialNumber(std::string_view text) {
  if (text == "-") return core::SerialNumber{};
  const size_t a = text.find('/');
  const size_t b = a == std::string_view::npos ? a : text.find('/', a + 1);
  core::SerialNumber sn;
  if (b == std::string_view::npos ||
      !ParseDecimal(text.substr(0, a), sn.clock) ||
      !ParseDecimal(text.substr(a + 1, b - a - 1), sn.coordinator) ||
      !ParseDecimal(text.substr(b + 1), sn.seq)) {
    return Status::InvalidArgument(StrCat("bad serial number: ", text));
  }
  return sn;
}

std::string Event::ToJson() const {
  std::string out;
  out.reserve(96 + detail.size() + 16 * related.size());
  AppendJson(out);
  return out;
}

void Event::AppendJson(std::string& out) const {
  StrAppend(out, "{\"seq\":", seq, ",\"t\":", at, ",\"kind\":\"",
            EventKindName(kind), "\"");
  if (txn.valid()) {
    out += ",\"txn\":";
    AppendJsonString(out, EncodeTxnId(txn));
  }
  if (site != kInvalidSite) StrAppend(out, ",\"site\":", site);
  if (peer != kInvalidSite) StrAppend(out, ",\"peer\":", peer);
  if (resubmission >= 0) StrAppend(out, ",\"resub\":", resubmission);
  if (value >= 0) StrAppend(out, ",\"value\":", value);
  if (sn.valid()) {
    out += ",\"sn\":";
    AppendJsonString(out, EncodeSerialNumber(sn));
  }
  if (refuse != RefuseKind::kNone) {
    StrAppend(out, ",\"refuse\":\"", RefuseKindName(refuse), "\"");
  }
  StrAppend(out, ",\"ok\":", ok ? "true" : "false");
  if (!detail.empty()) {
    out += ",\"detail\":";
    AppendJsonString(out, detail);
  }
  if (!related.empty()) {
    out += ",\"related\":[";
    for (size_t i = 0; i < related.size(); ++i) {
      if (i > 0) out += ',';
      AppendJsonString(out, EncodeTxnId(related[i]));
    }
    out += ']';
  }
  out += '}';
}

namespace {

// SplitMix64 finisher — a deterministic, platform-independent mixer for
// the sampling decision (std::hash would tie trace content to the
// standard library implementation).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Tracer::Tracer(const sim::EventLoop* loop) : Tracer(TracerOptions{}, loop) {}

Tracer::Tracer(const TracerOptions& options, const sim::EventLoop* loop)
    : loop_(loop), options_(options) {
  if (options_.format == TraceFormat::kBinary) {
    ring_ = std::make_unique<TraceRing>(options_.ring_capacity);
  }
}

Tracer::~Tracer() = default;

bool Tracer::KeepsTxn(const TxnId& txn) const {
  if (options_.sample_period <= 1) return true;
  // Only global transactions are sampled: their event population dominates
  // the trace, and whole-gtid keep-or-drop preserves span-tree shape.
  if (!txn.valid() || !txn.global()) return true;
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(txn.site)) << 32) ^
      static_cast<uint64_t>(txn.seq);
  return Mix64(options_.sample_seed ^ Mix64(key)) % options_.sample_period ==
         0;
}

void Tracer::Record(Event e) {
  // seq is the emit index, assigned before the sampling decision, so a
  // sampled trace shows honest seq gaps where transactions were dropped.
  e.seq = stats_.emitted;
  e.at = loop_ != nullptr ? loop_->Now() : -1;
  ++stats_.emitted;
  if (!KeepsTxn(e.txn)) {
    ++stats_.sampled_out;
    return;
  }
  for (EventFold* fold : folds_) fold->Fold(e);
  if (ring_ != nullptr) {
    ring_->Append(e);
    stats_.dropped = ring_->dropped();
  } else {
    events_.push_back(std::move(e));
  }
}

size_t Tracer::size() const {
  return ring_ != nullptr ? ring_->size() : events_.size();
}

void Tracer::Clear() {
  events_.clear();
  if (ring_ != nullptr) ring_->Clear();
  stats_ = TracerStats{};
}

void Tracer::ForEach(const std::function<void(const Event&)>& fn) const {
  if (ring_ != nullptr) {
    ring_->ForEach(fn);
  } else {
    for (const Event& e : events_) fn(e);
  }
}

void Tracer::AddFold(EventFold* fold) { folds_.push_back(fold); }

void Tracer::RemoveFold(EventFold* fold) {
  folds_.erase(std::remove(folds_.begin(), folds_.end(), fold), folds_.end());
}

std::string Tracer::ToJsonl() const {
  std::string out;
  ForEach([&](const Event& e) {
    e.AppendJson(out);
    out += '\n';
  });
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Stream in bounded chunks: exporting a million-event trace must not
  // materialize a hundreds-of-MB string first.
  constexpr size_t kChunk = 64 * 1024;
  std::string buf;
  buf.reserve(kChunk + 512);
  bool ok = true;
  ForEach([&](const Event& e) {
    if (!ok) return;
    e.AppendJson(buf);
    buf += '\n';
    if (buf.size() >= kChunk) {
      ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
      buf.clear();
    }
  });
  if (ok && !buf.empty()) {
    ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  }
  return std::fclose(f) == 0 && ok;
}

std::string Tracer::ToBinary() const {
  if (ring_ != nullptr) return ring_->Serialize(stats_.sampled_out);
  BinaryTraceWriter writer;
  writer.AddSampledOut(stats_.sampled_out);
  for (const Event& e : events_) writer.Add(e);
  return writer.Finish();
}

bool Tracer::WriteBinary(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string blob = ToBinary();
  const size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  return std::fclose(f) == 0 && written == blob.size();
}

// --- JSONL parsing -----------------------------------------------------------

namespace {

// Reads a string field holding one of the compact encodings (txn id,
// serial number).
template <typename T>
bool ReadEncoded(JsonReader& r, Result<T> (*decode)(std::string_view),
                 T& out) {
  std::string_view text;
  if (!r.String(text)) return false;
  Result<T> decoded = decode(text);
  if (!decoded.ok()) return r.Fail(decoded.status().message());
  out = *decoded;
  return true;
}

// Appends the event on one JSONL line to `out`.
bool ReadEvent(JsonReader& r, std::vector<Event>& out) {
  Event e;
  const bool ok = r.FlatObject([&](std::string_view key) {
    if (key == "seq") return r.Int64(e.seq);
    if (key == "t") return r.Int64(e.at);
    if (key == "kind") {
      return r.Name(kAllEventKinds, EventKindName, "event kind", e.kind);
    }
    if (key == "txn") return ReadEncoded(r, DecodeTxnId, e.txn);
    if (key == "site") return r.Int32(e.site);
    if (key == "peer") return r.Int32(e.peer);
    if (key == "resub") return r.Int32(e.resubmission);
    if (key == "value") return r.Int64(e.value);
    if (key == "sn") return ReadEncoded(r, DecodeSerialNumber, e.sn);
    if (key == "refuse") {
      return r.Name(kAllRefuseKinds, RefuseKindName, "refuse kind", e.refuse);
    }
    if (key == "ok") return r.Bool(e.ok);
    if (key == "detail") return r.String(e.detail);
    if (key == "related") {
      return r.Array([&] {
        return ReadEncoded(r, DecodeTxnId, e.related.emplace_back());
      });
    }
    return r.Fail(StrCat("unknown key: ", key));
  });
  if (ok) out.push_back(std::move(e));
  return ok;
}

}  // namespace

Result<std::vector<Event>> ParseJsonl(const std::string& text) {
  std::vector<Event> events;
  const Status s = ReadJsonl(text, "trace jsonl", [&](JsonReader& r) {
    return ReadEvent(r, events);
  });
  if (!s.ok()) return s;
  return events;
}

LenientParse ParseJsonlLenient(const std::string& text) {
  LenientParse out;
  ReadJsonl(
      text, "trace jsonl",
      [&](JsonReader& r) { return ReadEvent(r, out.events); }, &out);
  return out;
}

}  // namespace hermes::trace
