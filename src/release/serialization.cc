#include "release/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/byteio.h"
#include "core/fault.h"
#include "release/builtin_methods.h"
#include "release/options.h"
#include "release/sequence_methods.h"
#include "seq/pst_serialization.h"
#include "spatial/serialization.h"

namespace privtree::release {

namespace {

constexpr std::string_view kV1Magic = "privtree-histogram v1";

/// The previous raw-payload format: still loaded (spill dirs written before
/// the compressed envelopes landed keep warm-restarting), never written.
constexpr std::uint32_t kSynopsisFormatVersionV2 = 2;

/// v2 header: magic (8) + version (4) + body size (8) + body checksum (8).
constexpr std::size_t kHeaderBytesV2 = 28;
/// v3 appends a u64 header checksum over the first 28 bytes.
constexpr std::size_t kHeaderBytesV3 = 36;

Status ValidateOptionsText(const MethodRegistry& registry,
                           const std::string& method,
                           const std::string& options_text,
                           MethodOptions* out) {
  std::string error;
  if (!MethodOptions::TryParse(options_text, out, &error)) {
    return Status::InvalidArgument("synopsis options: " + error);
  }
  const auto& allowed = registry.AllowedKeys(method);
  for (const std::string& key : out->Keys()) {
    const auto it = std::find_if(
        allowed.begin(), allowed.end(),
        [&](const OptionKey& k) { return k.name == key; });
    if (it == allowed.end()) {
      return Status::InvalidArgument("synopsis options: method \"" + method +
                                     "\" has no option \"" + key + "\"");
    }
    if (!ValueParsesAs(it->type, out->GetString(key, ""))) {
      return Status::InvalidArgument("synopsis options: bad value for \"" +
                                     key + "\"");
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteSynopsis(std::ostream& out, const MethodMetadata& metadata,
                     std::string_view options_text, std::string_view payload) {
  std::string body;
  ByteWriter w(&body);
  w.Str(metadata.method);
  w.Str(options_text);
  w.U64(metadata.dim);
  w.F64(metadata.epsilon_spent);
  w.U64(metadata.synopsis_size);
  w.I32(metadata.height);
  body.append(payload.data(), payload.size());

  std::string header;
  ByteWriter h(&header);
  header.append(kSynopsisMagic.data(), kSynopsisMagic.size());
  h.U32(kSynopsisFormatVersion);
  h.U64(body.size());
  h.U64(ByteChecksum(body));
  h.U64(ByteChecksum(header));  // Header checksum over bytes [0, 28).

  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) return Status::IOError("synopsis write failure");
  return Status::OK();
}

Result<std::unique_ptr<Method>> LoadMethod(std::istream& in,
                                           const MethodRegistry& registry) {
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("synopsis read failure");

  // Legacy v1 text files load through compat shims: the persisted releases
  // carry no method name or ε, so they come back as a "privtree" (spatial
  // tree) or "pst_privtree" (sequence PST) synopsis with epsilon_spent = 0.
  if (data.size() >= kV1Magic.size() &&
      std::string_view(data).substr(0, kV1Magic.size()) == kV1Magic) {
    std::istringstream text(data);
    auto hist = LoadSpatialHistogramText(text, "<v1 synopsis>");
    if (!hist.ok()) return hist.status();
    return WrapSpatialHistogram(std::move(hist).value(),
                                /*epsilon_spent=*/0.0);
  }
  if (data.size() >= kPstV1Magic.size() &&
      std::string_view(data).substr(0, kPstV1Magic.size()) == kPstV1Magic) {
    std::istringstream text(data);
    auto model = LoadPstModelStream(text, "<pst v1 synopsis>");
    if (!model.ok()) return model.status();
    return WrapPstModel(std::move(model).value(), /*epsilon_spent=*/0.0);
  }

  if (data.size() < kHeaderBytesV2 ||
      std::string_view(data).substr(0, kSynopsisMagic.size()) !=
          kSynopsisMagic) {
    return Status::InvalidArgument("synopsis: bad magic");
  }
  ByteReader header(std::string_view(data).substr(kSynopsisMagic.size()));
  std::uint32_t version = 0;
  std::uint64_t body_size = 0, checksum = 0;
  header.U32(&version);
  header.U64(&body_size);
  header.U64(&checksum);
  if (version != kSynopsisFormatVersion &&
      version != kSynopsisFormatVersionV2) {
    return Status::InvalidArgument("synopsis: unsupported format version " +
                                   std::to_string(version));
  }
  std::size_t header_bytes = kHeaderBytesV2;
  if (version >= kSynopsisFormatVersion) {
    header_bytes = kHeaderBytesV3;
    std::uint64_t header_checksum = 0;
    if (data.size() < kHeaderBytesV3 || !header.U64(&header_checksum)) {
      return Status::InvalidArgument("synopsis: truncated header");
    }
    if (ByteChecksum(std::string_view(data).substr(0, kHeaderBytesV2)) !=
        header_checksum) {
      return Status::InvalidArgument("synopsis: header checksum mismatch");
    }
  }
  const std::string_view body =
      std::string_view(data).substr(header_bytes);
  if (body_size != body.size()) {
    return Status::InvalidArgument(
        body_size > body.size() ? "synopsis: truncated body"
                                : "synopsis: trailing bytes after body");
  }
  if (ByteChecksum(body) != checksum) {
    return Status::InvalidArgument("synopsis: checksum mismatch");
  }

  ByteReader r(body);
  SynopsisEnvelope envelope;
  envelope.format_version = version;
  std::uint64_t dim = 0, synopsis_size = 0;
  if (!r.Str(&envelope.metadata.method) || !r.Str(&envelope.options_text) ||
      !r.U64(&dim) || !r.F64(&envelope.metadata.epsilon_spent) ||
      !r.U64(&synopsis_size) || !r.I32(&envelope.metadata.height)) {
    return Status::InvalidArgument("synopsis: truncated envelope");
  }
  if (!(envelope.metadata.epsilon_spent >= 0.0) ||
      !std::isfinite(envelope.metadata.epsilon_spent)) {
    return Status::InvalidArgument("synopsis: bad epsilon");
  }
  envelope.metadata.dim = dim;
  envelope.metadata.synopsis_size = synopsis_size;

  const std::string& name = envelope.metadata.method;
  if (!registry.Contains(name)) {
    return Status::NotFound("synopsis: unknown method \"" + name + "\"");
  }
  const MethodRegistry::Entry& entry = registry.Get(name);
  if (!entry.loader) {
    return Status::InvalidArgument("synopsis: method \"" + name +
                                   "\" has no registered loader");
  }
  // `dim` is kind-relative: spatial methods fit 1..8-dimensional domains;
  // sequence methods report the alphabet size.  The bound is checked only
  // after the registry lookup names the kind.
  const std::uint64_t max_dim =
      entry.kind == DatasetKind::kSequence ? kMaxAlphabetSize : 8;
  if (dim == 0 || dim > max_dim) {
    return Status::InvalidArgument("synopsis: bad dimensionality " +
                                   std::to_string(dim));
  }
  if (entry.required_dim != 0 && dim != entry.required_dim) {
    return Status::InvalidArgument(
        "synopsis: method \"" + name + "\" requires dim " +
        std::to_string(entry.required_dim) + ", file has " +
        std::to_string(dim));
  }
  MethodOptions options;
  if (Status s = ValidateOptionsText(registry, name, envelope.options_text,
                                     &options);
      !s.ok()) {
    return s;
  }

  auto loaded = entry.loader(envelope, r);
  if (!loaded.ok()) return loaded.status();
  if (!r.AtEnd()) {
    return Status::InvalidArgument("synopsis: trailing payload bytes");
  }

  // Cross-check the loader's reconstruction against the envelope: a
  // mismatch means a codec bug or a crafted file, and either way the
  // synopsis must not be served.
  const MethodMetadata metadata = loaded.value()->Metadata();
  if (metadata.method != name || metadata.dim != envelope.metadata.dim ||
      metadata.epsilon_spent != envelope.metadata.epsilon_spent ||
      metadata.synopsis_size != envelope.metadata.synopsis_size ||
      metadata.height != envelope.metadata.height) {
    return Status::InvalidArgument(
        "synopsis: loaded metadata does not match envelope");
  }
  return loaded;
}

Result<std::unique_ptr<Method>> LoadMethod(std::istream& in) {
  return LoadMethod(in, GlobalMethodRegistry());
}

Status SaveMethodToFile(const Method& method, const std::string& path,
                        bool durable) {
  // Serialize to memory first: the envelope is small, and a byte buffer
  // lets both the `partial` fault (a torn prefix, simulating a crash
  // mid-write) and the fsync path work on one code path.
  std::ostringstream buffer;
  if (Status s = method.Save(buffer); !s.ok()) return s;
  const std::string data = std::move(buffer).str();
  std::size_t write_size = data.size();
  if (auto f = PRIVTREE_FAULT("envelope.save"); f && f.MaybeSleep()) {
    if (f.kind == fault::Kind::kPartialWrite) {
      // A torn write *appears* to succeed — exactly what a crash between
      // write and rename leaves behind.  Recovery (quarantine scan,
      // checksum-verified loads) is what the chaos tests pin down.
      write_size /= 2;
    } else {
      return f.ToStatus("envelope.save");
    }
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(data.data(), static_cast<std::streamsize>(write_size));
  out.flush();
  if (!out) return Status::IOError("write failure on " + path);
  out.close();
  if (durable) {
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) return Status::IOError("cannot reopen " + path + " to sync");
    const int synced = ::fsync(fd);
    ::close(fd);
    if (synced != 0) return Status::IOError("fsync failure on " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<Method>> LoadMethodFromFile(const std::string& path) {
  if (auto f = PRIVTREE_FAULT("envelope.load"); f && f.MaybeSleep()) {
    return f.ToStatus("envelope.load");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadMethod(in);
}

Status ProbeSynopsisFile(const std::string& path,
                         std::uint64_t* bytes_scanned) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  // One small read covers every header this probe can rule on: the v3
  // binary header (36 bytes) and both legacy text magic lines.
  char head[64];
  in.read(head, sizeof(head));
  const auto head_size = static_cast<std::size_t>(in.gcount());
  if (in.bad()) return Status::IOError("read failure on " + path);
  if (bytes_scanned != nullptr) *bytes_scanned += head_size;
  const std::string_view data(head, head_size);

  // Legacy v1 text formats carry no checksum; their magic is the best
  // cheap evidence available, and LoadMethod's parser rejects the rest.
  if (data.substr(0, kV1Magic.size()) == kV1Magic) return Status::OK();
  if (data.substr(0, kPstV1Magic.size()) == kPstV1Magic) return Status::OK();

  if (data.size() < kHeaderBytesV2 ||
      data.substr(0, kSynopsisMagic.size()) != kSynopsisMagic) {
    return Status::InvalidArgument("synopsis: bad magic");
  }
  ByteReader header(data.substr(kSynopsisMagic.size()));
  std::uint32_t version = 0;
  std::uint64_t body_size = 0, checksum = 0;
  header.U32(&version);
  header.U64(&body_size);
  header.U64(&checksum);
  if (version != kSynopsisFormatVersion &&
      version != kSynopsisFormatVersionV2) {
    return Status::InvalidArgument("synopsis: unsupported format version " +
                                   std::to_string(version));
  }

  if (version >= kSynopsisFormatVersion) {
    // v3: the header carries its own checksum and declares the body size,
    // so structural integrity (a damaged header, truncation, a torn tail)
    // is decidable without touching the body.  Silent body bit rot is
    // caught by the body checksum on first LoadMethod.
    std::uint64_t header_checksum = 0;
    if (data.size() < kHeaderBytesV3 || !header.U64(&header_checksum)) {
      return Status::InvalidArgument("synopsis: truncated header");
    }
    if (ByteChecksum(data.substr(0, kHeaderBytesV2)) != header_checksum) {
      return Status::InvalidArgument("synopsis: header checksum mismatch");
    }
    in.clear();
    in.seekg(0, std::ios::end);
    const auto file_size = in.tellg();
    if (file_size < 0) return Status::IOError("cannot stat " + path);
    const auto actual =
        static_cast<std::uint64_t>(file_size) - kHeaderBytesV3;
    if (body_size != actual) {
      return Status::InvalidArgument(
          body_size > actual ? "synopsis: truncated body"
                             : "synopsis: trailing bytes after body");
    }
    return Status::OK();
  }

  // v2: no header checksum — the only integrity evidence is the body
  // checksum, so the legacy probe reads the whole file.
  in.clear();
  in.seekg(0);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failure on " + path);
  if (bytes_scanned != nullptr && full.size() > head_size) {
    *bytes_scanned += full.size() - head_size;
  }
  const std::string_view body = std::string_view(full).substr(kHeaderBytesV2);
  if (body_size != body.size()) {
    return Status::InvalidArgument(
        body_size > body.size() ? "synopsis: truncated body"
                                : "synopsis: trailing bytes after body");
  }
  if (ByteChecksum(body) != checksum) {
    return Status::InvalidArgument("synopsis: checksum mismatch");
  }
  return Status::OK();
}

}  // namespace privtree::release
