#include "serve/spool.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <span>
#include <thread>

#include "common/binary_io.hpp"

namespace ada::serve {

namespace fs = std::filesystem;

namespace {

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kSubset: return "subset";
    case RequestKind::kRange: return "range";
    case RequestKind::kTail: return "tail";
    case RequestKind::kDegraded: return "degraded";
  }
  return "subset";
}

Result<RequestKind> kind_from_name(const std::string& name) {
  if (name == "subset") return RequestKind::kSubset;
  if (name == "range") return RequestKind::kRange;
  if (name == "tail") return RequestKind::kTail;
  if (name == "degraded") return RequestKind::kDegraded;
  return invalid_argument("spool: unknown request kind '" + name + "'");
}

/// The typed half of the wire verdict: "error overloaded ..." must come back
/// as kOverloaded, not a stringly-typed kInternal.
ErrorCode code_from_name(const std::string& name) {
  constexpr ErrorCode kCodes[] = {
      ErrorCode::kInvalidArgument, ErrorCode::kNotFound,       ErrorCode::kAlreadyExists,
      ErrorCode::kOutOfRange,      ErrorCode::kCorruptData,    ErrorCode::kIoError,
      ErrorCode::kUnsupported,     ErrorCode::kResourceExhausted,
      ErrorCode::kFailedPrecondition, ErrorCode::kUnavailable, ErrorCode::kDeadlineExceeded,
      ErrorCode::kOverloaded,      ErrorCode::kInternal,
  };
  for (const ErrorCode code : kCodes) {
    if (name == to_string(code)) return code;
  }
  return ErrorCode::kInternal;
}

// Decimal field of width T; a value that does not fit T (a begin past
// UINT32_MAX, say) is rejected, never truncated.
template <typename T>
Result<T> parse_uint(const std::string& text, const char* field) {
  T value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return invalid_argument(std::string("spool: bad ") + field + " value '" + text + "'");
  }
  return value;
}

Status write_text_atomic(const std::string& path, const std::string& text) {
  return write_file_atomic(
      path, std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string next_request_id() {
  static std::atomic<std::uint64_t> sequence{0};
  std::string id = "q";
  id += std::to_string(static_cast<std::uint64_t>(::getpid()));
  id += '-';
  id += std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  return id;
}

}  // namespace

std::string encode_spool_request(const Request& request) {
  std::string text;
  text += "tenant=" + request.tenant + "\n";
  text += "name=" + request.logical_name + "\n";
  text += "tag=" + request.tag + "\n";
  text += std::string("kind=") + kind_name(request.kind) + "\n";
  text += "begin=" + std::to_string(request.range.begin) + "\n";
  text += "end=" + std::to_string(request.range.end) + "\n";
  text += "stride=" + std::to_string(request.range.stride) + "\n";
  text += "from=" + std::to_string(request.from_frame) + "\n";
  return text;
}

Result<Request> parse_spool_request(const std::string& text) {
  Request request;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return corrupt_data("spool: request line without '=': " + line);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "tenant") {
      request.tenant = value;
    } else if (key == "name") {
      request.logical_name = value;
    } else if (key == "tag") {
      request.tag = value;
    } else if (key == "kind") {
      ADA_ASSIGN_OR_RETURN(request.kind, kind_from_name(value));
    } else if (key == "begin") {
      ADA_ASSIGN_OR_RETURN(request.range.begin, parse_uint<std::uint32_t>(value, "begin"));
    } else if (key == "end") {
      ADA_ASSIGN_OR_RETURN(request.range.end, parse_uint<std::uint32_t>(value, "end"));
    } else if (key == "stride") {
      ADA_ASSIGN_OR_RETURN(request.range.stride, parse_uint<std::uint32_t>(value, "stride"));
    } else if (key == "from") {
      ADA_ASSIGN_OR_RETURN(request.from_frame, parse_uint<std::uint64_t>(value, "from"));
    } else {
      return corrupt_data("spool: unknown request field '" + key + "'");
    }
  }
  if (request.logical_name.empty()) return invalid_argument("spool: request without name=");
  return request;
}

SpoolClient::SpoolClient(std::string dir) : dir_(std::move(dir)) {}

Result<SpoolReply> SpoolClient::call(const Request& request, double timeout_s, double poll_s) {
  if (poll_s <= 0) poll_s = 0.02;
  const std::string id = next_request_id();
  const std::string base = dir_ + "/" + id;
  ADA_RETURN_IF_ERROR(write_text_atomic(base + ".req", encode_spool_request(request)));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s > 0 ? timeout_s : 0);
  while (!fs::exists(base + ".done")) {
    if (timeout_s > 0 && std::chrono::steady_clock::now() >= deadline) {
      std::error_code ec;
      fs::remove(base + ".req", ec);  // withdraw if still unclaimed
      return deadline_exceeded("spool: no verdict for " + id + " within " +
                               std::to_string(timeout_s) + "s");
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
  }

  ADA_ASSIGN_OR_RETURN(const auto done_bytes, read_file(base + ".done"));
  std::string verdict(done_bytes.begin(), done_bytes.end());
  if (!verdict.empty() && verdict.back() == '\n') verdict.pop_back();

  SpoolReply reply;
  std::error_code ec;
  if (verdict.rfind("ok ", 0) == 0) {
    std::uint64_t coalesced = 0;
    std::uint64_t sealed = 0;
    const std::string fields = verdict.substr(3);
    // "ok <coalesced> <from_frame> <frames> <sealed>"
    std::size_t start = 0;
    std::uint64_t* const slots[] = {&coalesced, &reply.from_frame, &reply.frames, &sealed};
    for (std::uint64_t* slot : slots) {
      std::size_t space = fields.find(' ', start);
      if (space == std::string::npos) space = fields.size();
      ADA_ASSIGN_OR_RETURN(
          *slot, parse_uint<std::uint64_t>(fields.substr(start, space - start), "verdict"));
      start = space + 1;
    }
    reply.coalesced = coalesced != 0;
    reply.sealed = sealed != 0;
    ADA_ASSIGN_OR_RETURN(reply.payload, read_file(base + ".raw"));
    fs::remove(base + ".raw", ec);
    fs::remove(base + ".done", ec);
    return reply;
  }
  fs::remove(base + ".raw", ec);
  fs::remove(base + ".done", ec);
  if (verdict.rfind("error ", 0) == 0) {
    const std::string rest = verdict.substr(6);
    const std::size_t space = rest.find(' ');
    const std::string code = space == std::string::npos ? rest : rest.substr(0, space);
    const std::string message =
        space == std::string::npos ? std::string("(no message)") : rest.substr(space + 1);
    return Error(code_from_name(code), message);
  }
  return corrupt_data("spool: malformed verdict '" + verdict + "' for " + id);
}

SpoolServer::SpoolServer(AdaService& service, std::string dir)
    : service_(service), dir_(std::make_shared<const std::string>(std::move(dir))) {}

namespace {

/// Write one exchange's verdict (and payload on success).  A free function
/// over (dir, id) on purpose: completion callbacks run on service worker
/// threads and may fire after the SpoolServer that submitted them is gone.
void publish_verdict(const std::string& dir, const std::string& id,
                     const Result<Response>& result) {
  const std::string base = dir + "/" + id;
  if (result.is_ok()) {
    const Response& response = result.value();
    // Payload first, verdict last: a client that sees .done can trust .raw.
    if (const Status wrote = write_file_atomic(base + ".raw", *response.image); !wrote.is_ok()) {
      (void)write_text_atomic(base + ".done", "error io_error " + wrote.error().message() + "\n");
    } else {
      (void)write_text_atomic(
          base + ".done",
          "ok " + std::to_string(response.coalesced ? 1 : 0) + " " +
              std::to_string(response.from_frame) + " " + std::to_string(response.frames) + " " +
              std::to_string(response.sealed ? 1 : 0) + "\n");
    }
  } else {
    (void)write_text_atomic(base + ".done", "error " + std::string(to_string(result.error().code())) +
                                                " " + result.error().message() + "\n");
  }
  std::error_code ec;
  fs::remove(base + ".wip", ec);
}

}  // namespace

std::size_t SpoolServer::poll_once() {
  std::size_t claimed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(*dir_, ec)) {
    if (ec) break;
    const fs::path& path = entry.path();
    if (path.extension() != ".req") continue;
    const std::string id = path.stem().string();
    const fs::path wip = path.parent_path() / (id + ".wip");
    // The claim: exactly one scanner wins the rename; losers skip.
    std::error_code claim_ec;
    fs::rename(path, wip, claim_ec);
    if (claim_ec) continue;
    ++claimed;
    const auto body = read_file(wip.string());
    if (!body.is_ok()) {
      publish_verdict(*dir_, id, body.error());
      continue;
    }
    const auto request = parse_spool_request(std::string(body.value().begin(), body.value().end()));
    if (!request.is_ok()) {
      publish_verdict(*dir_, id, request.error());
      continue;
    }
    const Status accepted = service_.submit(
        request.value(),
        [dir = dir_, id](Result<Response> result) { publish_verdict(*dir, id, result); });
    // Submit-side rejections (kOverloaded, quota) never reach a worker:
    // publish the typed verdict right here so the client backs off.
    if (!accepted.is_ok()) publish_verdict(*dir_, id, accepted.error());
  }
  return claimed;
}

}  // namespace ada::serve
