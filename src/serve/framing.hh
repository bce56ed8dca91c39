/**
 * @file
 * Newline-JSON framing of the serve protocol (docs/SERVE.md).
 *
 * One frame is a compact JSON status line terminated by '\n', followed
 * by exactly `status.bytes` raw payload bytes. The explicit byte count
 * (instead of line framing) is what lets a multi-line pretty-JSON
 * payload cross a line-oriented protocol untouched.
 *
 * Incoming frames parse through FrameBuffer, so the `bytes` field is
 * validated in exactly one place: it must be a nonnegative integer no
 * larger than kMaxFramePayload, or the frame is rejected with a
 * FatalError. A corrupt or malicious peer can therefore never turn a
 * status line into a giant allocation or a silently truncated read.
 */

#ifndef LIBRA_SERVE_FRAMING_HH
#define LIBRA_SERVE_FRAMING_HH

#include <cstddef>
#include <optional>
#include <string>

#include "common/json.hh"

namespace libra {

/**
 * Hard ceiling on one frame's payload (1 GiB). Far above any real
 * matrix emission, far below an allocation that could take the
 * process down.
 */
inline constexpr std::size_t kMaxFramePayload =
    std::size_t{1} << 30;

/** Ceiling on one status/request line (1 MiB); see docs/SERVE.md. */
inline constexpr std::size_t kMaxFrameLine = std::size_t{1} << 20;

/** One parsed frame: the status line plus its raw payload bytes. */
struct Frame
{
    Json status;
    std::string payload;
};

/**
 * Serialize a frame: `status` gains a trailing "bytes" member set to
 * the payload size, is dumped compactly onto one line, and the raw
 * payload follows.
 */
std::string frameMessage(Json status, const std::string& payload);

/** frameMessage for an `{ok:false, error}` status with no payload. */
std::string frameErrorMessage(const std::string& error);

/**
 * Validate a status line's "bytes" member: absent counts as 0; present
 * it must be a nonnegative integral number no larger than
 * kMaxFramePayload.
 * @throws FatalError (prefixed with @p who) otherwise — a negative,
 * NaN, fractional, or absurd value from a corrupt peer must never
 * reach an allocation or a size_t cast.
 */
std::size_t framePayloadBytes(const Json& status, const char* who);

/**
 * Incremental frame parser: feed received bytes with append(), take
 * complete frames with next(). Bytes beyond a complete frame are kept
 * for the following one, so pipelined frames on one stream parse
 * cleanly.
 */
class FrameBuffer
{
  public:
    /** @p who prefixes parse/validation error messages ("serve", …). */
    explicit FrameBuffer(const char* who) : who_(who) {}

    /** Append raw received bytes. */
    void append(const char* data, std::size_t n);

    /**
     * Extract the next complete frame, if the buffer holds one.
     * @throws FatalError on an over-long status line, a malformed
     * status line, or an invalid "bytes" field.
     */
    std::optional<Frame> next();

    /** Buffered bytes not yet consumed by a complete frame. */
    std::size_t pending() const { return data_.size(); }

  private:
    const char* who_;
    std::string data_;
};

/**
 * Write all of @p data to socket @p fd (MSG_NOSIGNAL, so a dead peer
 * is an error return, not a process-killing SIGPIPE).
 * @return false on any send failure.
 */
bool sendAllFd(int fd, const std::string& data);

/**
 * Blocking-read exactly one frame from socket @p fd through @p buffer
 * (leftover bytes stay buffered for the next call).
 * @throws FatalError when the peer closes mid-frame or sends an
 * invalid frame.
 */
Frame readFrameFd(int fd, FrameBuffer& buffer, const char* who);

} // namespace libra

#endif // LIBRA_SERVE_FRAMING_HH
