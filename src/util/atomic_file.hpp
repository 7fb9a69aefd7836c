// Durable, atomic file publication — the blessed write path for anything
// that must survive a crash (campaign/cache.hpp entries, the campaign
// journal's sibling files, ...) — and its read-side counterpart, the
// one-pass whole-file read those same stores are loaded with.
//
// atomic_write_file() follows the classic crash-safe recipe:
//
//   1. write the bytes to a unique temp name next to the destination,
//   2. fsync the temp file (the data is on stable storage),
//   3. rename() it over the destination (the publish is atomic).
//
// A reader therefore observes either the old content or the complete new
// content — never a torn file — and a crash between any two steps leaves at
// worst a stray temp file. Failures (ENOSPC, EIO, a short write, a missing
// directory) surface as WriteError carrying the errno, so callers can
// distinguish "the disk is full" from "the bytes were bad".
//
// loki_lint.py enforces that code under src/campaign/ publishes files only
// through these helpers: a bare std::ofstream or std::filesystem::rename
// there is exactly the fsync-free torn-write bug this header exists to
// prevent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace loki::util {

/// A durable-write step failed (open, write, fsync, close, or rename).
/// `error()` is the errno of the failing step (0 when unavailable).
class WriteError : public std::runtime_error {
 public:
  WriteError(const std::string& message, int err)
      : std::runtime_error(message), errno_(err) {}
  int error() const { return errno_; }

 private:
  int errno_;
};

/// Durably publish `size` bytes at `path`: unique temp, write, fsync,
/// atomic rename. Throws WriteError; on failure the temp file is removed
/// and `path` is untouched.
void atomic_write_file(const std::filesystem::path& path, const void* data,
                       std::size_t size);

/// Atomic rename without the durability step — for moving an existing file
/// aside (e.g. quarantining a corrupt cache entry), where the bytes are
/// already on disk and only the name changes. Throws WriteError.
void rename_path(const std::filesystem::path& from,
                 const std::filesystem::path& to);

/// Whole-file read in one pass: open, fstat for the size, then read(2)
/// into a buffer of that size until EOF (EINTR retried; a file that grew
/// since the fstat is still read to its end). nullopt when the file cannot
/// be opened or read, with errno left as the failing call set it.
std::optional<std::vector<std::uint8_t>> read_file_bytes(
    const std::filesystem::path& path);

}  // namespace loki::util
