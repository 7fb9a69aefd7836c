#include "campaign/journal.hpp"

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "runtime/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/codec.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

int open_journal(const std::filesystem::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0)
    throw ConfigError("campaign journal: cannot open '" + path.string() +
                      "': " + std::strerror(errno));
  return fd;
}

/// Whole-file read for load(). The journal is small — a few dozen bytes per
/// experiment — and parsed once per resume.
std::vector<std::uint8_t> read_all(const std::filesystem::path& path) {
  std::optional<std::vector<std::uint8_t>> bytes = util::read_file_bytes(path);
  if (!bytes)
    throw ConfigError("campaign journal: cannot read '" + path.string() +
                      "': " + std::strerror(errno));
  return std::move(*bytes);
}

[[noreturn]] void malformed(const std::filesystem::path& path,
                            const std::string& what) {
  throw ConfigError("campaign journal '" + path.string() +
                    "': " + what +
                    " — this is not a torn tail but a malformed journal; "
                    "refusing to resume from it");
}

}  // namespace

// --- writer ------------------------------------------------------------------

CampaignJournal::CampaignJournal(int fd, std::filesystem::path path,
                                 Options options)
    : fd_(fd), path_(std::move(path)), options_(options) {
  if (options_.group_records < 1)
    throw ConfigError("campaign journal: group_records must be >= 1, got " +
                      std::to_string(options_.group_records));
}

CampaignJournal CampaignJournal::create(const std::filesystem::path& path,
                                        Options options) {
  CampaignJournal journal(
      open_journal(path, O_WRONLY | O_CREAT | O_TRUNC), path, options);
  // The header goes down durably before any record: a journal file either
  // identifies itself or is empty (the "killed at birth" case load()
  // treats as nothing-journaled).
  journal.append(runtime::encode_journal_header(), /*durable=*/true);
  return journal;
}

CampaignJournal CampaignJournal::append_to(const std::filesystem::path& path,
                                           Options options) {
  if (!std::filesystem::exists(path))
    throw ConfigError("campaign journal: cannot resume, '" + path.string() +
                      "' does not exist");
  return CampaignJournal(open_journal(path, O_WRONLY | O_APPEND), path,
                         options);
}

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      options_(other.options_),
      pending_(std::move(other.pending_)),
      pending_records_(other.pending_records_) {
  other.fd_ = -1;
  other.pending_records_ = 0;
}

CampaignJournal::~CampaignJournal() {
  if (fd_ < 0) return;
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; the abort path already flushed.
  }
  ::close(fd_);
}

void CampaignJournal::append(const std::vector<std::uint8_t>& bytes,
                             bool durable) {
  pending_.insert(pending_.end(), bytes.begin(), bytes.end());
  if (durable) flush();
}

void CampaignJournal::flush() {
  if (pending_.empty()) return;
  const std::uint8_t* p = pending_.data();
  std::size_t remaining = pending_.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("campaign journal: write to '" +
                               path_.string() +
                               "' failed: " + std::strerror(errno));
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0)
    throw std::runtime_error("campaign journal: fsync of '" + path_.string() +
                             "' failed: " + std::strerror(errno));
  pending_.clear();
  pending_records_ = 0;
}

void CampaignJournal::campaign_begin(const std::string& runner_spec,
                                     std::uint64_t seed,
                                     std::uint32_t studies) {
  runtime::JournalEntry e;
  e.type = runtime::JournalRecord::CampaignBegin;
  e.runner_spec = runner_spec;
  e.seed = seed;
  e.studies = studies;
  std::vector<std::uint8_t> bytes;
  runtime::encode_journal_record(e, bytes);
  append(bytes, /*durable=*/true);
}

void CampaignJournal::study_begin(std::uint32_t study, const std::string& name,
                                  const std::string& digest,
                                  std::uint32_t experiments) {
  runtime::JournalEntry e;
  e.type = runtime::JournalRecord::StudyBegin;
  e.study = study;
  e.study_name = name;
  e.study_digest = digest;
  e.experiments = experiments;
  std::vector<std::uint8_t> bytes;
  runtime::encode_journal_record(e, bytes);
  append(bytes, /*durable=*/true);
}

void CampaignJournal::index_done(std::uint32_t study, std::uint32_t index,
                                 const std::string& result_key) {
  runtime::JournalEntry e;
  e.type = runtime::JournalRecord::IndexDone;
  e.study = study;
  e.index = index;
  e.result_key = result_key;
  runtime::encode_journal_record(e, pending_);
  if (++pending_records_ >= options_.group_records) flush();
}

void CampaignJournal::study_end(std::uint32_t study) {
  runtime::JournalEntry e;
  e.type = runtime::JournalRecord::StudyEnd;
  e.study = study;
  std::vector<std::uint8_t> bytes;
  runtime::encode_journal_record(e, bytes);
  append(bytes, /*durable=*/true);
}

void CampaignJournal::campaign_end() {
  runtime::JournalEntry e;
  e.type = runtime::JournalRecord::CampaignEnd;
  std::vector<std::uint8_t> bytes;
  runtime::encode_journal_record(e, bytes);
  append(bytes, /*durable=*/true);
}

// --- reader ------------------------------------------------------------------

JournalState CampaignJournal::load(const std::filesystem::path& path) {
  const std::vector<std::uint8_t> bytes = read_all(path);
  JournalState state;

  std::size_t pos = 0;
  try {
    pos = runtime::decode_journal_header(bytes.data(), bytes.size());
  } catch (const codec::DecodeError& e) {
    // A file shorter than the 6-byte header is the killed-at-birth crash
    // shape: nothing was journaled. Anything longer with a bad header is
    // some other file — refuse loudly.
    if (bytes.size() < runtime::encode_journal_header().size()) {
      state.truncated_tail = !bytes.empty();
      return state;
    }
    throw ConfigError("campaign journal '" + path.string() +
                      "': " + e.what());
  }

  bool begun = false;
  while (pos < bytes.size()) {
    runtime::JournalEntry entry;
    std::size_t consumed = 0;
    try {
      entry = runtime::decode_journal_record(bytes.data() + pos,
                                             bytes.size() - pos, consumed);
    } catch (const codec::DecodeError&) {
      // The torn tail of a mid-append crash: everything from here on is
      // unwritten. (A flipped bit mid-file also lands here and discards the
      // suffix — the conservative reading, since later records' meaning
      // depends on the damaged one.)
      state.truncated_tail = true;
      break;
    }
    pos += consumed;

    switch (entry.type) {
      case runtime::JournalRecord::CampaignBegin:
        if (begun) malformed(path, "second CampaignBegin");
        begun = true;
        state.campaign_begun = true;
        state.runner_spec = entry.runner_spec;
        state.seed = entry.seed;
        state.studies = entry.studies;
        break;
      case runtime::JournalRecord::StudyBegin: {
        if (!begun) malformed(path, "StudyBegin before CampaignBegin");
        if (entry.study != state.progress.size())
          malformed(path, "StudyBegin ordinal " + std::to_string(entry.study) +
                              " out of order");
        JournalState::StudyProgress p;
        p.name = entry.study_name;
        p.digest = entry.study_digest;
        p.experiments = entry.experiments;
        state.progress.push_back(std::move(p));
        break;
      }
      case runtime::JournalRecord::IndexDone: {
        if (state.progress.empty() ||
            entry.study != state.progress.size() - 1)
          malformed(path, "IndexDone outside its study");
        JournalState::StudyProgress& p = state.progress.back();
        if (p.ended) malformed(path, "IndexDone after StudyEnd");
        // The coordinator journals in emit order, so indices are contiguous
        // from 0; anything else means the file was edited or interleaved.
        if (entry.index != p.done_keys.size())
          malformed(path, "IndexDone index " + std::to_string(entry.index) +
                              " breaks the contiguous emit order (expected " +
                              std::to_string(p.done_keys.size()) + ")");
        if (entry.index >= p.experiments)
          malformed(path, "IndexDone index past the study's experiment count");
        p.done_keys.push_back(entry.result_key);
        break;
      }
      case runtime::JournalRecord::StudyEnd: {
        if (state.progress.empty() ||
            entry.study != state.progress.size() - 1)
          malformed(path, "StudyEnd outside its study");
        JournalState::StudyProgress& p = state.progress.back();
        if (p.ended) malformed(path, "double StudyEnd");
        if (p.done_keys.size() != p.experiments)
          malformed(path, "StudyEnd with " +
                              std::to_string(p.done_keys.size()) + " of " +
                              std::to_string(p.experiments) +
                              " indices journaled");
        p.ended = true;
        break;
      }
      case runtime::JournalRecord::CampaignEnd:
        if (!begun) malformed(path, "CampaignEnd before CampaignBegin");
        if (state.progress.size() != state.studies ||
            (!state.progress.empty() && !state.progress.back().ended))
          malformed(path, "CampaignEnd before every study ended");
        if (pos != bytes.size())
          malformed(path, "records after CampaignEnd");
        state.campaign_done = true;
        break;
    }
  }
  return state;
}

// --- study digest ------------------------------------------------------------

std::string study_digest(const runtime::StudyParams& study) {
  const std::string ingredients =
      study.name + "\n" + std::to_string(study.experiments) + "\n" +
      (study.experiments > 0
           ? runtime::experiment_cache_key(study.make_params(0))
           : std::string("empty"));
  return util::sha256_hex(ingredients.data(), ingredients.size());
}

}  // namespace loki::campaign
