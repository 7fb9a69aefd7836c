#include "campaign/cache.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/serialize.hpp"
#include "util/atomic_file.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace loki::campaign {

namespace {

constexpr const char* kIndexFile = "cache.index";
constexpr char kIndexMagic[4] = {'L', 'O', 'K', 'C'};
constexpr std::uint16_t kIndexVersion = 1;
/// Stores between periodic index persists. The index is an accounting
/// accelerator only — losing the tail costs a directory rescan, not data.
constexpr std::uint64_t kPersistEvery = 256;

bool is_hex_key(const std::string& key) {
  if (key.size() != 64) return false;
  for (const char c : key)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

}  // namespace

ResultCache::ResultCache(std::filesystem::path dir, CacheOptions options)
    : dir_(std::move(dir)),
      dir_prefix_((dir_ / "").string()),
      options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw ConfigError("ResultCache: cannot create directory '" +
                      dir_.string() + "': " + ec.message());
  util::MutexLock lock(mu_);
  load_index();
}

ResultCache::~ResultCache() {
  try {
    flush_index();
  } catch (...) {
    // Best-effort: a failed index persist only costs a rescan next open.
  }
}

std::string ResultCache::entry_file(const std::string& key) const {
  if (!is_hex_key(key))
    throw ConfigError("ResultCache: malformed key '" + key +
                      "' (expected 64 hex chars)");
  return dir_prefix_ + key + ".result";
}

// --- generation index --------------------------------------------------------

std::vector<std::string> ResultCache::listed_keys() const {
  constexpr std::string_view kSuffix = ".result";
  std::vector<std::string> keys;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return keys;  // unreadable dir: surface later, at the first store
  for (const auto& dirent : it) {
    const std::string name = dirent.path().filename().string();
    if (name.size() != 64 + kSuffix.size() || !name.ends_with(kSuffix))
      continue;
    std::string key = name.substr(0, 64);
    if (is_hex_key(key)) keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ResultCache::load_index() {
  index_.clear();
  total_bytes_ = 0;
  if (const std::optional<std::vector<std::uint8_t>> bytes =
          util::read_file_bytes(dir_ / kIndexFile)) {
    try {
      codec::Reader r(*bytes);
      for (const char c : kIndexMagic)
        if (r.u8() != static_cast<std::uint8_t>(c))
          throw codec::DecodeError("bad index magic");
      if (r.u16() != kIndexVersion)
        throw codec::DecodeError("unknown index version");
      std::uint64_t max_gen = r.u64();
      const std::uint64_t count = r.u64();
      // The file, not the index, is the truth: an entry deleted behind the
      // index's back (a shared dir, a manual prune) is dropped here. One
      // directory listing answers that for every key.
      const std::vector<std::string> on_disk = listed_keys();
      std::map<std::string, Entry> loaded;
      std::uint64_t total = 0;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::string key = r.str();
        Entry entry;
        entry.bytes = r.u64();
        entry.generation = r.u64();
        if (!is_hex_key(key)) throw codec::DecodeError("bad index key");
        if (!std::binary_search(on_disk.begin(), on_disk.end(), key)) continue;
        total += entry.bytes;
        max_gen = std::max(max_gen, entry.generation);
        loaded.insert_or_assign(key, entry);
      }
      r.expect_done();
      index_ = std::move(loaded);
      total_bytes_ = total;
      // Everything this open touches outranks everything a previous open
      // did, whatever order the counters interleaved on disk.
      generation_ = max_gen + 1;
      return;
    } catch (const codec::DecodeError&) {
      // Torn or foreign index (e.g. a crash before the first persist):
      // fall through to the rescan.
    }
  }
  rebuild_index_from_disk();
}

void ResultCache::rebuild_index_from_disk() {
  index_.clear();
  total_bytes_ = 0;
  for (const std::string& key : listed_keys()) {
    std::error_code size_ec;
    const std::uintmax_t bytes =
        std::filesystem::file_size(entry_file(key), size_ec);
    if (size_ec) continue;
    Entry entry;
    entry.bytes = static_cast<std::uint64_t>(bytes);
    entry.generation = 0;  // pre-history: evicted first, refreshed on touch
    total_bytes_ += entry.bytes;
    index_.insert_or_assign(key, entry);
  }
  generation_ = 1;
}

void ResultCache::persist_index() {
  codec::Writer w;
  for (const char c : kIndexMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(kIndexVersion);
  w.u64(generation_);
  w.u64(index_.size());
  for (const auto& [key, entry] : index_) {
    w.str(key);
    w.u64(entry.bytes);
    w.u64(entry.generation);
  }
  const std::vector<std::uint8_t> bytes = w.take();
  util::atomic_write_file(dir_ / kIndexFile, bytes.data(), bytes.size());
  stores_since_persist_ = 0;
}

void ResultCache::flush_index() {
  util::MutexLock lock(mu_);
  persist_index();
}

void ResultCache::touch(const std::string& key, std::uint64_t bytes) {
  auto [it, inserted] = index_.try_emplace(key);
  if (!inserted) total_bytes_ -= it->second.bytes;
  it->second.bytes = bytes;
  it->second.generation = ++generation_;
  total_bytes_ += bytes;
}

void ResultCache::gc() {
  const auto over_budget = [&] {
    return (options_.max_entries > 0 && index_.size() > options_.max_entries) ||
           (options_.max_bytes > 0 && total_bytes_ > options_.max_bytes);
  };
  while (over_budget()) {
    // Lowest generation goes first; the newest entry (generation_) is the
    // one the caller just stored or served and is never evicted — a budget
    // of one entry must not eat the result the campaign is about to emit.
    auto victim = index_.end();
    for (auto it = index_.begin(); it != index_.end(); ++it)
      if (it->second.generation != generation_ &&
          (victim == index_.end() ||
           it->second.generation < victim->second.generation))
        victim = it;
    if (victim == index_.end()) return;  // only the just-touched entry left
    std::error_code ec;
    std::filesystem::remove(entry_file(victim->first), ec);
    // A failed remove (EACCES on a shared dir?) still drops the entry from
    // the accounting: the next open's rescan re-adopts whatever survived.
    total_bytes_ -= victim->second.bytes;
    index_.erase(victim);
    ++stats_.evictions;
    ++removals_;
  }
}

// --- the cache proper --------------------------------------------------------

bool ResultCache::present(const std::string& key) const {
  struct stat st {};
  return ::stat(entry_file(key).c_str(), &st) == 0;
}

void ResultCache::count_miss() {
  util::MutexLock lock(mu_);
  ++stats_.misses;
}

bool ResultCache::contains(const std::string& key) {
  const bool found = present(key);
  if (!found) count_miss();
  return found;
}

std::optional<runtime::ExperimentResult> ResultCache::lookup(
    const std::string& key) {
  Fetch fetched = fetch(key);
  if (settle(key, fetched) == nullptr) return std::nullopt;
  return std::move(fetched.result);
}

ResultCache::Fetch ResultCache::fetch(const std::string& key) const {
  const std::string path = entry_file(key);
  Fetch out;
  {
    util::MutexLock lock(mu_);
    out.removals = removals_;
  }
  const std::optional<std::vector<std::uint8_t>> bytes =
      util::read_file_bytes(path.c_str());
  if (!bytes) return out;
  out.bytes = static_cast<std::uint64_t>(bytes->size());
  try {
    out.result = runtime::decode_experiment_result(*bytes);
  } catch (const codec::DecodeError&) {
    out.corrupt = true;
  }
  return out;
}

runtime::ExperimentResult* ResultCache::settle(const std::string& key,
                                               Fetch& fetched) {
  bool stale;
  {
    util::MutexLock lock(mu_);
    // Removed by this cache since the read began: the bytes in hand are no
    // longer what an inline lookup would see, so read again. Only this
    // object's evictions and quarantines bump removals_, and they run on
    // the settling thread, so the re-read is current.
    stale = fetched.removals != removals_ && !index_.contains(key);
    if (!stale && fetched.result.has_value()) {
      ++stats_.hits;
      touch(key, fetched.bytes);
      return &*fetched.result;
    }
    if (!stale && !fetched.corrupt) {
      ++stats_.misses;
      return nullptr;
    }
  }
  if (stale) {
    fetched = fetch(key);
    return settle(key, fetched);
  }
  // Torn or foreign-version file. Not a plain miss: quarantine it so the
  // re-run's store() publishes fresh bytes instead of racing the damaged
  // file, and so Stats make a rotting store visible. The quarantined copy
  // keeps the evidence for a post-mortem.
  try {
    util::rename_path(entry_file(key), dir_ / (key + ".corrupt"));
  } catch (const util::WriteError&) {
    // The entry vanished between read and rename — already gone.
  }
  util::MutexLock lock(mu_);
  ++stats_.corrupt;
  ++stats_.misses;
  ++removals_;
  auto it = index_.find(key);
  if (it != index_.end()) {
    total_bytes_ -= it->second.bytes;
    index_.erase(it);
  }
  return nullptr;
}

void ResultCache::store(const std::string& key,
                        const runtime::ExperimentResult& result) {
  const std::string path = entry_file(key);
  const std::vector<std::uint8_t> bytes =
      runtime::encode_experiment_result(result);
  // Durable publish: temp, write, fsync, atomic rename. Concurrent writers
  // of the same key never collide (unique temp names) and any winner's
  // bytes are correct for the key. The fsync is what lets the campaign
  // journal treat a journaled index as replayable: IndexDone is only
  // written after this returns, so a journaled key always has durable
  // bytes behind it.
  try {
    util::atomic_write_file(path, bytes.data(), bytes.size());
  } catch (const util::WriteError& e) {
    throw CacheError("ResultCache: store of key " + key +
                     " failed: " + e.what());
  }
  util::MutexLock lock(mu_);
  ++stats_.stores;
  touch(key, static_cast<std::uint64_t>(bytes.size()));
  gc();
  if (++stores_since_persist_ >= kPersistEvery) {
    try {
      persist_index();
    } catch (const util::WriteError& e) {
      throw CacheError(std::string("ResultCache: index persist failed: ") +
                       e.what());
    }
  }
}

CacheSink::CacheSink(std::shared_ptr<ResultCache> cache)
    : cache_(std::move(cache)) {
  if (!cache_) throw ConfigError("CacheSink: null cache");
}

CacheSink& CacheSink::study(runtime::StudyParams study) {
  if (study.name.empty() || !study.make_params)
    throw ConfigError("CacheSink: study needs a name and make_params");
  const std::string name = study.name;
  studies_.insert_or_assign(name, std::move(study));
  return *this;
}

void CacheSink::on_experiment(const StudyInfo& study, int index,
                              const runtime::ExperimentResult& result) {
  const auto it = studies_.find(study.name);
  if (it == studies_.end()) return;
  cache_->store(
      runtime::experiment_cache_key(it->second.make_params(index)), result);
}

}  // namespace loki::campaign
