#include "simmpi/trace_cache.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "simmpi/trace_snapshot.h"
#include "util/json.h"  // read_file
#include "util/log.h"

namespace histpc::simmpi {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSnapshotExtension = ".htb";

/// Cache-file key header: magic + the full TraceKey, ahead of the
/// snapshot bytes. Distinct from the snapshot's own magic so a raw
/// snapshot dropped into the cache directory is recognized as unverified.
constexpr char kKeyMagic[8] = {'H', 'P', 'C', 'C', 'K', 'F', '1', '\n'};
constexpr std::size_t kKeyHeaderSize = sizeof(kKeyMagic) + 2 * sizeof(std::uint64_t);

std::uint64_t read_le_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void append_le_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] = digits[v & 0xF];
  return s;
}

/// Unique-per-call temp name next to `path`; concurrent writers (parallel
/// sessions sharing one cache directory) never collide, and the final
/// rename is atomic either way.
std::string temp_path_for(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

TraceKeyWriter::TraceKeyWriter(const NetworkModel& net, const MachineSpec& machine,
                               std::size_t nranks) {
  f64(net.latency);
  f64(net.bytes_per_second);
  word(net.eager_limit);
  f64(net.post_overhead);

  word(machine.node_names.size());
  for (const std::string& n : machine.node_names) str(n);
  for (double s : machine.node_speeds) f64(s);
  word(machine.rank_to_node.size());
  for (int r : machine.rank_to_node) word(static_cast<std::uint64_t>(r));
  for (const std::string& p : machine.process_names) str(p);

  word(nranks);
}

void TraceKeyWriter::str(const std::string& s) {
  word(s.size());
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t w = 0;
    const std::size_t n = std::min<std::size_t>(8, s.size() - i);
    for (std::size_t b = 0; b < n; ++b) w |= static_cast<std::uint64_t>(p[i + b]) << (8 * b);
    word(w);
  }
}

TraceKey TraceKeyWriter::finish(const std::vector<FuncInfo>& functions) {
  word(functions.size());
  for (const FuncInfo& f : functions) {
    str(f.function);
    str(f.module);
  }
  const auto avalanche = [](std::uint64_t h) {
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  };
  return {avalanche(primary_), avalanche(check_)};
}

TraceKey trace_content_key(const SimProgram& program, const NetworkModel& net) {
  TraceKeyWriter key(net, program.machine, program.procs.size());
  for (const ProcessProgram& proc : program.procs) {
    for (const Op& op : proc.ops) key.op(op);
    key.end_rank(proc.ops.size());
  }
  return key.finish(program.functions);
}

TraceKey record_trace_key(const ProgramSpec& spec, const NetworkModel& net) {
  TraceKeyWriter key(net, spec.machine, spec.machine.rank_to_node.size());
  ProgramBuilder builder(spec.machine, spec.options, &key);
  builder.record(spec.body);
  return key.finish(builder.functions_);
}

TraceCache::TraceCache(TraceCacheConfig config, telemetry::Registry* registry)
    : config_(std::move(config)), registry_(registry) {}

void TraceCache::count(const char* name) const {
  if (registry_) registry_->add(name, 1);
}

std::string TraceCache::path_for(const TraceKey& key) const {
  return (fs::path(config_.directory) / (hex16(key.primary) + kSnapshotExtension)).string();
}

std::optional<ExecutionTrace> TraceCache::load(const TraceKey& key) const {
  const std::string path = path_for(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    count("trace_cache.miss");
    return std::nullopt;
  }
  try {
    // Verify the stored key material before decoding: the filename only
    // carries 64 of the key's 128 bits, and files can be renamed or
    // copied. A mismatch is a miss (the caller re-simulates and store()
    // overwrites the file), not corruption — the snapshot may be a
    // perfectly valid trace of some *other* configuration.
    std::string header(kKeyHeaderSize, '\0');
    {
      std::ifstream in(path, std::ios::binary);
      if (!in.read(header.data(), static_cast<std::streamsize>(header.size())))
        throw SnapshotError("snapshot shorter than its key header");
    }
    if (std::memcmp(header.data(), kKeyMagic, sizeof(kKeyMagic)) != 0)
      throw SnapshotError("bad cache key header magic");
    const auto* p = reinterpret_cast<const unsigned char*>(header.data() + sizeof(kKeyMagic));
    const TraceKey stored{read_le_u64(p), read_le_u64(p + 8)};
    if (!(stored == key)) {
      count("trace_cache.key_mismatch");
      count("trace_cache.miss");
      HISTPC_LOG(Warn) << "trace cache key mismatch for " << path
                       << " (stored " << hex16(stored.primary) << "/" << hex16(stored.check)
                       << ", wanted " << hex16(key.primary) << "/" << hex16(key.check)
                       << ") — treating as miss";
      return std::nullopt;
    }
    ExecutionTrace trace = load_trace_snapshot(path, kKeyHeaderSize);
    count("trace_cache.hit");
    // Touch for LRU; best-effort (a failed touch only skews eviction).
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return trace;
  } catch (const std::exception& e) {
    // Same hardening rule as the experiment store: a file that fails
    // validation is moved aside so it cannot poison future loads, and the
    // caller re-simulates.
    count("trace_cache.quarantined");
    count("trace_cache.miss");
    const std::string quarantined = path + ".quarantined";
    fs::rename(path, quarantined, ec);
    if (ec) fs::remove(path, ec);
    HISTPC_LOG(Warn) << "quarantining corrupt trace snapshot " << path << ": " << e.what();
    return std::nullopt;
  }
}

void TraceCache::store(const TraceKey& key, const ExecutionTrace& trace) const {
  const std::string path = path_for(key);
  try {
    fs::create_directories(config_.directory);
    std::string bytes;
    bytes.append(kKeyMagic, sizeof(kKeyMagic));
    append_le_u64(bytes, key.primary);
    append_le_u64(bytes, key.check);
    bytes += encode_trace_snapshot(trace);
    const std::string tmp = temp_path_for(path);
    util::write_file(tmp, bytes);
    fs::rename(tmp, path);
    count("trace_cache.store");
    evict_over_cap(path);
  } catch (const std::exception& e) {
    HISTPC_LOG(Warn) << "failed to store trace snapshot " << path << ": " << e.what();
  }
}

void TraceCache::evict_over_cap(const std::string& just_written) const {
  struct Entry {
    fs::path path;
    std::uint64_t size;
    fs::file_time_type mtime;
  };
  std::error_code ec;
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  for (const auto& de : fs::directory_iterator(config_.directory, ec)) {
    if (de.path().extension() != kSnapshotExtension) continue;
    Entry e{de.path(), de.file_size(ec), de.last_write_time(ec)};
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= config_.max_bytes) return;
  // Oldest first; equal mtimes (coarse filesystem clocks) break by path so
  // concurrent evictors agree on the victim order.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  for (const Entry& e : entries) {
    if (total <= config_.max_bytes) break;
    if (e.path == fs::path(just_written)) continue;  // never evict the newest write
    if (fs::remove(e.path, ec)) {
      total -= e.size;
      count("trace_cache.evicted");
      HISTPC_LOG(Debug) << "evicted trace snapshot " << e.path.string() << " (" << e.size
                        << " bytes) to stay under cache cap";
    }
  }
}

}  // namespace histpc::simmpi
