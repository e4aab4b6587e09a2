#include "simmpi/trace_snapshot.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/binio.h"
#include "util/crc32c.h"
#include "util/json.h"  // read_file

namespace histpc::simmpi {

namespace {

constexpr std::size_t kHeaderSize = 12;  // magic (8) + version (4)
constexpr std::size_t kTrailerSize = 4;  // CRC32

// Wire helpers and the CRC live in util (binio.h / crc32c.h), shared with
// the experiment-record codec; the cursor is instantiated with this
// format's error type so malformed input keeps throwing SnapshotError.
using util::crc32c;
using util::binio::put_column;
using util::binio::put_f64;
using util::binio::put_str;
using util::binio::put_u32;
using util::binio::put_u64;
using Cursor = util::binio::Cursor<SnapshotError>;

/// One rank's intervals as wire columns: scratch for the transpose on
/// encode and for the fused decode-validate pass.
struct RankColumns {
  std::vector<double> t0, t1;
  std::vector<std::uint8_t> state;  ///< IntervalState values
  std::vector<FuncId> func;
  std::vector<SyncObjectId> sync;
};

}  // namespace

std::string encode_trace_snapshot(const ExecutionTrace& trace) {
  std::string out;
  out.reserve(kHeaderSize + 64 + trace.total_intervals() * 25 + kTrailerSize);
  out.append(kTraceSnapshotMagic);
  put_u32(out, kTraceSnapshotVersion);

  put_f64(out, trace.duration);

  const MachineSpec& m = trace.machine;
  put_u32(out, static_cast<std::uint32_t>(m.node_names.size()));
  for (const std::string& name : m.node_names) put_str(out, name);
  put_column(out, m.node_speeds);
  put_u32(out, static_cast<std::uint32_t>(m.rank_to_node.size()));
  put_column(out, m.rank_to_node);
  for (const std::string& proc : m.process_names) put_str(out, proc);

  put_u32(out, static_cast<std::uint32_t>(trace.functions.size()));
  for (const FuncInfo& f : trace.functions) {
    put_str(out, f.function);
    put_str(out, f.module);
  }
  put_u32(out, static_cast<std::uint32_t>(trace.sync_objects.size()));
  for (const std::string& s : trace.sync_objects) put_str(out, s);

  for (const RankTrace& rt : trace.ranks) {
    put_f64(out, rt.end_time);
    const std::size_t n = rt.intervals.size();
    put_u64(out, static_cast<std::uint64_t>(n));
    // Transpose AoS intervals into wire columns through small scratch
    // vectors; the per-column appends are then bulk copies.
    RankColumns cols;
    cols.t0.reserve(n);
    cols.t1.reserve(n);
    cols.state.reserve(n);
    cols.func.reserve(n);
    cols.sync.reserve(n);
    for (const Interval& iv : rt.intervals) {
      cols.t0.push_back(iv.t0);
      cols.t1.push_back(iv.t1);
      cols.state.push_back(static_cast<std::uint8_t>(iv.state));
      cols.func.push_back(iv.func);
      cols.sync.push_back(iv.sync_object);
    }
    put_column(out, cols.t0);
    put_column(out, cols.t1);
    put_column(out, cols.state);
    put_column(out, cols.func);
    put_column(out, cols.sync);
  }

  put_u32(out, crc32c(std::string_view(out).substr(kHeaderSize)));
  return out;
}

ExecutionTrace decode_trace_snapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kTrailerSize)
    throw SnapshotError("snapshot too small (" + std::to_string(bytes.size()) + " bytes)");
  if (bytes.substr(0, kTraceSnapshotMagic.size()) != kTraceSnapshotMagic)
    throw SnapshotError("bad snapshot magic (not a histpc-trace-bin file)");

  Cursor cur{bytes.data(), bytes.size() - kTrailerSize, kTraceSnapshotMagic.size()};
  const std::uint32_t version = cur.u32("format version");
  if (version != kTraceSnapshotVersion)
    throw SnapshotError("unsupported snapshot version " + std::to_string(version) +
                        " (expected " + std::to_string(kTraceSnapshotVersion) + ")");

  const std::string_view payload =
      bytes.substr(kHeaderSize, bytes.size() - kHeaderSize - kTrailerSize);
  Cursor trailer{bytes.data(), bytes.size(), bytes.size() - kTrailerSize};
  const std::uint32_t stored_crc = trailer.u32("payload CRC");
  const std::uint32_t computed_crc = crc32c(payload);
  if (stored_crc != computed_crc)
    throw SnapshotError("snapshot CRC mismatch (stored " + std::to_string(stored_crc) +
                        ", computed " + std::to_string(computed_crc) + ")");

  ExecutionTrace trace;
  trace.duration = cur.f64("duration");

  MachineSpec& m = trace.machine;
  const std::uint32_t nnodes = cur.u32("node count");
  m.node_names.reserve(nnodes);
  for (std::uint32_t i = 0; i < nnodes; ++i) m.node_names.push_back(cur.str("node name"));
  cur.column(m.node_speeds, nnodes, "node speeds");
  const std::uint32_t nranks = cur.u32("rank count");
  cur.column(m.rank_to_node, nranks, "rank placement");
  m.process_names.reserve(nranks);
  for (std::uint32_t i = 0; i < nranks; ++i)
    m.process_names.push_back(cur.str("process name"));
  m.validate();

  const std::uint32_t nfuncs = cur.u32("function count");
  trace.functions.reserve(nfuncs);
  for (std::uint32_t i = 0; i < nfuncs; ++i) {
    FuncInfo f;
    f.function = cur.str("function name");
    f.module = cur.str("module name");
    trace.functions.push_back(std::move(f));
  }
  const std::uint32_t nsyncs = cur.u32("sync object count");
  trace.sync_objects.reserve(nsyncs);
  for (std::uint32_t i = 0; i < nsyncs; ++i)
    trace.sync_objects.push_back(cur.str("sync object name"));

  trace.ranks.resize(nranks);
  const FuncId func_limit = static_cast<FuncId>(nfuncs);
  const SyncObjectId sync_limit = static_cast<SyncObjectId>(nsyncs);
  double max_end = 0.0;
  for (std::uint32_t r = 0; r < nranks; ++r) {
    RankTrace& rt = trace.ranks[r];
    rt.end_time = cur.f64("rank end time");
    const std::uint64_t n64 = cur.u64("interval count");
    if (n64 > std::numeric_limits<std::uint32_t>::max())
      throw SnapshotError("implausible interval count on rank " + std::to_string(r));
    const std::size_t n = static_cast<std::size_t>(n64);
    RankColumns cols;
    cur.column(cols.t0, n, "t0 column");
    cur.column(cols.t1, n, "t1 column");
    cur.column(cols.state, n, "state column");
    cur.column(cols.func, n, "func column");
    cur.column(cols.sync, n, "sync column");
    // One fused pass builds the AoS intervals and enforces the semantic
    // invariants of ExecutionTrace::validate() while the columns are
    // cache-hot; a final validate() over the multi-megabyte trace would
    // cost a measurable slice of the warm-load budget.
    rt.intervals.resize(n);
    Interval* out = rt.intervals.data();
    double prev_end = 0.0;
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double t0 = cols.t0[i];
      const double t1 = cols.t1[i];
      const std::uint8_t state = cols.state[i];
      const FuncId func = cols.func[i];
      const SyncObjectId sync = cols.sync[i];
      ok &= state <= 2;
      ok &= t1 >= t0 && t0 + 1e-9 >= prev_end;
      ok &= func == kNoFunc || (func >= 0 && func < func_limit);
      ok &= sync == kNoSyncObject ||
            (state == static_cast<std::uint8_t>(IntervalState::SyncWait) && sync >= 0 &&
             sync < sync_limit);
      prev_end = t1;
      out[i].t0 = t0;
      out[i].t1 = t1;
      out[i].state = static_cast<IntervalState>(state);
      out[i].func = func;
      out[i].sync_object = sync;
    }
    if (!ok || prev_end > rt.end_time + 1e-9)
      throw SnapshotError("invalid interval data on rank " + std::to_string(r));
    max_end = std::max(max_end, rt.end_time);
  }
  if (std::abs(max_end - trace.duration) > 1e-6)
    throw SnapshotError("duration does not match max rank end time");

  if (cur.off != cur.size)
    throw SnapshotError("snapshot has " + std::to_string(cur.size - cur.off) +
                        " trailing payload bytes");
  return trace;
}

ExecutionTrace load_trace_snapshot(const std::string& path, std::size_t offset) {
#if defined(__unix__) || defined(__APPLE__)
  // Decode straight out of the page cache: copying a multi-megabyte
  // snapshot into a string first costs a third of the warm-load budget.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct ::stat st {};
    const bool statted = ::fstat(fd, &st) == 0 && st.st_size > 0;
    void* map = statted ? ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                                 MAP_PRIVATE, fd, 0)
                        : MAP_FAILED;
    ::close(fd);
    if (map != MAP_FAILED) {
      struct Unmap {
        void* p;
        std::size_t n;
        ~Unmap() { ::munmap(p, n); }
      } guard{map, static_cast<std::size_t>(st.st_size)};
      if (guard.n < offset) throw SnapshotError("snapshot shorter than its header");
      return decode_trace_snapshot(
          std::string_view(static_cast<const char*>(map) + offset, guard.n - offset));
    }
  }
#endif
  const std::string data = util::read_file(path);
  if (data.size() < offset) throw SnapshotError("snapshot shorter than its header");
  return decode_trace_snapshot(std::string_view(data).substr(offset));
}

}  // namespace histpc::simmpi
