#ifndef JSI_CORE_CHECKPOINT_HPP
#define JSI_CORE_CHECKPOINT_HPP

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.hpp"

namespace jsi::core {

// Campaign checkpoint sidecar: a JSONL file whose first line is a header
// identifying the campaign (schema version, spec fingerprint, unit count,
// chunk size, aggregate flag) and every following line is one completed
// chunk's ChunkRecord. Records are appended — and fsync-independently
// flushed — as chunks finish, so a killed campaign loses at most its
// in-flight chunks; on resume the loaded records enter the deterministic
// chunk-ordered merge exactly as if they had been computed this run,
// which is why the resumed artifacts are byte-identical to an
// uninterrupted run's.
//
// Byte-exactness is the design constraint: registry gauges and histogram
// sums are doubles, and a decimal round-trip could perturb the last ulp.
// Doubles are therefore serialized as the hex of their IEEE-754 bit
// pattern ("0x3fe8f5c28f5c28f6") and bit_cast back on load. Counters,
// bucket counts and TCK books are integers and round-trip through the
// strict in-tree JSON parser unchanged; unit names and summaries are
// ordinary escaped strings.

/// FNV-1a 64-bit over `text`, rendered as 16 hex digits — the campaign
/// fingerprint helper. Callers hash the canonical serialized spec so a
/// checkpoint can never silently resume against a different workload.
/// Because the canonical serializer emits `bus.model` (and the model's
/// own params) whenever they differ from the defaults, a checkpoint
/// written under one interconnect model is rejected — never silently
/// folded — when resumed under another.
std::string fingerprint_text(std::string_view text);

/// Thrown when a resume is attempted against a checkpoint written for a
/// different campaign: the spec fingerprint (which discriminates the
/// interconnect model and every other spec field) or the scheduling
/// layout (units/chunk_size/aggregate) does not match, or the file
/// predates the current record schema (any `jsi.checkpoint.v<k>` header
/// below the current version — its chunk registries count bus lookups
/// differently), or a record disagrees with its chunk of the header's
/// layout (see load_checkpoint). Derives
/// std::runtime_error so pre-existing generic handlers keep working.
class CheckpointMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CheckpointHeader {
  std::string fingerprint;       ///< caller identity (spec hash)
  std::uint64_t units = 0;       ///< campaign unit count
  std::uint64_t chunk_size = 0;  ///< scheduling granule the records use
  bool aggregate = false;        ///< outcomes folded vs retained
};

/// A loaded checkpoint: its header plus every well-formed chunk record.
/// A truncated final line (the kill case) is ignored, not an error.
struct CheckpointData {
  CheckpointHeader header;
  std::vector<ChunkRecord> records;
};

/// Parse `path`. Throws std::runtime_error when the file cannot be read
/// or the header/records are malformed, and CheckpointMismatchError when
/// a record disagrees with its chunk c = [lo, hi) of the header's
/// (units, chunk_size) layout: c out of range, `agg.units` != hi − lo,
/// more violations or failures than units, outcome indices not strictly
/// ascending inside [lo, hi), or an outcome list other than one failed
/// outcome per failure (aggregate) / one outcome per unit (per-unit).
CheckpointData load_checkpoint(const std::string& path);

/// Concatenate worker part files into one merged checkpoint at `dst`:
/// the given header, then every part's record lines in part order. Each
/// part contributes only its durable region — the newline-terminated
/// lines after its own header. An unterminated final line is the torn
/// tail of a killed writer and is DROPPED, never re-terminated: gluing a
/// '\n' onto it would turn a fragment the loader is designed to stop at
/// into a line that poisons every record after it in the merged file
/// (load_checkpoint stops at the first unparseable line, so one
/// re-terminated torn record silently discards all later parts'
/// records). The dropped chunk simply re-runs during the merge fold.
/// A part whose header itself is torn contributes nothing. Throws
/// std::runtime_error when `dst` cannot be written or a part is missing.
void merge_checkpoint_parts(const std::string& dst, const CheckpointHeader& h,
                            const std::vector<std::string>& parts);

/// Render one header / record line (no trailing newline — callers
/// append '\n'). Record lines have the same shape in both outcome
/// modes; aggregate mode simply retains fewer outcomes per record.
void write_checkpoint_header(std::ostream& os, const CheckpointHeader& h);
void write_chunk_record(std::ostream& os, const ChunkRecord& rec);

/// One record's whole checkpoint line, trailing newline included.
std::string chunk_record_line(const ChunkRecord& rec);

/// Append-mode writer used by CampaignRunner::run(). open() either
/// starts a fresh file (truncate + header) or, in resume mode, validates
/// the existing header and seeks to the end; append() and append_line()
/// write one record line in one write and flush, so a crash can tear the
/// last line but never interleave two records. All methods throw
/// std::runtime_error on I/O errors.
class CheckpointWriter {
 public:
  /// No-op writer (no checkpoint configured).
  CheckpointWriter() = default;

  /// `resume_existing`: keep the file and append (the header must match
  /// `h` — load/validate is the caller's job, this only appends); false:
  /// truncate and write a fresh header.
  void open(const std::string& path, const CheckpointHeader& h,
            bool resume_existing);

  bool is_open() const { return os_.is_open(); }

  void append(const ChunkRecord& rec) { append_line(chunk_record_line(rec)); }

  /// Write a line from chunk_record_line(), so a caller can format it
  /// before taking the lock its writes go under.
  void append_line(const std::string& line);

 private:
  std::ofstream os_;
};

}  // namespace jsi::core

#endif  // JSI_CORE_CHECKPOINT_HPP
