//===- AtomicFile.h - Durable atomic file replacement ------------*- C++ -*-=//
//
// The one write-then-rename helper every artifact writer (checkpoints,
// traces, shard manifests/results, quarantine lists, journal compaction)
// goes through.
// Two guarantees, both required by the crash-tolerant evaluation driver:
//
//  1. Atomicity: readers of Path see either the old contents or the
//     complete new payload, never a torn prefix — write to "<path>.tmp",
//     then rename(2) over the destination.
//
//  2. Durability: the payload is fsync'ed before the rename and the parent
//     directory is fsync'ed after it. Without the first, a crash shortly
//     after rename can surface a renamed-but-empty file (the metadata
//     outruns the data to disk) — which a resuming driver would parse,
//     reject, and needlessly re-run, or worse, trust if it happens to be
//     valid JSON. Without the second, the rename itself can vanish.
//
//===----------------------------------------------------------------------===//

#ifndef VERIOPT_SUPPORT_ATOMICFILE_H
#define VERIOPT_SUPPORT_ATOMICFILE_H

#include <string>

namespace veriopt {

/// Atomically and durably replace \p Path with \p Payload. On failure the
/// previous file (if any) is intact, the temporary is removed, and when
/// \p Err is non-null it names the failing step.
///
/// All syscalls route through IoEnv::current() (support/IoEnv.h), the
/// injectable seam the fault-injection and crash-consistency tests drive.
bool writeFileAtomic(const std::string &Path, const std::string &Payload,
                     std::string *Err = nullptr);

/// The unique temporary name writeFileAtomic() would use next for \p Path:
/// "<path>.tmp.<pid>.<seq>". Unique per process *and* per call, so
/// concurrent writers to one destination never clobber each other's
/// temporary (the destination rename is the only rendezvous). Exposed for
/// the two-writer regression test.
std::string atomicTempPath(const std::string &Path);

/// Durably append \p Payload to \p Path (creating it if needed): O_APPEND
/// write + fsync before returning. Appends are *not* atomic against readers
/// — the caller must frame records so a torn tail is detectable (the
/// VerdictStore journal CRC-frames every line). A short/failed append can
/// leave a partial tail; the journal tolerates every prefix by
/// construction.
bool appendFileDurable(const std::string &Path, const std::string &Payload,
                       std::string *Err = nullptr);

} // namespace veriopt

#endif // VERIOPT_SUPPORT_ATOMICFILE_H
