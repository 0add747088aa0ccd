#ifndef FAIRCLEAN_BLOB_STORE_H_
#define FAIRCLEAN_BLOB_STORE_H_

#include <string>

#include "common/status.h"

namespace fairclean {
namespace store {

/// Artifact byte store: one file per key under a cache directory. Keys are
/// cache-file basenames (e.g. "adult_outliers_LR_s7_n3_r2_f0.json" or its
/// ".journal" sibling); values are the exact file bytes, checksum footer
/// included. The store never interprets the bytes — footers stay the
/// caller's concern.
///
/// Fault probes: Write goes through WriteFileAtomic, which probes the
/// "cache_write" site. Read is unprobed — callers that need a "cache_read"
/// probe (the driver's journal load) arm it themselves.
class FlatFileStore {
 public:
  explicit FlatFileStore(std::string dir);

  /// Stores `bytes` under `key` (atomic temp-file + rename), replacing any
  /// previous value.
  Status Write(const std::string& key, const std::string& bytes);

  /// The exact bytes last written under `key`. NotFound when absent.
  Result<std::string> Read(const std::string& key);

  /// Removes `key`. Idempotent: OK when already absent.
  Status Remove(const std::string& key);

  Result<bool> Contains(const std::string& key);

  /// Moves a damaged record aside under a unique quarantine path
  /// ("<key>.corrupt", then "<key>.corrupt.1", ...) so recomputation never
  /// destroys the evidence. Returns the quarantine path. IoError when
  /// `key` is absent.
  Result<std::string> Quarantine(const std::string& key);

  /// File path of `key`, for error messages.
  std::string Describe(const std::string& key) const;

 private:
  std::string dir_;
};

}  // namespace store
}  // namespace fairclean

#endif  // FAIRCLEAN_BLOB_STORE_H_
