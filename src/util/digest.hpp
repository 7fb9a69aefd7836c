// SHA-256, for content-addressing cached experiment results.
//
// The cache key of an experiment is the SHA-256 of its encoded
// ExperimentParams (runtime/serialize.*), so the key changes whenever any
// behaviour-affecting parameter — or the wire format version itself —
// changes. A cryptographic digest keeps accidental collisions out of the
// picture even across campaigns of millions of experiments.
//
// Two block-compress kernels compute the same function. The portable one
// runs everywhere. On x86 CPUs whose CPUID reports the SHA extensions
// (leaf 7, EBX bit 29) a SHA-NI kernel is picked once, at first use. On a
// 3.2 KB params encoding it took 3 us against the portable kernel's 24 us
// (4-vCPU x86-64 VM). The digests are identical, so cache keys do not
// depend on the machine.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace loki::util {

enum class Sha256Kernel { Portable, ShaNi };

/// Whether `kernel` can run on this CPU. Portable always can.
bool sha256_kernel_available(Sha256Kernel kernel);

class Sha256 {
 public:
  /// The fastest kernel this CPU supports.
  Sha256();
  /// A pinned kernel — for the tests that check one kernel against the
  /// other. Throws LogicError when `kernel` is unavailable here.
  explicit Sha256(Sha256Kernel kernel);

  void update(const void* data, std::size_t len);
  /// Finalize and return the 32-byte digest. The object must not be updated
  /// afterwards.
  std::array<std::uint8_t, 32> finish();

  /// Compress `blocks` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                              std::size_t blocks);

 private:
  CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_{0};
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_{0};
};

/// One-shot digest, rendered as 64 lowercase hex characters.
std::string sha256_hex(const std::vector<std::uint8_t>& bytes);
std::string sha256_hex(const void* data, std::size_t len);

}  // namespace loki::util
