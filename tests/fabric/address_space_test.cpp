// Tests for the demand-zero backing of fabric::AddressSpace: residency
// follows writes, the zero contract, the ASan redzones and the segment
// stride bound.
#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "fabric/address_space.hpp"

#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define ODCM_TEST_ASAN 1
#else
#define ODCM_TEST_ASAN 0
#endif

namespace odcm::fabric {
namespace {

/// Resident pages of `bytes`, which must start on a page boundary.
std::size_t resident_pages(std::span<const std::byte> bytes) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes.size() + page - 1) / page);
  void* start = const_cast<std::byte*>(bytes.data());
  if (mincore(start, bytes.size(), vec.data()) != 0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  return static_cast<std::size_t>(
      std::count_if(vec.begin(), vec.end(),
                    [](unsigned char v) { return (v & 1) != 0; }));
}

TEST(AddressSpace, ResidentOnlyWhereWritten) {
  constexpr std::size_t kSize = 16 << 20;
  AddressSpace space(0, make_va_base(0), kSize);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(space.bytes().data()) %
                static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE)),
            0u);
  EXPECT_EQ(resident_pages(space.bytes()), 0u);

  const std::uint64_t value = 0x0123456789abcdefULL;
  std::memcpy(space.window(space.base() + (5 << 20), 8).data(), &value, 8);
  EXPECT_EQ(resident_pages(space.bytes()), 1u);

  // Last: mincore counts a page that a read mapped to the zero page.
  const auto untouched = space.window(space.base() + (9 << 20), 1 << 20);
  EXPECT_TRUE(std::all_of(untouched.begin(), untouched.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(AddressSpace, RedzonesPoisonedUnderAsan) {
#if ODCM_TEST_ASAN
  for (const std::size_t size : {std::size_t{8}, std::size_t{100},
                                 std::size_t{4096}, std::size_t{65536}}) {
    AddressSpace space(0, make_va_base(0), size);
    const std::byte* begin = space.bytes().data();
    EXPECT_TRUE(__asan_address_is_poisoned(begin - 1)) << size;
    EXPECT_TRUE(__asan_address_is_poisoned(begin + size)) << size;
    EXPECT_FALSE(__asan_address_is_poisoned(begin)) << size;
    EXPECT_FALSE(__asan_address_is_poisoned(begin + size - 1)) << size;
  }
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

TEST(AddressSpace, SizeBoundedBySegmentStride) {
  // A larger space would overlap the same PE's next segment.
  EXPECT_EQ(make_va_base(0, 1) - make_va_base(0, 0), kSegmentStride);
  EXPECT_THROW(AddressSpace(0, make_va_base(0), kSegmentStride + 1),
               std::invalid_argument);
  AddressSpace whole(0, make_va_base(0), kSegmentStride);
  EXPECT_EQ(whole.size(), kSegmentStride);
  EXPECT_FALSE(whole.contains(make_va_base(0, 1), 1));
}

}  // namespace
}  // namespace odcm::fabric
