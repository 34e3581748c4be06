#include "fabric/address_space.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <new>

namespace odcm::fabric {

AddressSpace::AddressSpace(RankId owner, VirtAddr va_base, std::size_t size)
    : owner_(owner), base_(va_base), size_(size) {
  if (va_base == 0) {
    throw std::invalid_argument("AddressSpace: va_base must be non-zero");
  }
  if (size > kSegmentStride) {
    throw std::invalid_argument(
        "AddressSpace: size exceeds the segment stride");
  }
  // [redzone page][data][pad][redzone page]: the data ends at the trailing
  // redzone but for the pad that aligns its start to max_align_t, as a
  // heap buffer was. Everything but the data is poisoned.
  constexpr std::size_t kAlign = alignof(std::max_align_t);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t body = (size + page - 1) / page * page;
  map_len_ = body + 2 * page;
  void* map = mmap(nullptr, map_len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  map_ = static_cast<std::byte*>(map);
  data_ = map_ + page + (body - (size + kAlign - 1) / kAlign * kAlign);
  ASAN_POISON_MEMORY_REGION(map_, data_ - map_);
  ASAN_POISON_MEMORY_REGION(data_ + size_, map_ + map_len_ - (data_ + size_));
}

AddressSpace::~AddressSpace() {
  // The shadow outlives the mapping: a later mapping at this address must
  // not inherit the redzones. The data's shadow was never poisoned.
  ASAN_UNPOISON_MEMORY_REGION(map_, data_ - map_);
  ASAN_UNPOISON_MEMORY_REGION(data_ + size_, map_ + map_len_ - (data_ + size_));
  munmap(map_, map_len_);
}

}  // namespace odcm::fabric
