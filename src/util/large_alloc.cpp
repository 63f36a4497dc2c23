#include "util/large_alloc.hpp"

#include <sys/mman.h>

namespace hplx {

void* allocate_large(std::size_t bytes, std::size_t align) {
  if (!is_large(bytes)) {
    if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) return ::operator new(bytes);
    return ::operator new(bytes, std::align_val_t{align});
  }
  void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
#ifdef MADV_HUGEPAGE
  // Only the whole huge pages inside the block: a huge page reaching past
  // its end would back memory the block does not own. A refusal (huge
  // pages compiled out, or a mapping the advice does not apply to) leaves
  // the block on small pages, which is correct, only slower to first touch.
  (void)::madvise(p, bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
#endif
  return p;
}

void free_large(void* p, std::size_t bytes, std::size_t align) noexcept {
  if (is_large(bytes)) {
    ::operator delete(p, bytes, std::align_val_t{kHugePageBytes});
  } else if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    ::operator delete(p, bytes);
  } else {
    ::operator delete(p, bytes, std::align_val_t{align});
  }
}

}  // namespace hplx
