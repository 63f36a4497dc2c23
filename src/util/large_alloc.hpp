#pragma once
/// \file large_alloc.hpp
/// \brief The one rule for big host blocks: 2 MiB-aligned and advised as
/// huge pages.
///
/// The paper's HBM is allocated once and never faulted in page by page.
/// Here the emulated HBM and the solver's big host buffers (the fp64
/// source of an MxP matrix, FACT's panel workspace, the panel
/// double-buffer) are fresh anonymous memory on every solve, and a block
/// first touched in 4 KiB pages pays one page fault per 4 KiB — thousands
/// per solve, inside the timed region. So every host block of at least
/// kHugePageBytes is aligned to a huge page and advised MADV_HUGEPAGE: the
/// kernel then backs it with 2 MiB pages (where transparent huge pages are
/// `always` or `madvise`) and a first touch costs one fault per 2 MiB.
/// Where huge pages are off, the blocks are simply 2 MiB-aligned.
///
/// Blocks stay in the C++ allocator (an aligned `operator new`), not raw
/// `mmap`, so the sanitizers still see every allocation and leak. Blocks
/// under the threshold are allocated exactly as before; only their size
/// picks the rule, so it is a constant, not a setting: a huge page is the
/// smallest unit the advice can act on.

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace hplx {

/// Size of a transparent huge page on x86-64, and the block size from
/// which the rule applies.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// True when a block of `bytes` is allocated under the huge-page rule.
constexpr bool is_large(std::size_t bytes) { return bytes >= kHugePageBytes; }

/// Allocate `bytes` uninitialized bytes (throws std::bad_alloc). A large
/// block is kHugePageBytes-aligned and the whole huge pages it covers are
/// advised MADV_HUGEPAGE (a refused advice is ignored: the block then
/// works on small pages); a smaller block is `align`-aligned, like a plain
/// `operator new` of that alignment.
void* allocate_large(std::size_t bytes,
                     std::size_t align = __STDCPP_DEFAULT_NEW_ALIGNMENT__);

/// Free a block from allocate_large; `bytes` and `align` must be the ones
/// it was allocated with.
void free_large(void* p, std::size_t bytes,
                std::size_t align = __STDCPP_DEFAULT_NEW_ALIGNMENT__) noexcept;

/// std::allocator under the rule, for vectors that may grow past 2 MiB.
template <typename T>
struct LargeAllocator {
  using value_type = T;

  LargeAllocator() = default;
  template <typename U>
  constexpr LargeAllocator(const LargeAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(allocate_large(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_large(p, n * sizeof(T), alignof(T));
  }

  template <typename U>
  bool operator==(const LargeAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using LargeVector = std::vector<T, LargeAllocator<T>>;

/// unique_ptr deleter of a block from allocate_large (default alignment):
/// it carries the byte count free_large needs.
struct LargeDelete {
  std::size_t bytes = 0;
  void operator()(void* p) const noexcept { free_large(p, bytes); }
};

template <typename T>
using LargeArray = std::unique_ptr<T[], LargeDelete>;

/// An uninitialized array of `n` T under the rule.
template <typename T>
LargeArray<T> make_large_array(std::size_t n) {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                std::is_trivially_destructible_v<T> &&
                alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
    throw std::bad_array_new_length();
  const std::size_t bytes = n * sizeof(T);
  return LargeArray<T>(static_cast<T*>(allocate_large(bytes)),
                       LargeDelete{bytes});
}

}  // namespace hplx
