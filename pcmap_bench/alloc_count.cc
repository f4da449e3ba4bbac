#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace pcmap::repobench::alloc {

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> calls{0};
std::atomic<std::uint64_t> bytes{0};

void
note(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed)) {
        calls.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(size, std::memory_order_relaxed);
    }
}

} // namespace

void
enable(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

Tally
tally()
{
    return {calls.load(std::memory_order_relaxed),
            bytes.load(std::memory_order_relaxed)};
}

void *
allocate(std::size_t size)
{
    note(size);
    void *p = std::malloc(size != 0 ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    note(size);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    void *p = std::aligned_alloc(a, rounded != 0 ? rounded : a);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace pcmap::repobench::alloc

using pcmap::repobench::alloc::allocate;
using pcmap::repobench::alloc::allocateAligned;

// The library's nothrow forms call these, so every new-expression in
// the process is counted exactly once.
void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }

void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
